(** Static description of a heterogeneous edge cluster.

    Devices generate inference requests for one model each, under a latency
    deadline and an accuracy floor; servers offer compute behind an access
    point whose uplink capacity their assigned devices share. *)

type device = {
  dev_id : int;
  dev_name : string;
  proc : Processor.t;
  link : Link.t;  (** the device's radio; caps its achievable rate *)
  model : Es_dnn.Graph.t;
  rate : float;  (** mean request rate, req/s *)
  deadline : float;  (** end-to-end latency bound, seconds *)
  accuracy_floor : float;  (** minimum acceptable expected accuracy *)
}

type server = {
  srv_id : int;
  srv_name : string;
  sproc : Processor.t;
  ap_bandwidth_bps : float;  (** uplink capacity shared by assigned devices *)
}

type t = { devices : device array; servers : server array }

val make : devices:device list -> servers:server list -> t
(** Re-numbers ids to positions. @raise Invalid_argument when either list is
    empty. *)

val device :
  id:int ->
  ?name:string ->
  proc:Processor.t ->
  link:Link.t ->
  model:Es_dnn.Graph.t ->
  rate:float ->
  deadline:float ->
  ?accuracy_floor:float ->
  unit ->
  device
(** @raise Invalid_argument on non-positive rate or deadline. *)

val server :
  id:int -> ?name:string -> proc:Processor.t -> ap_bandwidth_mbps:float -> unit -> server

val n_devices : t -> int
val n_servers : t -> int

val perf_classes : t -> int array * Es_dnn.Profile.perf array
(** Servers grouped by processor performance: [(classes, perfs)] where
    [perfs] holds the distinct server perf vectors in order of first
    appearance and [classes.(s)] indexes server [s]'s.  A plan's server
    time depends on the server only through its perf, so loops over
    servers can compute it once per class. *)

val fingerprint : ?rate_grain:float -> t -> string
(** Structural digest (16 hex chars) of the whole cluster: every device's
    processor (perf, memory, power), link, model identity (name, node count,
    total FLOPs), rate, deadline and accuracy floor, plus every server's
    processor and AP capacity.  Two clusters with the same fingerprint are
    interchangeable inputs to the solvers up to hash collision (64-bit).

    [rate_grain > 0] quantizes each device rate to the nearest multiple of
    the grain before hashing, so load levels that recur within jitter share
    a fingerprint — the knob behind {!Es_joint.Solve_cache} hits on diurnal
    profiles.  The default ([0.]) hashes exact rate bits. *)

val pp_summary : Format.formatter -> t -> unit
