(* Seeded input generator.

   Everything a run feeds the system is a pure function of the workload and
   [--seed]: the population's spec seed, the arrival trace, the fault
   schedule and the churn list.  Every setup and every iteration of a run
   therefore replays byte-identical inputs. *)

open Es_edge

type workload = Fleet_10k | Flash_guarded | Churn_replan

let all = [ Fleet_10k; Flash_guarded; Churn_replan ]

let name = function
  | Fleet_10k -> "fleet-10k"
  | Flash_guarded -> "flash-guarded"
  | Churn_replan -> "churn-replan"

let of_name s = List.find_opt (fun w -> name w = s) all

type shape = {
  devices : int;
  archetypes : int;
  rate_spread : float;  (** log-normal sigma of per-device rate jitter *)
  horizon_s : float;  (** simulated seconds served *)
  profile : string;  (** {!Es_workload.Heavy.profile_by_name} load shape *)
  rate_scale : float;  (** served rates over the rates the plan was made for *)
  guarded : bool;
      (** overload protections and resilience on, scripted faults injected *)
  churn_events : int;  (** re-plans after serving *)
  fleets : int;  (** fleets per run, each from its own seed *)
}

let shape = function
  | Fleet_10k ->
      {
        devices = 10_000;
        archetypes = 1_000;
        rate_spread = 0.1;
        horizon_s = 30.0;
        profile = "constant";
        rate_scale = 1.0;
        guarded = false;
        (* A re-plan of 10k devices takes 0.5-3 s: one (a join) keeps the
           iteration short and still takes the incremental path at this
           scale. *)
        churn_events = 1;
        fleets = 3;
      }
  | Flash_guarded ->
      {
        devices = 2_500;
        archetypes = 250;
        rate_spread = 0.1;
        (* 45 s keeps the arrival count (~0.76M) clear of 2^20, where the
           runner's per-request arrays double and peak RSS jumps by a
           quarter from one seed to the next. *)
        horizon_s = 45.0;
        profile = "flash";
        rate_scale = 3.0;
        guarded = true;
        churn_events = 10;
        fleets = 1;
      }
  | Churn_replan ->
      {
        devices = 1_000;
        archetypes = 1_000;
        rate_spread = 0.5;
        horizon_s = 120.0;
        profile = "constant";
        rate_scale = 1.0;
        guarded = false;
        churn_events = 200;
        fleets = 3;
      }

(* The seeds of a run's fleets: [--seed] itself, then one derived from it
   per further fleet.  How long a plan or a run of re-plans takes depends on
   the fleet: ten 10k-device fleets, each solved twice, gave solve times
   whose means spread by 0.11 (sd over mean) while each fleet's two solves
   agreed within 0.02, with one device per archetype as with ten.  A run
   therefore averages over several fleets. *)
let fleet_seeds w ~seed =
  Array.init (shape w).fleets (fun i -> if i = 0 then seed else Hashtbl.hash (seed, i))

(* Independent sub-seeds for each input stream, drawn from [--seed]; the
   population's spec seed is [--seed] itself. *)
type seeds = { spec_seed : int; trace_seed : int; fault_seed : int; churn_seed : int; sim_seed : int }

let seeds seed =
  let rng = Es_util.Prng.create seed in
  let next () = Es_util.Prng.int rng 0x3FFFFFFF in
  let trace_seed = next () in
  let fault_seed = next () in
  let churn_seed = next () in
  let sim_seed = next () in
  { spec_seed = seed; trace_seed; fault_seed; churn_seed; sim_seed }

let spec seeds = Scenario.with_seed seeds.spec_seed Es_workload.Scenarios.smart_city

(* One scripted server crash, a link outage on 1% of the devices and one
   straggling server, at seeded times and targets inside the horizon.  The
   outage spans many devices so that some of them offload under any plan:
   their requests fail, retry and fall back to local execution. *)
let faults ~seed ~horizon_s (c : Cluster.t) =
  let rng = Es_util.Prng.create seed in
  let nd = Cluster.n_devices c and ns = Cluster.n_servers c in
  let at lo hi = Es_util.Prng.float_in rng (lo *. horizon_s) (hi *. horizon_s) in
  let crash_at = at 0.3 0.5 in
  let crashed = Es_util.Prng.int rng ns in
  let outage_at = at 0.2 0.6 in
  let dark = Es_util.Prng.sample_without_replacement rng (max 1 (nd / 100)) nd in
  let straggle_at = at 0.4 0.7 in
  let slow = Es_util.Prng.int rng ns in
  Es_sim.Faults.scripted
    (Es_sim.Faults.crash ~at:crash_at ~for_s:(0.15 *. horizon_s) crashed
    @ List.concat_map
        (fun d -> Es_sim.Faults.outage ~at:outage_at ~for_s:(0.1 *. horizon_s) d)
        (Array.to_list dark)
    @ Es_sim.Faults.straggle ~at:straggle_at ~for_s:(0.2 *. horizon_s) ~factor:3.0 slow)

(* A join / leave / rate-change list over [c]: equal shares of the three
   kinds in a seeded order, so a seed changes which devices churn but not
   the mix.  The generator replays the fleet it describes: every index is in
   range when its event is applied in order, a leave never removes the last
   device (it becomes a join), and a rate change moves a device's current
   rate by a factor in [0.8, 1.25] within the population's rate range.
   (With [2/3, 3/2] more re-plans migrated devices and the iteration time
   spread 0.23 across seeds; with [0.8, 1.25], 0.12.)
   Joining devices are drawn from the original population. *)
let churn ~seed ~events (c : Cluster.t) =
  let rng = Es_util.Prng.create seed in
  let kinds = Array.init events (fun i -> i mod 3) in
  Es_util.Prng.shuffle rng kinds;
  let pool = c.Cluster.devices in
  let rate (d : Cluster.device) = d.Cluster.rate in
  let lo = Array.fold_left (fun m d -> Float.min m (rate d)) infinity pool in
  let hi = Array.fold_left (fun m d -> Float.max m (rate d)) 0.0 pool in
  let rates = ref (Array.map rate pool) in
  Array.map
    (fun kind ->
      let n = Array.length !rates in
      if kind = 0 || (kind = 1 && n <= 1) then begin
        let d = Es_util.Prng.choice rng pool in
        rates := Array.append !rates [| rate d |];
        Es_scale.Delta.Join d
      end
      else if kind = 1 then begin
        let i = Es_util.Prng.int rng n in
        rates := Array.init (n - 1) (fun j -> !rates.(if j < i then j else j + 1));
        Es_scale.Delta.Leave i
      end
      else
        let i = Es_util.Prng.int rng n in
        let r = Float.min hi (Float.max lo (!rates.(i) *. Es_util.Prng.float_in rng 0.8 1.25)) in
        !rates.(i) <- r;
        Es_scale.Delta.Rate_change (i, r))
    kinds

type inputs = {
  cluster : Cluster.t;  (** the population the plan is made for *)
  served : Cluster.t;  (** the population the simulator serves *)
  arrivals : (float * int) array;
  faults : Es_sim.Faults.t;
  churn : Es_scale.Delta.event array;
  sim_seed : int;
}

(* [devices] overrides the workload's size (tests use small fleets).
   [tr] records one span per generator call. *)
let make ?tr ?devices w ~seed =
  let sh = shape w in
  let devices = Option.value devices ~default:sh.devices in
  let s = seeds seed in
  let cluster =
    Spans.span tr ~layer:"workload" "Es_workload.Heavy.population" (fun () ->
        Es_workload.Heavy.population ~k:sh.archetypes ~rate_spread:sh.rate_spread ~devices
          (spec s))
  in
  let served =
    if sh.rate_scale = 1.0 then cluster else Es_joint.Online.scale_rates cluster sh.rate_scale
  in
  let arrivals =
    Spans.span tr ~layer:"workload" "Es_workload.Heavy.trace" (fun () ->
        Es_workload.Heavy.trace ~seed:s.trace_seed ~duration_s:sh.horizon_s
          ~profile:(Es_workload.Heavy.profile_by_name ~duration_s:sh.horizon_s sh.profile)
          served)
  in
  Spans.span tr ~layer:"bench" "generate faults and churn" (fun () ->
      {
        cluster;
        served;
        arrivals;
        faults =
          (if sh.guarded then faults ~seed:s.fault_seed ~horizon_s:sh.horizon_s served
           else Es_sim.Faults.empty);
        churn = churn ~seed:s.churn_seed ~events:sh.churn_events cluster;
        sim_seed = s.sim_seed;
      })

let pp_event ppf = function
  | Es_scale.Delta.Join d -> Format.fprintf ppf "join %s %h" d.Cluster.dev_name d.Cluster.rate
  | Es_scale.Delta.Leave i -> Format.fprintf ppf "leave %d" i
  | Es_scale.Delta.Rate_change (i, r) -> Format.fprintf ppf "rate %d %h" i r

(* Digest of every input byte that reaches the system. *)
let digest inp =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b (Cluster.fingerprint inp.cluster);
  Buffer.add_string b (Cluster.fingerprint inp.served);
  Array.iter
    (fun (t, d) ->
      Buffer.add_int64_le b (Int64.bits_of_float t);
      Buffer.add_int32_le b (Int32.of_int d))
    inp.arrivals;
  Buffer.add_string b (Format.asprintf "%a" Es_sim.Faults.pp inp.faults);
  Array.iter (fun e -> Buffer.add_string b (Format.asprintf "%a;" pp_event e)) inp.churn;
  Buffer.add_string b (string_of_int inp.sim_seed);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The distinct models in a population, in first-appearance order. *)
let models (c : Cluster.t) =
  Array.fold_left
    (fun acc (d : Cluster.device) ->
      let g = d.Cluster.model in
      if List.exists (fun (h : Es_dnn.Graph.t) -> h.name = g.Es_dnn.Graph.name) acc then acc
      else g :: acc)
    [] c.Cluster.devices
  |> List.rev
