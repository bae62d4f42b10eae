type device = {
  dev_id : int;
  dev_name : string;
  proc : Processor.t;
  link : Link.t;
  model : Es_dnn.Graph.t;
  rate : float;
  deadline : float;
  accuracy_floor : float;
}

type server = {
  srv_id : int;
  srv_name : string;
  sproc : Processor.t;
  ap_bandwidth_bps : float;
}

type t = { devices : device array; servers : server array }

let device ~id ?name ~proc ~link ~model ~rate ~deadline ?(accuracy_floor = 0.0) () =
  if rate <= 0.0 then invalid_arg "Cluster.device: non-positive rate";
  if deadline <= 0.0 then invalid_arg "Cluster.device: non-positive deadline";
  let dev_name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "dev%d(%s,%s)" id proc.Processor.name model.Es_dnn.Graph.name
  in
  { dev_id = id; dev_name; proc; link; model; rate; deadline; accuracy_floor }

let server ~id ?name ~proc ~ap_bandwidth_mbps () =
  if ap_bandwidth_mbps <= 0.0 then invalid_arg "Cluster.server: non-positive AP bandwidth";
  let srv_name =
    match name with Some n -> n | None -> Printf.sprintf "srv%d(%s)" id proc.Processor.name
  in
  { srv_id = id; srv_name; sproc = proc; ap_bandwidth_bps = ap_bandwidth_mbps *. 1e6 }

let make ~devices ~servers =
  if devices = [] then invalid_arg "Cluster.make: no devices";
  if servers = [] then invalid_arg "Cluster.make: no servers";
  let devices =
    Array.of_list devices |> Array.mapi (fun i d -> { d with dev_id = i })
  in
  let servers =
    Array.of_list servers |> Array.mapi (fun i s -> { s with srv_id = i })
  in
  { devices; servers }

let n_devices t = Array.length t.devices
let n_servers t = Array.length t.servers

let perf_classes t =
  let same (a : Es_dnn.Profile.perf) (b : Es_dnn.Profile.perf) =
    Float.equal a.Es_dnn.Profile.flops_per_s b.Es_dnn.Profile.flops_per_s
    && Float.equal a.Es_dnn.Profile.mem_bytes_per_s b.Es_dnn.Profile.mem_bytes_per_s
    && Float.equal a.Es_dnn.Profile.layer_overhead_s b.Es_dnn.Profile.layer_overhead_s
  in
  let perfs = ref [||] in
  let classes =
    Array.map
      (fun srv ->
        let p = srv.sproc.Processor.perf in
        match Array.find_index (same p) !perfs with
        | Some c -> c
        | None ->
            perfs := Array.append !perfs [| p |];
            Array.length !perfs - 1)
      t.servers
  in
  (classes, !perfs)

let add_perf h (p : Es_dnn.Profile.perf) =
  Es_util.Fnv.add_float h p.Es_dnn.Profile.flops_per_s;
  Es_util.Fnv.add_float h p.Es_dnn.Profile.mem_bytes_per_s;
  Es_util.Fnv.add_float h p.Es_dnn.Profile.layer_overhead_s

let add_proc h (p : Processor.t) =
  Es_util.Fnv.add_string h p.Processor.name;
  add_perf h p.Processor.perf;
  Es_util.Fnv.add_float h p.Processor.mem_bytes;
  let pw = p.Processor.power in
  Es_util.Fnv.add_float h pw.Processor.idle_w;
  Es_util.Fnv.add_float h pw.Processor.busy_w;
  Es_util.Fnv.add_float h pw.Processor.tx_w;
  Es_util.Fnv.add_float h pw.Processor.rx_w

(* Rates are hashed quantized to [rate_grain] (nearest multiple), so small
   load jitter maps to the same fingerprint while epoch-scale level changes
   do not; [rate_grain <= 0] hashes the exact float bits. *)
let fingerprint ?(rate_grain = 0.0) t =
  let h = Es_util.Fnv.create () in
  Es_util.Fnv.add_int h (n_devices t);
  Es_util.Fnv.add_int h (n_servers t);
  Array.iter
    (fun d ->
      add_proc h d.proc;
      Es_util.Fnv.add_string h d.link.Link.name;
      Es_util.Fnv.add_float h d.link.Link.peak_bps;
      Es_util.Fnv.add_float h d.link.Link.rtt_s;
      Es_util.Fnv.add_float h d.link.Link.fading_sigma;
      (* Model identity, as in Candidate's cache key: name + structure. *)
      Es_util.Fnv.add_string h d.model.Es_dnn.Graph.name;
      Es_util.Fnv.add_int h (Es_dnn.Graph.n_nodes d.model);
      Es_util.Fnv.add_float h (Es_dnn.Graph.total_flops d.model);
      (if rate_grain > 0.0 then
         Es_util.Fnv.add_int64 h (Int64.of_float (Float.round (d.rate /. rate_grain)))
       else Es_util.Fnv.add_float h d.rate);
      Es_util.Fnv.add_float h d.deadline;
      Es_util.Fnv.add_float h d.accuracy_floor)
    t.devices;
  Array.iter
    (fun s ->
      add_proc h s.sproc;
      Es_util.Fnv.add_float h s.ap_bandwidth_bps)
    t.servers;
  Es_util.Fnv.to_hex h

let pp_summary fmt t =
  Format.fprintf fmt "cluster: %d devices, %d servers@." (n_devices t) (n_servers t);
  Array.iter
    (fun s ->
      Format.fprintf fmt "  %s  ap=%.0f Mbps@." s.srv_name (s.ap_bandwidth_bps /. 1e6))
    t.servers;
  Array.iter
    (fun d ->
      Format.fprintf fmt "  %-28s %s rate=%.1f/s deadline=%.0fms acc>=%.2f@." d.dev_name
        d.link.Link.name d.rate (d.deadline *. 1000.0) d.accuracy_floor)
    t.devices
