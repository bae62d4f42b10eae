open Es_edge
module Optimizer = Es_joint.Optimizer
module Solve_cache = Es_joint.Solve_cache
module Shard = Shard

(* Sharded hierarchical solver: dual-price coordination over per-server
   subproblems.

   The monolithic JMSRA descent couples every device through the assignment
   step, which is what makes it superlinear in cluster size.  Here the
   coupling is priced instead: the outer loop owns the device→server
   assignment and a pair of dual prices per server (bandwidth and compute
   utilization), each inner subproblem is one server's independent
   Optimizer.solve over only its assigned devices, and devices migrate
   between servers by best-response moves against price-augmented latency
   estimates.  Prices ascend on utilization above target (never below
   zero), the move sweep visits devices in fixed ascending order, and a
   stitched result is accepted only when it strictly improves the global
   objective — so the loop is monotone after the first stitch and always
   terminates, within max_sweeps, on a feasible full decision set.

   Determinism: shard lists are built in ascending server order, fanned out
   through Es_util.Par (index-addressed results, input-order merge), each
   inner solve runs with jobs = 1, and every tie in the move sweep breaks
   toward the lowest server index — decisions are bit-identical for every
   [jobs] value. *)

type config = {
  shard : Optimizer.config;
  max_sweeps : int;
  delta_sweeps : int;
  price_step : float;
  price_target : float;
  move_tolerance : float;
  max_moves_per_sweep : int;
  jobs : int;
}

let default_config =
  {
    shard = { Optimizer.default_config with Optimizer.jobs = 1; multi_start = false };
    max_sweeps = 3;
    delta_sweeps = 1;
    price_step = 0.5;
    price_target = 0.75;
    move_tolerance = 0.05;
    max_moves_per_sweep = 32;
    jobs = 0;
  }

let shard_config cfg = { cfg.shard with Optimizer.jobs = 1 }

type output = {
  decisions : Decision.t array;
  objective : float;
  assignment : int array;
  sweeps : int;
  shard_solves : int;
  moves : int;
  solve_time_s : float;
}

(* Cumulative process-wide counters (observability; never read back by the
   solver).  All fields are Atomic.t — lock-free domain-safe state that
   needs no mutex guard (es_lint D4 recognizes Atomic.t record fields). *)
type counters = { sweeps : int; shard_solves : int; moves : int; delta_events : int }

type live = {
  sweeps : int Atomic.t;
  shard_solves : int Atomic.t;
  moves : int Atomic.t;
  delta_events : int Atomic.t;
}

let live : live =
  {
    sweeps = Atomic.make 0;
    shard_solves = Atomic.make 0;
    moves = Atomic.make 0;
    delta_events = Atomic.make 0;
  }

let counters () : counters =
  {
    sweeps = Atomic.get live.sweeps;
    shard_solves = Atomic.get live.shard_solves;
    moves = Atomic.get live.moves;
    delta_events = Atomic.get live.delta_events;
  }

let reset_counters () =
  Atomic.set live.sweeps 0;
  Atomic.set live.shard_solves 0;
  Atomic.set live.moves 0;
  Atomic.set live.delta_events 0

(* Mutable bookkeeping local to one solve/apply call. *)
type sweep_state = { mutable sweeps : int; mutable shard_solves : int; mutable moves : int }

(* Per-server running totals during one coordination sweep. *)
type tally = { mutable offloaders : int; mutable bw_frac : float; mutable cpu_frac : float }

let validate_config cfg =
  if cfg.max_sweeps < 1 then invalid_arg "Es_scale: max_sweeps must be >= 1";
  if cfg.delta_sweeps < 0 then invalid_arg "Es_scale: negative delta_sweeps";
  if cfg.price_step < 0.0 || not (Float.is_finite cfg.price_step) then
    invalid_arg "Es_scale: bad price_step";
  if cfg.price_target <= 0.0 || not (Float.is_finite cfg.price_target) then
    invalid_arg "Es_scale: bad price_target";
  if cfg.move_tolerance < 0.0 || cfg.move_tolerance >= 1.0 then
    invalid_arg "Es_scale: move_tolerance must be in [0, 1)";
  if cfg.max_moves_per_sweep < 0 then invalid_arg "Es_scale: negative max_moves_per_sweep"

let fastest_server (servers : Cluster.server array) =
  let best = ref 0 in
  Array.iteri
    (fun s (srv : Cluster.server) ->
      if
        srv.Cluster.sproc.Processor.perf.Es_dnn.Profile.flops_per_s
        > servers.(!best).Cluster.sproc.Processor.perf.Es_dnn.Profile.flops_per_s
      then best := s)
    servers;
  !best

(* Applied utilization per server under a decision set: offloader count,
   bandwidth fraction of the AP and compute seconds-per-second offered. *)
let util_tallies cluster (decisions : Decision.t array) =
  let ns = Cluster.n_servers cluster in
  let tallies =
    Array.init ns (fun _ -> { offloaders = 0; bw_frac = 0.0; cpu_frac = 0.0 })
  in
  Array.iter
    (fun (d : Decision.t) ->
      if Decision.offloads d then begin
        let s = d.Decision.server in
        let dev = cluster.Cluster.devices.(d.Decision.device) in
        let srv = cluster.Cluster.servers.(s) in
        let plan = d.Decision.plan in
        let bits =
          8.0 *. (Es_surgery.Plan.transfer_bytes plan +. Es_surgery.Plan.result_bytes plan)
        in
        let t = tallies.(s) in
        t.offloaders <- t.offloaders + 1;
        t.bw_frac <- t.bw_frac +. (dev.Cluster.rate *. bits /. srv.Cluster.ap_bandwidth_bps);
        t.cpu_frac <-
          t.cpu_frac
          +. dev.Cluster.rate
             *. Es_surgery.Plan.server_time srv.Cluster.sproc.Processor.perf plan
      end)
    decisions;
  tallies

(* Price ascent on utilization above target, clamped at zero: an overloaded
   server's resources get more expensive, pushing best responses elsewhere;
   an idle server's prices decay back toward free. *)
let price_update cfg ~prices_bw ~prices_cpu (tallies : tally array) =
  Array.iteri
    (fun s (t : tally) ->
      prices_bw.(s) <-
        Float.max 0.0 (prices_bw.(s) +. (cfg.price_step *. (t.bw_frac -. cfg.price_target)));
      prices_cpu.(s) <-
        Float.max 0.0 (prices_cpu.(s) +. (cfg.price_step *. (t.cpu_frac -. cfg.price_target))))
    tallies

(* One best-response sweep in fixed ascending device order.  A device's
   cost on server [s] is a fair-share latency estimate (the grants a
   re-solve would plausibly hand out) plus what its demand costs at [s]'s
   dual prices.  The latency is [Latency.of_decision] of that estimate
   written out over the plan terms hoisted per device — the same float
   operations in the same order, so the sweep is bit-identical to building
   the decision.  Ties break toward the lowest server index (strict <
   during the scan); a move must beat staying put by a relative margin so
   price noise cannot oscillate devices.  Tallies update as moves land, so
   later devices respond to earlier moves within the same sweep — still
   deterministic, the order is fixed.  Returns the number of devices moved;
   marks source and target shards dirty. *)
let move_pass cfg cluster ~prices_bw ~prices_cpu ~tallies ~(decisions : Decision.t array)
    ~assignment ~dirty ~(st : sweep_state) =
  let servers = cluster.Cluster.servers in
  let ns = Array.length servers in
  let budget =
    if cfg.max_moves_per_sweep = 0 then max_int else cfg.max_moves_per_sweep
  in
  let classes, perfs = Cluster.perf_classes cluster in
  let work = Array.make (Array.length perfs) 0.0 in
  let cost = Array.make ns 0.0 in
  let moved = ref 0 in
  Array.iter
    (fun (d : Decision.t) ->
      if !moved < budget && Decision.offloads d then begin
        let i = d.Decision.device in
        let cur = d.Decision.server in
        let dev = cluster.Cluster.devices.(i) in
        let rate = dev.Cluster.rate in
        let peak = dev.Cluster.link.Link.peak_bps in
        let half_rtt = dev.Cluster.link.Link.rtt_s /. 2.0 in
        let plan = d.Decision.plan in
        let dev_s = Es_surgery.Plan.device_time dev.Cluster.proc.Processor.perf plan in
        let up_bytes = Es_surgery.Plan.transfer_bytes plan in
        let down_bytes = Es_surgery.Plan.result_bytes plan in
        let bits = 8.0 *. (up_bytes +. down_bytes) in
        Array.iteri (fun c perf -> work.(c) <- Es_surgery.Plan.server_time perf plan) perfs;
        for s = 0 to ns - 1 do
          let ap = servers.(s).Cluster.ap_bandwidth_bps in
          let joining = if s = cur then 0 else 1 in
          let k = float_of_int (max 1 (tallies.(s).offloaders + joining)) in
          let bw = Float.min (Float.max (ap /. k) 1.0) peak in
          let w = work.(classes.(s)) in
          let up = if up_bytes <= 0.0 then 0.0 else (up_bytes *. 8.0 /. bw) +. half_rtt in
          let srv_s = if w <= 0.0 then 0.0 else w /. (1.0 /. k) in
          let down = if down_bytes <= 0.0 then 0.0 else (down_bytes *. 8.0 /. bw) +. half_rtt in
          cost.(s) <-
            dev_s +. up +. srv_s +. down
            +. (prices_bw.(s) *. rate *. bits /. ap)
            +. (prices_cpu.(s) *. rate *. w)
        done;
        let cost_cur = cost.(cur) in
        let best_s = ref cur and best_c = ref cost_cur in
        for s = 0 to ns - 1 do
          if s <> cur && cost.(s) < !best_c then begin
            best_s := s;
            best_c := cost.(s)
          end
        done;
        if !best_s <> cur && !best_c < cost_cur *. (1.0 -. cfg.move_tolerance) then begin
          let dst_s = !best_s in
          let src = tallies.(cur) and dst = tallies.(dst_s) in
          let cap_src = servers.(cur).Cluster.ap_bandwidth_bps in
          let cap_dst = servers.(dst_s).Cluster.ap_bandwidth_bps in
          src.offloaders <- src.offloaders - 1;
          src.bw_frac <- src.bw_frac -. (rate *. bits /. cap_src);
          src.cpu_frac <- src.cpu_frac -. (rate *. work.(classes.(cur)));
          dst.offloaders <- dst.offloaders + 1;
          dst.bw_frac <- dst.bw_frac +. (rate *. bits /. cap_dst);
          dst.cpu_frac <- dst.cpu_frac +. (rate *. work.(classes.(dst_s)));
          assignment.(i) <- dst_s;
          dirty.(cur) <- true;
          dirty.(dst_s) <- true;
          incr moved;
          st.moves <- st.moves + 1
        end
      end)
    decisions;
  !moved

(* Re-solve every dirty shard (ascending server order) and stitch the
   results over a copy of [current].  Shard solves are whole-subproblem
   tasks over the domain pool — input-order merge keeps the stitch
   deterministic at any [jobs]. *)
let solve_dirty cfg ~cache ~cluster ~assignment ~dirty ~warm ~current ~(st : sweep_state) =
  let ns = Cluster.n_servers cluster in
  let shards =
    List.filter_map
      (fun s -> if dirty.(s) then Shard.make cluster ~assignment ~server:s else None)
      (List.init ns Fun.id)
  in
  let config = shard_config cfg in
  let outs =
    Es_util.Par.parallel_map ~jobs:cfg.jobs
      (fun sh -> Shard.solve ~config ?cache ?warm sh)
      shards
  in
  st.shard_solves <- st.shard_solves + List.length shards;
  let next = Array.copy current in
  List.iter2 (fun sh out -> Shard.lift_into sh out next) shards outs;
  Array.fill dirty 0 ns false;
  next

(* The coordination loop.  [current] must be a full-arity decision set
   consistent with [assignment]; [warm_first] seeds the first round of
   shard solves (None = cold descent).  The first stitched result is
   accepted unconditionally (there is nothing comparable before it: arity
   or rates may have just changed); afterwards a round is accepted only on
   strict objective improvement, else the loop reverts to the best snapshot
   and stops.  Bounded by [max_sweeps] rounds and one move pass per round,
   so it always terminates. *)
let coordinate cfg ~cache ~cluster ~assignment ~current ~warm_first ~dirty ~max_sweeps
    ~(st : sweep_state) =
  let ns = Cluster.n_servers cluster in
  let prices_bw = Array.make ns 0.0 and prices_cpu = Array.make ns 0.0 in
  let best = ref None in
  let current = ref current in
  let warm = ref warm_first in
  let stop = ref false in
  let sweep = ref 0 in
  while (not !stop) && !sweep < max_sweeps do
    incr sweep;
    st.sweeps <- st.sweeps + 1;
    let stitched =
      solve_dirty cfg ~cache ~cluster ~assignment ~dirty ~warm:!warm ~current:!current ~st
    in
    let objective = Es_joint.Objective.of_decisions cluster stitched in
    match !best with
    | Some (b, _, _) when not (objective < b -. 1e-9) ->
        (* Monotone acceptance guard: no strict improvement — revert to the
           best snapshot (decisions and assignment both) and stop. *)
        stop := true
    | _ ->
        best := Some (objective, stitched, Array.copy assignment);
        current := stitched;
        warm := Some stitched;
        if !sweep < max_sweeps then begin
          let tallies = util_tallies cluster stitched in
          price_update cfg ~prices_bw ~prices_cpu tallies;
          let moved =
            move_pass cfg cluster ~prices_bw ~prices_cpu ~tallies ~decisions:stitched
              ~assignment ~dirty ~st
          in
          if moved = 0 then stop := true
        end
  done;
  match !best with
  | Some (objective, decisions, assignment) -> (decisions, objective, assignment)
  | None -> assert false (* max_sweeps >= 1: at least one round ran *)

(* Cold start, mirroring the monolithic optimizer's: per-device best plan
   against a fair share of the fastest server, then balanced greedy
   placement on those plans. *)
let cold_assignment cfg cluster =
  let servers = cluster.Cluster.servers in
  let nd = Cluster.n_devices cluster in
  let fastest = fastest_server servers in
  let per_server = float_of_int (max 1 (nd / Array.length servers)) in
  let sc = cfg.shard in
  let pools =
    Optimizer.device_pools ?max_candidates:sc.Optimizer.max_candidates
      ~precisions:sc.Optimizer.precisions ~widths:sc.Optimizer.widths cluster
  in
  let plans =
    Array.init nd (fun device ->
        Optimizer.best_scored cluster ~device ~server:fastest pools.(device)
          ~bandwidth_bps:(servers.(fastest).Cluster.ap_bandwidth_bps /. per_server)
          ~compute_share:(1.0 /. per_server))
  in
  Es_alloc.Assign.balanced_greedy cluster ~plans

(* Full-arity placeholder so the first stitch has an array to write over;
   every slot is replaced in the first sweep (all shards dirty). *)
let placeholder_decisions cluster =
  Array.map
    (fun (dev : Cluster.device) ->
      Decision.make ~device:dev.Cluster.dev_id ~server:0
        ~plan:(Es_surgery.Plan.device_only dev.Cluster.model) ())
    cluster.Cluster.devices

let bump_live (st : sweep_state) =
  ignore (Atomic.fetch_and_add live.sweeps st.sweeps);
  ignore (Atomic.fetch_and_add live.shard_solves st.shard_solves);
  ignore (Atomic.fetch_and_add live.moves st.moves)

let solve ?(config = default_config) ?cache ?warm_start ?assignment cluster =
  let t0 = Es_obs.Obs.wall_clock () in
  validate_config config;
  let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
  if nd = 0 then invalid_arg "Es_scale.solve: empty cluster";
  let st : sweep_state = { sweeps = 0; shard_solves = 0; moves = 0 } in
  (* Repair-or-ignore inputs, like the optimizer's warm-start contract:
     wrong arity is dropped, an out-of-range server re-points at the
     fastest server. *)
  let warm =
    match warm_start with Some w when Array.length w = nd -> Some w | Some _ | None -> None
  in
  let assignment =
    match assignment with
    | Some a when Array.length a = nd && Array.for_all (fun s -> s >= 0 && s < ns) a ->
        Array.copy a
    | Some _ | None -> (
        match warm with
        | Some w ->
            let fastest = fastest_server cluster.Cluster.servers in
            Array.map
              (fun (d : Decision.t) ->
                let s = d.Decision.server in
                if s >= 0 && s < ns then s else fastest)
              w
        | None -> cold_assignment config cluster)
  in
  let current, warm_first =
    match warm with
    | Some w -> (Array.copy w, Some w)
    | None -> (placeholder_decisions cluster, None)
  in
  let dirty = Array.make ns true in
  let decisions, objective, assignment =
    coordinate config ~cache ~cluster ~assignment ~current ~warm_first ~dirty
      ~max_sweeps:config.max_sweeps ~st
  in
  bump_live st;
  ({
     decisions;
     objective;
     assignment;
     sweeps = st.sweeps;
     shard_solves = st.shard_solves;
     moves = st.moves;
     solve_time_s = Es_obs.Obs.wall_clock () -. t0;
   }
    : output)

let solver ?config ?cache () : Optimizer.solver =
  let prev_assignment = ref None in
  fun ~warm cluster ->
    let out = solve ?config ?cache ?warm_start:warm ?assignment:!prev_assignment cluster in
    prev_assignment := Some out.assignment;
    {
      Optimizer.decisions = out.decisions;
      objective = out.objective;
      iterations = out.sweeps;
      trace = [];
      solve_time_s = out.solve_time_s;
    }

module Delta = struct
  type event =
    | Join of Cluster.device
    | Leave of int
    | Rate_change of int * float

  type state = {
    config : config;
    cache : Solve_cache.t option;
    cluster : Cluster.t;
    output : output;
  }

  let init ?(config = default_config) ?cache cluster =
    { config; cache; cluster; output = solve ~config ?cache cluster }

  let cluster st = st.cluster
  let output st = st.output

  (* Pick the join server by applied utilization (worst of the two
     resources), ties toward the lowest index. *)
  let least_loaded_server cluster decisions =
    let tallies = util_tallies cluster decisions in
    let best = ref 0 and best_load = ref infinity in
    Array.iteri
      (fun s (t : tally) ->
        let load = Float.max t.bw_frac t.cpu_frac in
        if load < !best_load then begin
          best := s;
          best_load := load
        end)
      tallies;
    !best

  let apply st event =
    let t0 = Es_obs.Obs.wall_clock () in
    Atomic.incr live.delta_events;
    let cfg = st.config in
    let cluster = st.cluster in
    let nd = Cluster.n_devices cluster and ns = Cluster.n_servers cluster in
    let asg = st.output.assignment in
    let servers = Array.to_list cluster.Cluster.servers in
    let check_device i name =
      if i < 0 || i >= nd then
        invalid_arg (Printf.sprintf "Es_scale.Delta.%s: device %d out of range" name i)
    in
    let cluster', decisions', assignment', touched =
      match event with
      | Join dev ->
          let cluster' =
            Cluster.make ~devices:(Array.to_list cluster.Cluster.devices @ [ dev ]) ~servers
          in
          let s = least_loaded_server cluster st.output.decisions in
          let seed =
            Decision.make ~device:nd ~server:s
              ~plan:(Es_surgery.Plan.device_only dev.Cluster.model) ()
          in
          ( cluster',
            Array.append st.output.decisions [| seed |],
            Array.append asg [| s |],
            [ s ] )
      | Leave i ->
          check_device i "Leave";
          if nd = 1 then invalid_arg "Es_scale.Delta.Leave: cannot remove the last device";
          let keep j = if j < i then j else j + 1 in
          let devices' =
            List.init (nd - 1) (fun j -> cluster.Cluster.devices.(keep j))
          in
          let decisions' =
            Array.init (nd - 1) (fun j ->
                { (st.output.decisions.(keep j)) with Decision.device = j })
          in
          ( Cluster.make ~devices:devices' ~servers,
            decisions',
            Array.init (nd - 1) (fun j -> asg.(keep j)),
            [ asg.(i) ] )
      | Rate_change (i, rate) ->
          check_device i "Rate_change";
          if rate <= 0.0 || not (Float.is_finite rate) then
            invalid_arg "Es_scale.Delta.Rate_change: rate must be positive and finite";
          let devices' =
            List.init nd (fun j ->
                let d = cluster.Cluster.devices.(j) in
                if j = i then { d with Cluster.rate } else d)
          in
          ( Cluster.make ~devices:devices' ~servers,
            Array.copy st.output.decisions,
            Array.copy asg,
            [ asg.(i) ] )
    in
    let st_run : sweep_state = { sweeps = 0; shard_solves = 0; moves = 0 } in
    let dirty = Array.make ns false in
    List.iter (fun s -> dirty.(s) <- true) touched;
    let decisions, objective, assignment =
      coordinate cfg ~cache:st.cache ~cluster:cluster' ~assignment:assignment'
        ~current:decisions' ~warm_first:(Some decisions') ~dirty
        ~max_sweeps:(1 + cfg.delta_sweeps) ~st:st_run
    in
    bump_live st_run;
    let out : output =
      {
        decisions;
        objective;
        assignment;
        sweeps = st_run.sweeps;
        shard_solves = st_run.shard_solves;
        moves = st_run.moves;
        solve_time_s = Es_obs.Obs.wall_clock () -. t0;
      }
    in
    { st with cluster = cluster'; output = out }
end
