(* In-memory span recorder for the traced run.

   A span wraps one call the benchmark makes into a layer of the system:
   name, layer, start, end and the span that was open when it began.
   Nothing is written until the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  layer : string;
  name : string;
  start_s : float;
  stop_s : float;
}

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable closed : span list;
}

let create ?(clock = Unix.gettimeofday) () = { clock; next_id = 0; open_ids = []; closed = [] }

let record t ~layer name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start_s = t.clock () in
  Fun.protect f ~finally:(fun () ->
      let stop_s = t.clock () in
      t.open_ids <- List.tl t.open_ids;
      t.closed <- { id; parent; layer; name; start_s; stop_s } :: t.closed)

(* The untraced run passes [None] and pays one match per call. *)
let span tr ~layer name f = match tr with None -> f () | Some t -> record t ~layer name f

let spans t =
  let a = Array.of_list t.closed in
  Array.sort (fun x y -> Int.compare x.id y.id) a;
  a

let duration s = s.stop_s -. s.start_s

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span (indexed like [spans]): its duration minus the
   part of its interval that its children cover. *)
let self_times spans =
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some i -> children.(i) <- (s.start_s, s.stop_s) :: children.(i)
      | None -> ())
    spans;
  Array.mapi
    (fun i s -> duration s -. covered ~lo:s.start_s ~hi:s.stop_s children.(i))
    spans

(* The spans of the subtree rooted at [root], root included. *)
let subtree spans root =
  let inside = Hashtbl.create 64 in
  Hashtbl.replace inside root.id ();
  Array.to_list spans
  |> List.filter (fun s ->
         if s.id = root.id then true
         else if Hashtbl.mem inside s.parent then begin
           Hashtbl.replace inside s.id ();
           true
         end
         else false)
  |> Array.of_list

type row = { layer : string; calls : int; total_s : float; self_s : float }

(* Calls, total and self time per layer, in first-appearance order. *)
let by_layer spans =
  let self = self_times spans in
  let rows = Hashtbl.create 8 and order = ref [] in
  Array.iteri
    (fun i (s : span) ->
      let r =
        match Hashtbl.find_opt rows s.layer with
        | Some r -> r
        | None ->
            order := s.layer :: !order;
            { layer = s.layer; calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace rows s.layer
        {
          r with
          calls = r.calls + 1;
          total_s = r.total_s +. duration s;
          self_s = r.self_s +. self.(i);
        })
    spans;
  List.rev_map (Hashtbl.find rows) !order

let to_jsonl oc spans =
  let self = self_times spans in
  let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start_s in
  Array.iteri
    (fun i s ->
      let open Es_obs.Json in
      output_string oc
        (to_string
           (Obj
              [
                ("id", Int s.id);
                ("parent", if s.parent < 0 then Null else Int s.parent);
                ("layer", String s.layer);
                ("name", String s.name);
                ("start_s", Float (s.start_s -. t0));
                ("end_s", Float (s.stop_s -. t0));
                ("self_s", Float self.(i));
              ]));
      output_char oc '\n')
    spans
