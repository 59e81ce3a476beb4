(** In-memory layer spans, recorded by the benchmark around each call it
    makes into a layer: name, layer, start, end and the span that caused
    it.  Kept in memory while the workload runs and written out as JSON
    lines at the end.  Layer spans are leaves, so a layer's self time is
    the sum of its spans' durations. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root. *)
  layer : string;  (** [""] for a grouping span that is not a layer. *)
  name : string;
  t0 : float;
  t1 : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let parent = ref 0
let totals : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 32

let record ~layer ~name ~id ~parent t0 t1 =
  recorded := { id; parent; layer; name; t0; t1 } :: !recorded;
  if layer <> "" then begin
    let s, n =
      match Hashtbl.find_opt totals layer with
      | Some v -> v
      | None ->
        let v = (ref 0.0, ref 0) in
        Hashtbl.add totals layer v;
        v
    in
    s := !s +. (t1 -. t0);
    incr n
  end

let run ~layer ~name f =
  incr next_id;
  let id = !next_id and up = !parent in
  parent := id;
  let t0 = Common.now () in
  let finish () =
    record ~layer ~name ~id ~parent:up t0 (Common.now ());
    parent := up
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(** A span around one call into [layer]. *)
let layer layer f = run ~layer ~name:layer f

(** A grouping span (one profile, one fold, one request) whose layer
    calls hang under it. *)
let group name f = run ~layer:"" ~name f

let seconds layer =
  match Hashtbl.find_opt totals layer with Some (s, _) -> !s | None -> 0.0

let calls layer =
  match Hashtbl.find_opt totals layer with Some (_, n) -> !n | None -> 0

(** Snapshot of the per-layer totals, to split a run into phases. *)
let snapshot () =
  Hashtbl.fold (fun k (s, n) acc -> (k, (!s, !n)) :: acc) totals []

let since snap layer =
  let s0, n0 =
    Option.value (List.assoc_opt layer snap) ~default:(0.0, 0)
  in
  (seconds layer -. s0, calls layer - n0)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Int s.id);
                ("parent", Obs.Json.Int s.parent);
                ("layer", Obs.Json.Str s.layer);
                ("name", Obs.Json.Str s.name);
                ("start", Obs.Json.Float s.t0);
                ("end", Obs.Json.Float s.t1);
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
