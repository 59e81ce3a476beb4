(** Per-layer figures of a traced run, from the spans and the replay's
    own counts, plus the cross-check of the program's counters against
    those counts. *)

open Common

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(** The layer time of [snap]-relative spans, with the trace overhead
    taken as the traced run ([Ir.Interp.run_traces], which places the
    image again) minus placement and the untraced run. *)
let seconds ?(snap = []) layer =
  let s l = fst (Spans.since snap l) in
  match layer with
  | "ir.trace" -> s "ir.traces" -. s "ir.layout" -. s "ir.interp"
  | l -> s l

(** Seconds of the layers that make up one workload operation. *)
let explained ~snap layers =
  List.fold_left (fun acc l -> acc +. seconds ~snap l) 0.0 layers

let gc_around f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6,
    g1.Gc.major_collections - g0.Gc.major_collections )

(** The per-layer metrics every workload's traced run prints, over the
    phase that began at [snap]; [r] holds the replay's counts over that
    phase ({!Replay.since}).  A layer the phase never calls reads 0. *)
let common ~snap (r : Replay.t) ~bytes_written ~minor_mwords ~major_collections ~unexplained =
  let s l = seconds ~snap l in
  let n l = fi (snd (Spans.since snap l)) in
  [
    m "passes.compile_s" "s" (s "passes");
    m "passes.compiles" "count" (n "passes");
    m "passes.static_insts" "count" (fi r.static_insts);
    m "ir.layout_s" "s" (s "ir.layout");
    m "ir.interp_s" "s" (s "ir.interp");
    m "ir.trace_s" "s" (s "ir.trace");
    m "ir.dyn_insts" "count" (fi r.dyn_insts);
    m "ir.ns_per_inst" "ns" (1e9 *. ratio (s "ir.interp") (fi r.dyn_insts));
    m "prelude.reuse_s" "s" (s "prelude.reuse");
    m "prelude.reuse_accesses" "count" (fi r.reuse_accesses);
    m "prelude.reuse_ns_per_access" "ns"
      (1e9 *. ratio (s "prelude.reuse") (fi r.reuse_accesses));
    m "sim.price_s" "s" (s "sim");
    m "sim.evals" "count" (fi r.evals);
    m "sim.ns_per_eval" "ns" (1e9 *. ratio (s "sim") (fi r.evals));
    m "store.find_s" "s" (s "store.find");
    m "store.finds" "count" (fi r.finds);
    m "store.hit_ratio" "ratio" (ratio (fi r.hits) (fi r.finds));
    m "store.bytes_read" "bytes" (fi r.bytes_read);
    m "store.put_s" "s" (s "store.put");
    m "store.puts" "count" (fi r.puts);
    m "store.bytes_written" "bytes" (fi bytes_written);
    m "ml_model.train_s" "s" (s "ml_model.fit");
    m "ml_model.fits" "count" (fi r.fits);
    m "ml_model.points" "count" (fi r.points);
    m "ml_model.predict_us" "us" (1e6 *. ratio (s "ml_model.predict") (n "ml_model.predict"));
    m "ml_model.predictions" "count" (fi r.predictions);
    m "gc.minor_mwords" "Mwords" minor_mwords;
    m "gc.major_collections" "count" (fi major_collections);
    m "trace.unexplained_share" "ratio" unexplained;
  ]

(** 1 - (layer seconds) / (wall seconds) of one replayed phase: both
    come from the same execution, so the share does not move with the
    machine's speed between two runs. *)
let unexplained ~snap ~wall layers = 1.0 -. ratio (explained ~snap layers) wall

(** The program's [interp] events over the phase that began at [snap]
    (each times a traced run plus its reuse analysis), beside the layers
    this benchmark splits them into. *)
let interp_split ~snap ~events:(n_events, event_s) =
  Printf.printf
    "interp event: %d events, %.4f s; ir.interp + ir.trace + prelude.reuse = %.4f s\n"
    n_events event_s
    (seconds ~snap "ir.interp" +. seconds ~snap "ir.trace" +. seconds ~snap "prelude.reuse");
  [ m "trace.interp_event_s" "s" event_s ]

(** The program's counters must equal this benchmark's counts of the
    same calls. *)
let cross_check ~before ~after pairs =
  List.iter
    (fun (name, expected) ->
      let got = delta before after name in
      check ("telemetry " ^ name) (got = expected)
        (lazy (Printf.sprintf "program counted %d, benchmark counted %d" got expected)))
    pairs

let replay_counts (r : Replay.t) =
  [
    ("interp.runs", r.records);
    ("interp.dyn_insts", r.dyn_insts);
    ("interp.mem_accesses", r.mem_accesses);
    ("sim.evals", r.evals);
    ("store.writes", r.puts);
    ("store.hits", r.hits);
    ("store.misses", r.finds - r.hits);
  ]
