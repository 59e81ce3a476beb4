(** [crossval-warm]: [portopt crossval --store] against a store a cold
    cross-validation has already filled.  The timed work regenerates the
    dataset from store reads alone and runs every leave-one-out fold:
    store reads, pricing and per-fold fit and predict, and no
    interpreter run. *)

open Common
module D = Ml_model.Dataset
module C = Ml_model.Crossval

let uarchs = 16
let opts = 8
let folds = Inputs.n_programs * uarchs
let profiles = Inputs.n_programs * (1 + opts)

let runs_counter = Obs.Metrics.counter "interp.runs"

(** One [portopt crossval --store]: cold on an empty store, warm after. *)
let crossval_once ~store scale =
  time (fun () ->
      let d = Inputs.generate ~store scale in
      (d, Inputs.crossval d))

(** Set-up: a cold cross-validation into an empty store. *)
let setup scale =
  let dir = fresh_dir "crossval" in
  let store = Store.open_ ~dir:(Filename.concat dir "store") in
  let (cold, outcomes), secs = crossval_once ~store scale in
  settle ();
  (dir, store, cold, outcomes, secs)

let speedup outcomes = mean (Array.map C.speedup outcomes)

(** For a seeded sample of pairs, the predicted setting's time and the
    best sampled time equal a store-free profile of each setting, priced
    directly on the pair's configuration. *)
let check_sample ~seed (d : D.t) (outcomes : C.outcome array) =
  let rng = Prelude.Rng.create (seed + 29) in
  for _ = 1 to 3 do
    let o = outcomes.(Prelude.Rng.int rng (Array.length outcomes)) in
    let program = Workloads.Mibench.program_of d.D.specs.(o.C.prog) in
    let u = d.D.uarchs.(o.C.uarch) in
    let seconds setting = Sim.Xtrem.seconds (Sim.Xtrem.profile_of ~setting program) u in
    let name = Printf.sprintf "%s/%d" d.D.specs.(o.C.prog).Workloads.Spec.name o.C.uarch in
    let predicted = seconds o.C.predicted in
    check ("predicted_seconds " ^ name) (predicted = o.C.predicted_seconds)
      (lazy (Printf.sprintf "store-free %.17g, crossval %.17g" predicted o.C.predicted_seconds));
    let best = Array.fold_left (fun acc s -> Float.min acc (seconds s)) infinity d.D.settings in
    check ("best_seconds " ^ name) (best = o.C.best_seconds)
      (lazy (Printf.sprintf "re-priced %.17g, crossval %.17g" best o.C.best_seconds))
  done

let attempt ops =
  Ops.attempt ops "crossval";
  Ops.attempt ~n:folds ops "fold";
  Ops.attempt ~n:profiles ops "profile"

let fail ops =
  Ops.fail ops "crossval";
  Ops.fail ~n:folds ops "fold";
  Ops.fail ~n:profiles ops "profile"

(* ---- untraced ------------------------------------------------------------ *)

let run ~seed ~seconds ~ops =
  let scale = Inputs.scale ~uarchs ~opts seed in
  let dir, store, _, cold, setup_s = setup scale in
  let runs0 = Obs.Metrics.value runs_counter in
  let rounds =
    Inputs.rounds ~seconds (fun _ ->
        (* Each round starts from a compacted heap, so what the collector
           does in a round does not depend on what earlier rounds left. *)
        settle ();
        attempt ops;
        match crossval_once ~store scale with
        | r -> Some r
        | exception e ->
          fail ops;
          Printf.printf "crossval failed: %s\n" (Printexc.to_string e);
          None)
  in
  let interp_runs = Obs.Metrics.value runs_counter - runs0 in
  let ok = List.filter_map Fun.id rounds in
  check "timed phase made no interpreter run" (interp_runs = 0)
    (lazy (Printf.sprintf "%d interpreter runs" interp_runs));
  check "warm outcomes equal the cold ones"
    (ok <> [] && List.for_all (fun ((_, o), _) -> o = cold) ok)
    (lazy "a warm round disagrees with the cold pass");
  (match ok with
  | ((d, outcomes), _) :: _ -> check_sample ~seed d outcomes
  | [] -> ());
  rm_rf dir;
  let times = Array.of_list (List.map snd ok) in
  let crossval_s = median times in
  Printf.printf
    "crossval_s %.4f over %d rounds (%.4f to %.4f); crossval_speedup %.6f; fraction of best %.4f\n"
    crossval_s (Array.length times) (sorted times).(0) (sorted times).(Array.length times - 1)
    (speedup cold) (C.fraction_of_best cold);
  [
    m "setup_s" "s" setup_s;
    m "op_ms" "ms" (1e3 *. crossval_s);
    m "tail_ms" "ms" (1e3 *. crossval_s);
    m "work_per_s" "1/s" (float_of_int folds /. crossval_s);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* ---- traced -------------------------------------------------------------- *)

let replay_pass r scale (d : D.t) =
  let pr = Replay.profiles r ~settings:d.D.settings in
  let pairs = Replay.pairs r scale ~uarchs:d.D.uarchs ~settings:d.D.settings pr in
  (pairs, Replay.folds r ~uarchs:d.D.uarchs pr pairs)

let traced ~seed ~ops =
  let scale = Inputs.scale ~uarchs ~opts seed in
  let dir, store, _, cold, _ = setup scale in
  let ((d, _), wall), minor_mwords, major_collections =
    Layers.gc_around (fun () -> crossval_once ~store scale)
  in
  attempt ops;
  rm_rf dir;
  let out = fresh_dir "crossval-traced" in
  let rstore = Store.open_ ~dir:(Filename.concat out "store") in
  (* The set-up's cold pass, then the timed warm pass with an empty
     memory tier over the filled store.  The result line covers the warm
     pass alone. *)
  let r = Replay.create rstore in
  let c0 = counters () in
  let _ = replay_pass r scale d in
  let c1 = counters () and cold_counts = Layers.replay_counts r in
  let cold_mismatches = r.hist_mismatches in
  Hashtbl.reset r.Replay.ram;
  Replay.index_records r;
  let bytes0 = (Store.stats rstore).Store.bytes in
  let sink = Filename.concat out "program-trace.jsonl" in
  Obs.Trace.start sink;
  let base = Replay.copy r and snap = Spans.snapshot () in
  let (pairs, folds_out), replay_s = time (fun () -> replay_pass r scale d) in
  let c2 = counters () in
  Obs.Trace.stop ();
  let warm = Replay.since base r in
  let unexplained =
    Layers.unexplained ~snap ~wall:replay_s
      [ "store.find"; "sim"; "ml_model.fit"; "ml_model.predict" ]
  in
  Layers.cross_check ~before:c0 ~after:c1 cold_counts;
  Layers.cross_check ~before:c1 ~after:c2 (Layers.replay_counts warm);
  let agree =
    Array.for_all2
      (fun (setting, secs) (o : C.outcome) ->
        setting = o.C.predicted && secs = o.C.predicted_seconds)
      folds_out cold
    && Array.for_all2
         (fun (p : Replay.pair) (o : C.outcome) -> p.Replay.best_seconds = o.C.best_seconds)
         pairs cold
  in
  check "replayed folds equal the cold outcomes" agree (lazy "a fold differs");
  check "replayed histograms equal the recorded ones" (cold_mismatches = 0)
    (lazy (Printf.sprintf "%d runs differ" cold_mismatches));
  check "warm pass made no interpreter run" (warm.records = 0)
    (lazy (Printf.sprintf "%d profiles computed" warm.records));
  let interp = Layers.interp_split ~snap ~events:(Replay.interp_events sink) in
  Sys.remove sink;
  let bytes_written = (Store.stats rstore).Store.bytes - bytes0 in
  Spans.write (Filename.concat out "spans.jsonl");
  Printf.printf "spans written to %s\n" (Filename.concat out "spans.jsonl");
  rm_rf (Filename.concat out "store");
  Printf.printf "trace: untraced warm cross-validation %.4f s, replay %.4f s\n" wall replay_s;
  Layers.common ~snap warm ~bytes_written ~minor_mwords ~major_collections ~unexplained
  @ interp
  @ [
      m "ml_model.fold_ms" "ms" (1e3 *. Layers.ratio warm.fit_s (float_of_int warm.fits));
    ]
