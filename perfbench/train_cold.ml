(** [train-cold]: the work of [portopt train --store] on an empty store —
    generate the dataset (compile, interpret and analyse every sampled
    binary, then price every pair), fit the model, save the artifact. *)

open Common
module D = Ml_model.Dataset

let uarchs = 8
let opts = 12
let profiles_per_train = Inputs.n_programs * (1 + opts)

(** Set-up: build every program from its generator and digest it — the
    inputs a cold train starts from — and run it unoptimised, for the
    result every sampled binary is checked against.  This also fills the
    builders' memo, so the first timed round pays no lazy initialisation. *)
let setup () =
  Array.map
    (fun spec ->
      ignore (Store.program_digest (spec.Workloads.Spec.build ()));
      let reference, _ =
        Ir.Interp.run_program ~trace:false (Workloads.Mibench.program_of spec)
      in
      (spec.Workloads.Spec.name, reference))
    Workloads.Mibench.all

(** The references and the median time of 15 set-ups.  One set-up lasts
    about 0.1 s, and on a shared machine the speed of such a span moves
    by a third from one second to the next: the median is taken over
    the 2 s the fifteen last. *)
let setup_s () =
  let runs = Array.init 15 (fun _ -> time setup) in
  settle ();
  (fst runs.(0), median (Array.map snd runs))

let train_once scale =
  let dir = fresh_dir "train" in
  let path = Filename.concat dir "model.pcm" in
  let (d, model), secs =
    time (fun () -> Inputs.train ~store_dir:(Filename.concat dir "store") ~path scale)
  in
  (dir, path, d, model, secs)

(* ---- checks, made apart from the measured code ------------------------- *)

(** Every sampled binary computes what the unoptimised program computes. *)
let check_checksums ~references (d : D.t) =
  Array.iteri
    (fun p spec ->
      let reference = List.assoc spec.Workloads.Spec.name (Array.to_list references) in
      let runs = Array.append [| d.D.o3_runs.(p) |] d.D.runs.(p) in
      let bad = Array.exists (fun r -> r.Sim.Xtrem.checksum <> reference) runs in
      check ("checksum " ^ spec.Workloads.Spec.name) (not bad)
        (lazy (Printf.sprintf "a binary disagrees with the unoptimised result %d" reference)))
    d.D.specs

(** On a seeded sample of runs, the recorded reuse histograms equal a
    move-to-front stack-distance computation over the raw traces. *)
let check_reuse ~seed (d : D.t) =
  let rng = Prelude.Rng.create (seed + 17) in
  for _ = 1 to 2 do
    let p = Prelude.Rng.int rng (Array.length d.D.specs) in
    let s = Prelude.Rng.int rng (Array.length d.D.settings) in
    let run = d.D.runs.(p).(s) in
    let compiled =
      Passes.Driver.compile ~setting:d.D.settings.(s)
        (Workloads.Mibench.program_of d.D.specs.(p))
    in
    let _, daddrs, iblocks8 = Ir.Interp.run_traces compiled in
    let data, inst = Oracle.block_streams ~daddrs ~iblocks8 in
    let agree streams recorded =
      Array.for_all2
        (fun (bs, blocks) (bs', h) -> bs = bs' && Oracle.same_histogram (Oracle.stack_histogram blocks) h)
        streams recorded
    in
    let prof = run.Sim.Xtrem.profile in
    check
      (Printf.sprintf "reuse histograms %s/%d" d.D.specs.(p).Workloads.Spec.name s)
      (agree data prof.Ir.Profile.d_hists && agree inst prof.Ir.Profile.i_hists)
      (lazy "a histogram differs from the stack-distance reference")
  done

(** The saved artifact loads back and predicts what the in-memory model
    predicts, for every training pair. *)
let check_artifact ~path (d : D.t) model =
  let loaded = Inputs.load path in
  let bad =
    Array.fold_left
      (fun acc (pr : D.pair) ->
        let x = pr.D.features_raw in
        if (Ml_model.Model.predict_full loaded.Serve.Artifact.model x).Ml_model.Predict.setting
           = Ml_model.Model.predict model x
        then acc
        else acc + 1)
      0 d.D.pairs
  in
  check "artifact predicts like the model" (bad = 0)
    (lazy (Printf.sprintf "%d of %d pairs differ" bad (Array.length d.D.pairs)))

(* ---- untraced ------------------------------------------------------------ *)

let run ~seed ~seconds ~ops =
  let scale = Inputs.scale ~uarchs ~opts seed in
  let references, setup_s = setup_s () in
  let rounds =
    Inputs.rounds ~seconds (fun _ ->
        Ops.attempt ops "train";
        Ops.attempt ~n:profiles_per_train ops "profile";
        match train_once scale with
        | r -> Some r
        | exception e ->
          Ops.fail ops "train";
          Ops.fail ~n:profiles_per_train ops "profile";
          Printf.printf "train failed: %s\n" (Printexc.to_string e);
          None)
  in
  let ok = List.filter_map Fun.id rounds in
  let times = Array.of_list (List.map (fun (_, _, _, _, s) -> s) ok) in
  (match List.rev ok with
  | (_, path, d, model, _) :: _ ->
    check_checksums ~references d;
    check_reuse ~seed d;
    check_artifact ~path d model;
    Printf.printf "artifact_bytes %d\n" (Unix.stat path).Unix.st_size
  | [] -> check "a train completed" false (lazy "every round failed"));
  List.iter (fun (dir, _, _, _, _) -> rm_rf dir) ok;
  let train_s = median times in
  Printf.printf "train_s %.4f over %d rounds; %.2f ms per profile\n" train_s
    (Array.length times)
    (1e3 *. train_s /. float_of_int profiles_per_train);
  [
    m "setup_s" "s" setup_s;
    m "op_ms" "ms" (1e3 *. train_s);
    m "tail_ms" "ms" (1e3 *. train_s);
    m "work_per_s" "1/s" (float_of_int profiles_per_train /. train_s);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* ---- traced -------------------------------------------------------------- *)

let traced ~seed ~ops =
  let scale = Inputs.scale ~uarchs ~opts seed in
  ignore (setup ());
  let (dir, _, d, model, wall), minor_mwords, major_collections =
    Layers.gc_around (fun () -> train_once scale)
  in
  Ops.attempt ops "train";
  Ops.attempt ~n:profiles_per_train ops "profile";
  let out = fresh_dir "train-traced" in
  let sink = Filename.concat out "program-trace.jsonl" in
  Obs.Trace.start sink;
  let store = Store.open_ ~dir:(Filename.concat out "store") in
  let r = Replay.create store in
  let before = counters () in
  let snap = Spans.snapshot () in
  let t0 = now () in
  let pr = Replay.profiles r ~settings:d.D.settings in
  let pairs = Replay.pairs r scale ~uarchs:d.D.uarchs ~settings:d.D.settings pr in
  let replayed = Replay.fit r pairs (fun _ -> true) in
  let art = Inputs.artifact ~store d replayed in
  let rpath = Filename.concat out "model.pcm" in
  Spans.layer "serve.artifact.save" (fun () -> Serve.Artifact.save ~path:rpath art);
  (* The replay's own wall time, less the recording through the
     program's [profile_of], which repeats the layers' work unspanned. *)
  let replay_s = now () -. t0 -. r.record_s in
  let after = counters () in
  Obs.Trace.stop ();
  let unexplained =
    Layers.unexplained ~snap ~wall:replay_s
      [
        "passes"; "ir.layout"; "ir.interp"; "ir.trace"; "prelude.reuse"; "store.find";
        "store.put"; "sim"; "ml_model.fit"; "serve.artifact.save";
      ]
  in
  (* Not part of [portopt train], so not spanned: the replayed model,
     saved and loaded back, predicts like the program's. *)
  let loaded = Inputs.load rpath in
  let differ =
    Array.fold_left
      (fun acc (p : D.pair) ->
        let got = (Ml_model.Model.predict_full loaded.Serve.Artifact.model p.D.features_raw).Ml_model.Predict.setting in
        if got = Ml_model.Model.predict model p.D.features_raw then acc else acc + 1)
      0 d.D.pairs
  in
  Layers.cross_check ~before ~after (Layers.replay_counts r);
  check "replayed model predicts like the program's" (differ = 0)
    (lazy (Printf.sprintf "%d pairs differ" differ));
  check "replayed histograms equal the recorded ones" (r.hist_mismatches = 0)
    (lazy (Printf.sprintf "%d runs differ" r.hist_mismatches));
  List.iter
    (fun (name, secs, n) ->
      Printf.printf "profile cost %-12s %8.2f ms per profile over %d profiles\n"
        name (1e3 *. secs /. float_of_int (max 1 n)) n)
    r.per_program;
  let interp = Layers.interp_split ~snap ~events:(Replay.interp_events sink) in
  Sys.remove sink;
  let bytes_written = (Store.stats store).Store.bytes in
  Spans.write (Filename.concat out "spans.jsonl");
  Printf.printf "spans written to %s\n" (Filename.concat out "spans.jsonl");
  List.iter rm_rf [ dir; Filename.concat out "store"; rpath ];
  Printf.printf "trace: untraced train %.4f s, replay %.4f s less recording\n" wall replay_s;
  Layers.common ~snap r ~bytes_written ~minor_mwords ~major_collections ~unexplained
  @ interp
  @ [ m "serve.artifact.save_s" "s" (Layers.seconds ~snap "serve.artifact.save") ]
