(** The traced mode's engine: the work of a workload re-done one layer
    call at a time, each call wrapped in a span from this file, with the
    benchmark's own count of every call so the program's counters can
    be checked against it. *)

module D = Ml_model.Dataset

type t = {
  store : Store.t;
  ram : (string, Sim.Xtrem.run) Hashtbl.t;
      (** The in-memory tier the dataset's profile cache keeps in front
          of the store, keyed like it by program and canonical setting. *)
  record_bytes : (string, int) Hashtbl.t;  (** Store key -> record size. *)
  mutable records : int;  (** [Sim.Xtrem.profile_of] calls. *)
  mutable dyn_insts : int;  (** Summed over this file's untraced runs. *)
  mutable mem_accesses : int;
  mutable static_insts : int;
  mutable reuse_accesses : int;
  mutable evals : int;  (** [Sim.Xtrem.time] calls. *)
  mutable finds : int;
  mutable hits : int;
  mutable puts : int;
  mutable bytes_read : int;
  mutable fits : int;
  mutable points : int;
  mutable predictions : int;
  mutable hist_mismatches : int;
      (** Runs whose histograms, computed here from the raw traces,
          differ from the profile the program recorded. *)
  mutable record_s : float;  (** Seconds inside [Sim.Xtrem.profile_of]. *)
  mutable fit_s : float;  (** Seconds inside {!fit}: whole-model fits only. *)
  mutable per_program : (string * float * int) list;
      (** Per program, in suite order: seconds its profiles cost, less
          the recording, and how many were computed cold. *)
}

let create store =
  {
    store;
    ram = Hashtbl.create 1024;
    record_bytes = Hashtbl.create 1024;
    records = 0;
    dyn_insts = 0;
    mem_accesses = 0;
    static_insts = 0;
    reuse_accesses = 0;
    evals = 0;
    finds = 0;
    hits = 0;
    puts = 0;
    bytes_read = 0;
    fits = 0;
    points = 0;
    predictions = 0;
    hist_mismatches = 0;
    record_s = 0.0;
    fit_s = 0.0;
    per_program = [];
  }

(** The counts as they stand, to split a replay into phases with {!since}. *)
let copy t = { t with records = t.records }

(** The counts [t] made after [base] was copied from it.  [points] stays
    the size of the last model fitted; the per-program list is dropped. *)
let since base t =
  {
    t with
    records = t.records - base.records;
    dyn_insts = t.dyn_insts - base.dyn_insts;
    mem_accesses = t.mem_accesses - base.mem_accesses;
    static_insts = t.static_insts - base.static_insts;
    reuse_accesses = t.reuse_accesses - base.reuse_accesses;
    evals = t.evals - base.evals;
    finds = t.finds - base.finds;
    hits = t.hits - base.hits;
    puts = t.puts - base.puts;
    bytes_read = t.bytes_read - base.bytes_read;
    fits = t.fits - base.fits;
    predictions = t.predictions - base.predictions;
    hist_mismatches = t.hist_mismatches - base.hist_mismatches;
    record_s = t.record_s -. base.record_s;
    fit_s = t.fit_s -. base.fit_s;
    per_program = [];
  }

(** Sizes of the records already in the store, by key, read once before
    a warm pass so bytes read can be counted per find. *)
let index_records t =
  let rec walk dir =
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix e ".rec" then
          Hashtbl.replace t.record_bytes (Filename.chop_suffix e ".rec")
            (Unix.stat p).Unix.st_size)
      (Sys.readdir dir)
  in
  let objects = Filename.concat (Store.dir t.store) "objects" in
  if Sys.file_exists objects then walk objects

let histograms ~daddrs ~iblocks8 t =
  let hist blocks =
    t.reuse_accesses <- t.reuse_accesses + Array.length blocks;
    Prelude.Reuse.histogram_of_blocks blocks
  in
  let shift = Oracle.log2 in
  let d =
    Array.map
      (fun bs ->
        let s = shift bs in
        (bs, hist (Ir.Profile.collapse (Array.map (fun a -> a asr s) daddrs))))
      Ir.Profile.block_sizes
  in
  let i =
    Array.map
      (fun bs ->
        let s = shift bs - 3 in
        let blocks =
          if s = 0 then iblocks8
          else Ir.Profile.collapse (Array.map (fun b -> b asr s) iblocks8)
        in
        (bs, hist blocks))
      Ir.Profile.block_sizes
  in
  (d, i)

(** A profile computed cold, layer by layer, then recorded through the
    program's own [Sim.Xtrem.profile_of] (not a layer span: it repeats
    the work above, and its [interp] event is what the layers are
    compared against). *)
let compute t ~program setting =
  let compiled = Spans.layer "passes" (fun () -> Passes.Driver.compile ~setting program) in
  t.static_insts <- t.static_insts + Ir.Types.program_size compiled;
  let image = Spans.layer "ir.layout" (fun () -> Ir.Layout.place compiled) in
  let _, p = Spans.layer "ir.interp" (fun () -> Ir.Interp.run ~trace:false image) in
  t.dyn_insts <- t.dyn_insts + p.Ir.Profile.dyn_insts;
  t.mem_accesses <- t.mem_accesses + Ir.Profile.mem_accesses p;
  let _, daddrs, iblocks8 =
    Spans.layer "ir.traces" (fun () -> Ir.Interp.run_traces compiled)
  in
  let d, i = Spans.layer "prelude.reuse" (fun () -> histograms ~daddrs ~iblocks8 t) in
  let run, secs = Common.time (fun () -> Spans.group "record" (fun () -> Sim.Xtrem.profile_of ~setting program)) in
  t.records <- t.records + 1;
  t.record_s <- t.record_s +. secs;
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun (x, h) (y, h') -> x = y && Oracle.same_histogram h h') a b
  in
  if not (same d run.Sim.Xtrem.profile.Ir.Profile.d_hists
          && same i run.Sim.Xtrem.profile.Ir.Profile.i_hists)
  then t.hist_mismatches <- t.hist_mismatches + 1;
  run

(** Resolve a profile the way the dataset's cache does: memory, then
    the store, then a cold computation written back. *)
let resolve t ~program ~program_digest setting =
  let ram_key = program_digest ^ "|" ^ Passes.Flags.cache_key setting in
  match Hashtbl.find_opt t.ram ram_key with
  | Some r -> { r with Sim.Xtrem.setting }
  | None ->
    Spans.group "profile" (fun () ->
        let key = Store.profile_key ~program_digest ~setting in
        t.finds <- t.finds + 1;
        let run =
          match Spans.layer "store.find" (fun () -> Store.find_run t.store ~key) with
          | Some r ->
            t.hits <- t.hits + 1;
            t.bytes_read <-
              t.bytes_read + Option.value ~default:0 (Hashtbl.find_opt t.record_bytes key);
            r
          | None ->
            let r = compute t ~program setting in
            Spans.layer "store.put" (fun () -> Store.put_run t.store ~key r);
            t.puts <- t.puts + 1;
            r
        in
        Hashtbl.replace t.ram ram_key run;
        { run with Sim.Xtrem.setting })

let price t run u =
  t.evals <- t.evals + 1;
  Spans.layer "sim" (fun () -> Sim.Xtrem.time run u)

type profiles = {
  programs : Ir.Types.program array;
  digests : string array;
  o3 : Sim.Xtrem.run array;
  runs : Sim.Xtrem.run array array;
}

(** The profiling half of [Dataset.generate]. *)
let profiles t ~settings =
  let programs = Array.map Workloads.Mibench.program_of Workloads.Mibench.all in
  let digests = Array.map Store.program_digest programs in
  let resolved =
    Array.mapi
      (fun p program ->
        let name = Workloads.Mibench.all.(p).Workloads.Spec.name in
        let resolve = resolve t ~program ~program_digest:digests.(p) in
        let cold = t.records and recorded = t.record_s and t0 = Common.now () in
        let r = Spans.group name (fun () -> (resolve Passes.Flags.o3, Array.map resolve settings)) in
        let secs = Common.now () -. t0 -. (t.record_s -. recorded) in
        t.per_program <- t.per_program @ [ (name, secs, t.records - cold) ];
        r)
      programs
  in
  { programs; digests; o3 = Array.map fst resolved; runs = Array.map snd resolved }

type pair = {
  features : float array;
  best_seconds : float;
  distribution : Ml_model.Distribution.t;
}

(** The pricing half of [Dataset.generate], for the default objective. *)
let pairs t (scale : D.scale) ~uarchs ~settings pr =
  let n_u = Array.length uarchs in
  Array.init
    (Array.length pr.programs * n_u)
    (fun idx ->
      let p = idx / n_u and u = uarchs.(idx mod n_u) in
      let v = price t pr.o3.(p) u in
      let times = Array.map (fun r -> (price t r u).Sim.Pipeline.seconds) pr.runs.(p) in
      let features = Ml_model.Features.raw scale.D.space v.Sim.Pipeline.counters u in
      let distribution =
        Spans.layer "ml_model.fit" (fun () ->
            let good = D.good_set ~good_fraction:scale.D.good_fraction times in
            Ml_model.Distribution.fit (Array.map (fun i -> settings.(i)) good))
      in
      {
        features;
        best_seconds = Array.fold_left Float.min infinity times;
        distribution;
      })

(** A model over the pairs [keep] selects — selection included, as in
    [Model.train ~include_pair]. *)
let fit t pairs keep =
  t.fits <- t.fits + 1;
  let model, secs =
    Common.time (fun () ->
        Spans.layer "ml_model.fit" (fun () ->
            let rows = List.filter keep (List.init (Array.length pairs) Fun.id) |> Array.of_list in
            t.points <- Array.length rows;
            Ml_model.Model.of_parts
              ~features_raw:(Array.map (fun i -> pairs.(i).features) rows)
              ~distributions:(Array.map (fun i -> pairs.(i).distribution) rows)
              ()))
  in
  t.fit_s <- t.fit_s +. secs;
  model

let predict t model x =
  t.predictions <- t.predictions + 1;
  Spans.layer "ml_model.predict" (fun () -> Ml_model.Model.predict_full model x)

(** Leave-one-out cross-validation, fold by fold: fit without the test
    program and configuration, predict, resolve the predicted setting's
    profile, price it. *)
let folds t ~uarchs pr pairs =
  let n_u = Array.length uarchs in
  Array.mapi
    (fun idx _ ->
      Spans.group "fold" (fun () ->
          let prog = idx / n_u and uarch = idx mod n_u in
          let model =
            fit t pairs (fun i -> i / n_u <> prog && i mod n_u <> uarch)
          in
          let predicted = (predict t model pairs.(idx).features).Ml_model.Predict.setting in
          let run =
            resolve t ~program:pr.programs.(prog) ~program_digest:pr.digests.(prog)
              predicted
          in
          (predicted, (price t run uarchs.(uarch)).Sim.Pipeline.seconds)))
    pairs

(** The [interp] events the program emitted while the trace sink was
    open: their count and summed duration. *)
let interp_events path =
  match Obs.Trace.read_file path with
  | Error e -> failwith e
  | Ok events ->
    List.fold_left
      (fun (n, s) ev ->
        match (Obs.Json.member "ev" ev, Obs.Json.member "name" ev) with
        | Some (Obs.Json.Str "event"), Some (Obs.Json.Str "interp") ->
          let d =
            Option.bind (Obs.Json.member "dur_s" ev) Obs.Json.to_float
            |> Option.value ~default:0.0
          in
          (n + 1, s +. d)
        | _ -> (n, s))
      (0, 0.0) events
