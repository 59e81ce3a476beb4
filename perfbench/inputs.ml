(** Inputs every workload derives from [--seed], and the shared steps
    that turn them into a trained artifact. *)

module D = Ml_model.Dataset
module J = Obs.Json

(** Training and cross-validation run on one domain: the figures then
    do not depend on what else the machine is doing with its other
    cores, and they match [REPRO_JOBS=1]. *)
let pool = lazy (Prelude.Pool.create ~jobs:1)

(** The sample a dataset is generated from: all 35 programs, [uarchs]
    configurations and [opts] optimisation settings drawn from the
    seed. *)
let scale ~uarchs ~opts seed =
  {
    D.n_uarchs = uarchs;
    n_opts = opts;
    seed = seed + 1;
    space = Ml_model.Features.Base;
    good_fraction = 0.05;
  }

let generate ~store scale = D.generate ~store ~pool:(Lazy.force pool) scale

let crossval dataset = Ml_model.Crossval.run ~pool:(Lazy.force pool) dataset

(** The artifact [portopt train --store] writes, minus its wall-clock
    creation time. *)
let artifact ~store (d : D.t) model =
  let programs_digest, settings_digest, uarchs_digest = D.provenance_digests d in
  {
    Serve.Artifact.model;
    space = d.D.scale.D.space;
    meta =
      [
        ("seed", J.Int d.D.scale.D.seed);
        ("n_uarchs", J.Int d.D.scale.D.n_uarchs);
        ("n_opts", J.Int d.D.scale.D.n_opts);
        ("programs", J.Int (Array.length d.D.specs));
      ]
      @ Serve.Artifact.provenance ~store_dir:(Store.dir store) ~programs_digest
          ~settings_digest ~uarchs_digest ();
  }

(** One cold or warm [portopt train --store]: generate, fit, save. *)
let train ~store_dir ~path scale =
  let store = Store.open_ ~dir:store_dir in
  let d = generate ~store scale in
  let model = Ml_model.Model.train d in
  Serve.Artifact.save ~path (artifact ~store d model);
  (d, model)

let load path =
  match Serve.Artifact.load ~path with Ok a -> a | Error e -> failwith e

(** Whole rounds of [f] until [seconds] have passed, at least one. *)
let rounds ~seconds f =
  let t0 = Common.now () in
  let rec go k acc =
    let acc = f k :: acc in
    if Common.now () -. t0 >= seconds then List.rev acc else go (k + 1) acc
  in
  go 0 []

let n_programs = Array.length Workloads.Mibench.all
