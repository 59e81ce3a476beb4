(** The system benchmark.

    {v
    bench --workload train-cold|crossval-warm|serve --seed N --seconds S --trace 0|1
    bench --steady RUNS --workload W --seed N --seconds S
    v}

    One run prints what it checked, its operation counts and every
    figure it took, one per line, then as its last line a JSON object
    with [correct], [attempted], [failed] and [metrics]: the end-to-end
    metrics with [--trace 0], the per-layer metrics of the traced replay
    with [--trace 1].  [--steady] runs a workload [RUNS] times on seeds
    [N], [N+1], ... in child processes and prints, for every end-to-end
    metric, the median, the quartiles and their spread beside the bound
    in [BENCHMARK.json]. *)

open Common

let end_to_end = [ "setup_s"; "op_ms"; "tail_ms"; "work_per_s" ]

(** Every per-layer metric with its unit.  A traced run prints each; a
    layer its workload's timed operation never calls reads 0. *)
let per_layer =
  [
    ("passes.compile_s", "s"); ("passes.compiles", "count"); ("passes.static_insts", "count");
    ("ir.layout_s", "s"); ("ir.interp_s", "s"); ("ir.trace_s", "s"); ("ir.dyn_insts", "count");
    ("ir.ns_per_inst", "ns"); ("prelude.reuse_s", "s"); ("prelude.reuse_accesses", "count");
    ("prelude.reuse_ns_per_access", "ns"); ("sim.price_s", "s"); ("sim.evals", "count");
    ("sim.ns_per_eval", "ns"); ("store.find_s", "s"); ("store.finds", "count");
    ("store.hit_ratio", "ratio"); ("store.bytes_read", "bytes"); ("store.put_s", "s");
    ("store.puts", "count"); ("store.bytes_written", "bytes"); ("ml_model.train_s", "s");
    ("ml_model.fits", "count"); ("ml_model.fold_ms", "ms"); ("ml_model.points", "count");
    ("ml_model.predict_us", "us"); ("ml_model.predictions", "count");
    ("serve.artifact.save_s", "s"); ("serve.artifact.load_s", "s");
    ("serve.artifact.mb_per_s", "MB/s"); ("serve.protocol.decode_us", "us");
    ("serve.protocol.encode_us", "us"); ("net.codec.frame_us", "us");
    ("serve.bytes_per_request", "bytes"); ("net.loop.wakeups_per_request", "count");
    ("serve.cache.hit_ratio", "ratio"); ("serve.server_us", "us"); ("serve.transport_us", "us");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("trace.unexplained_share", "ratio"); ("trace.interp_event_s", "s");
  ]

let workloads =
  [
    ("train-cold", (Train_cold.run, Train_cold.traced));
    ("crossval-warm", (Crossval_warm.run, Crossval_warm.traced));
    ("serve", (Serve_load.run, Serve_load.traced));
  ]

let usage () =
  prerr_endline
    "usage: bench --workload train-cold|crossval-warm|serve --seed N --seconds S --trace 0|1\n\
    \       bench --steady RUNS --workload W --seed N --seconds S";
  exit 2

let run_one ~workload ~seed ~seconds ~trace =
  let run, traced = List.assoc workload workloads in
  let ops = Ops.create () in
  let metrics = if trace then traced ~seed ~ops else run ~seed ~seconds ~ops in
  Ops.print ops;
  report metrics;
  let pick ?(absent = fun name -> failwith ("metric not measured: " ^ name)) name =
    match List.find_opt (fun x -> x.name = name) metrics with
    | Some x when Float.is_finite x.value -> x
    | Some _ -> failwith ("metric not finite: " ^ name)
    | None -> absent name
  in
  result_line ~ops
    (if trace then
       List.map (fun (name, unit_) -> pick ~absent:(fun _ -> m name unit_ 0.0) name) per_layer
     else List.map pick end_to_end)

(* ---- steadiness self-check -------------------------------------------------- *)

let bounds () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    Option.bind (J.member "end_to_end" j) J.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun e ->
           match (Option.bind (J.member "name" e) J.to_str, Option.bind (J.member "bound" e) J.to_float) with
           | Some n, Some b -> Some (n, b)
           | _ -> None)

let child ~workload ~seed ~seconds =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "run on seed %d did not exit cleanly" seed));
  match J.of_string (List.nth lines (List.length lines - 1)) with
  | Ok j -> j
  | Error e -> failwith e

let steady ~runs ~workload ~seed ~seconds =
  let bounds = bounds () in
  let results =
    List.init runs (fun i ->
        let j = child ~workload ~seed:(seed + i) ~seconds in
        let int k = Option.bind (J.member k j) J.to_int |> Option.value ~default:0 in
        Printf.printf "seed %d: correct %s attempted %d failed %d %s\n%!" (seed + i)
          (match J.member "correct" j with Some (J.Bool b) -> string_of_bool b | _ -> "?")
          (int "attempted") (int "failed")
          (Option.fold ~none:"" ~some:J.to_string (J.member "metrics" j));
        j)
  in
  List.iter
    (fun (name, bound) ->
      let values =
        Array.of_list
          (List.filter_map
             (fun j ->
               Option.bind (J.member "metrics" j) (J.member name)
               |> Fun.flip Option.bind (J.member "value")
               |> Fun.flip Option.bind J.to_float)
             results)
      in
      if Array.length values >= 2 then begin
        let q = quartiles values and med = median values in
        let spread = (q.(2) -. q.(0)) /. med in
        Printf.printf "%-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f %s\n"
          name med q.(0) q.(2) spread bound
          (if spread < bound /. 3.0 then "steady" else "NOT STEADY")
      end)
    bounds

(* ---- arguments ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let steady_runs = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer traced replay");
      ("--steady", Arg.Set_int steady_runs, "RUNS steadiness self-check");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "bench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if not (List.mem_assoc !workload workloads) then usage ();
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, _ when !steady_runs > 0 ->
    steady ~runs:!steady_runs ~workload:!workload ~seed ~seconds
  | Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0.0 ->
    run_one ~workload:!workload ~seed ~seconds ~trace:(t = 1)
  | _ -> usage ()
