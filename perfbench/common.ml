(** Shared machinery: clocks, order statistics, operation accounting,
    in-memory layer spans, program-counter deltas and the result line. *)

module J = Obs.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Linear-interpolated quantile of an unsorted sample ([q] in [0, 1]). *)
let quantile xs q =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. ((s.(hi) -. s.(lo)) *. frac)

let median xs = quantile xs 0.5

(** Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) computes them. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  let n = 4 and m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n)

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(** Growable float sample. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.data 0 t.n
end

(* ---- operation accounting -------------------------------------------- *)

(** Attempted and failed operations per kind, in first-use order. *)
module Ops = struct
  type t = { mutable kinds : (string * int ref * int ref) list }

  let create () = { kinds = [] }

  let slot t kind =
    match List.find_opt (fun (k, _, _) -> k = kind) t.kinds with
    | Some (_, a, f) -> (a, f)
    | None ->
      let a = ref 0 and f = ref 0 in
      t.kinds <- t.kinds @ [ (kind, a, f) ];
      (a, f)

  let attempt ?(n = 1) t kind =
    let a, _ = slot t kind in
    a := !a + n

  let fail ?(n = 1) t kind =
    let _, f = slot t kind in
    f := !f + n

  let totals t =
    List.fold_left (fun (a, f) (_, a', f') -> (a + !a', f + !f')) (0, 0) t.kinds

  let print t =
    List.iter
      (fun (k, a, f) -> Printf.printf "ops %-10s attempted %d failed %d\n" k !a !f)
      t.kinds
end

(* ---- correctness checks ----------------------------------------------- *)

let failures = ref 0

(** Record one named check; a failing check clears [correct] in the
    result line and is printed with its detail. *)
let check name ok detail =
  if ok then Printf.printf "check %-40s ok\n%!" name
  else begin
    incr failures;
    Printf.printf "check %-40s FAILED: %s\n%!" name (Lazy.force detail)
  end

(* ---- program counters ------------------------------------------------- *)

(** The program's own counters, read before and after a phase. *)
let counter_names =
  [
    "interp.runs"; "interp.dyn_insts"; "interp.mem_accesses"; "sim.evals";
    "store.writes"; "store.hits"; "store.misses"; "serve.requests";
    "serve.cache.hits"; "serve.cache.misses"; "net.loop.bytes_in";
    "net.loop.bytes_out"; "net.loop.wakeups";
  ]

let counters () =
  List.map (fun n -> (n, Obs.Metrics.value (Obs.Metrics.counter n))) counter_names

let delta before after name = List.assoc name after - List.assoc name before

(* ---- heap ---------------------------------------------------------------- *)

let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0

(** Largest size the major heap has reached in this process. *)
let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb

(** The end of every set-up: collect its garbage, so the timed phase
    does not pay for it. *)
let settle () = Gc.compact ()

(* ---- scratch directory -------------------------------------------------- *)

(** Everything a run writes lives under [.perfbench/] in the checkout,
    in a directory unique to the process, removed at exit unless it
    holds the span file. *)
let out_root = ".perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let fresh_dir =
  let seq = ref 0 in
  fun tag ->
    incr seq;
    let d =
      Filename.concat out_root
        (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !seq)
    in
    rm_rf d;
    mkdir_p d;
    d

(* ---- result line -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let report metrics =
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "metric %-34s %.6g %s\n" name value unit_)
    metrics

(** The last line of standard output. *)
let result_line ~ops metrics =
  let attempted, failed = Ops.totals ops in
  let json =
    J.Obj
      [
        ("correct", J.Bool (!failures = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun { name; value; unit_ } ->
                 (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit_) ]))
               metrics) );
      ]
  in
  print_endline (J.to_string json)
