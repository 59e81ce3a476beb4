(** [serve]: a trained artifact behind an in-process [Serve.Server] on a
    Unix-domain socket, driven by a closed loop — compilers wait for
    each reply — of one connection.  It sends whole rounds of a seeded
    interleaving of three request kinds:
    - [hit]: one of a few repeated queries, answered from the cache, so
      only the codec, the loop and the protocol work;
    - [miss]: a query never sent before, which adds a kNN prediction;
    - [batch]: a [predict_batch] of never-sent queries. *)

open Common
module D = Ml_model.Dataset
module P = Serve.Protocol

let uarchs = 32
let opts = 4
let hit_keys = 4
let batch_size = 8

type kind = Hit | Miss | Batch

let kind_name = function Hit -> "hit" | Miss -> "miss" | Batch -> "batch"

(** One round: six hits, three misses and one batch — a 60% hit share
    of requests, 6 of 23 queries. *)
let round = [| Hit; Hit; Hit; Hit; Hit; Hit; Miss; Miss; Miss; Batch |]

(** The request stream of [--seed]: round after round of the kinds in a
    seeded order, each request with its query indices. *)
let rounds ~seed =
  let rng = Prelude.Rng.create ((seed * 31) + 1) in
  let next = ref hit_keys in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  fun () ->
    let order = Array.copy round in
    Prelude.Rng.shuffle rng order;
    Array.map
      (fun kind ->
        ( kind,
          match kind with
          | Hit -> [| Prelude.Rng.int rng hit_keys |]
          | Miss -> [| fresh () |]
          | Batch -> Array.init batch_size (fun _ -> fresh ()) ))
      order

(* ---- queries ------------------------------------------------------------- *)

(** Query [i] is program [i mod 35] at -O3 on configuration [perm i] of
    the base space, where [perm] is a seeded affine bijection: distinct
    indices never repeat a configuration, so a query sent once is never
    a cache hit.  Indices below [hit_keys] are the repeated queries. *)
let card = Uarch.Space.cardinality Uarch.Space.Base

let stride =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  List.find (fun s -> gcd s card = 1) [ 104729; 1299709; 15485863; 32452843 ]

let query (o3 : Sim.Xtrem.run array) ~seed i =
  let u = Uarch.Space.nth Uarch.Space.Base ((((seed * 7919) + (stride * i)) mod card + card) mod card) in
  ((Sim.Xtrem.time o3.(i mod Array.length o3) u).Sim.Pipeline.counters, u)

(* ---- set-up ---------------------------------------------------------------- *)

type server = {
  dir : string;
  artifact : Serve.Artifact.t;
  path : string;
  data : D.t;  (** The dataset the served model was trained on. *)
  o3 : Sim.Xtrem.run array;
  srv : Serve.Server.t;
  load_ms : float;
}

(** Every connection fails a request whose socket dies rather than
    redialling and resending it, so a failure is counted, not hidden. *)
let connect srv =
  Serve.Client.connect
    ~reconnect:{ Prelude.Backoff.default with max_retries = 0 }
    (Serve.Server.address srv)

(** The server as [portopt serve] starts it: the default configuration,
    whose [jobs = 2] pool hands every computed request to a worker domain. *)
let start_server ~dir artifact =
  Serve.Server.start ~artifact
    (Serve.Server.default_config (P.Unix_path (Filename.concat dir "s.sock")))

let warm_hits srv o3 ~seed =
  let c = connect srv in
  for i = 0 to hit_keys - 1 do
    let counters, uarch = query o3 ~seed i in
    match Serve.Client.predict c ~counters ~uarch with
    | Ok _ -> ()
    | Error (_, e) -> failwith ("warming the cache: " ^ e)
  done;
  Serve.Client.close c

(** Set-up: train cold, save, load the artifact back (its median load
    time is [load_ms]), start the server and send each repeated query
    once so later sends hit the cache. *)
let setup ~seed =
  let dir = fresh_dir "serve" in
  let path = Filename.concat dir "model.pcm" in
  let scale = Inputs.scale ~uarchs ~opts seed in
  let d, _ = Inputs.train ~store_dir:(Filename.concat dir "store") ~path scale in
  let loads = Array.init 5 (fun _ -> time (fun () -> Inputs.load path)) in
  let artifact = fst loads.(0) in
  let srv = start_server ~dir artifact in
  warm_hits srv d.D.o3_runs ~seed;
  settle ();
  {
    dir;
    artifact;
    path;
    data = d;
    o3 = d.D.o3_runs;
    srv;
    load_ms = 1e3 *. median (Array.map snd loads);
  }

let stop s =
  Serve.Server.stop s.srv;
  Serve.Server.wait s.srv

(* ---- closed loop ----------------------------------------------------------- *)

type answer = { kind : kind; queries : int array; settings : Passes.Flags.setting array; cached : bool array }

type conn_result = {
  latency : Samples.t array;  (** Per kind, seconds. *)
  attempted : int array;
  failed : int array;
  answers : answer list;
  round_s : Samples.t;  (** Seconds per round of [Array.length round] requests. *)
  finished : float;
}

let kind_index = function Hit -> 0 | Miss -> 1 | Batch -> 2

let client s ~seed ~deadline =
  let c = connect s.srv in
  let next_round = rounds ~seed in
  let latency = Array.init 3 (fun _ -> Samples.create ()) in
  let attempted = Array.make 3 0 and failed = Array.make 3 0 in
  let answers = ref [] in
  let send (kind, queries) =
    let k = kind_index kind in
    attempted.(k) <- attempted.(k) + 1;
    let qs = Array.map (query s.o3 ~seed) queries in
    let t0 = now () in
    let reply =
      match kind with
      | Batch -> Serve.Client.predict_batch c qs
      | _ ->
        let counters, uarch = qs.(0) in
        Result.map (fun p -> [| p |]) (Serve.Client.predict c ~counters ~uarch)
    in
    let dt = now () -. t0 in
    match reply with
    | Ok ps ->
      Samples.add latency.(k) dt;
      answers :=
        {
          kind;
          queries;
          settings = Array.map (fun p -> p.P.setting) ps;
          cached = Array.map (fun p -> p.P.cached) ps;
        }
        :: !answers
    | Error (code, msg) ->
      failed.(k) <- failed.(k) + 1;
      Printf.eprintf "%s request failed: %d %s\n%!" (kind_name kind) code msg
  in
  let round_s = Samples.create () in
  while now () < deadline do
    let requests = next_round () in
    let t0 = now () in
    Array.iter send requests;
    Samples.add round_s (now () -. t0)
  done;
  Serve.Client.close c;
  { latency; attempted; failed; answers = !answers; round_s; finished = now () }

(** Run the client connection on a thread until [seconds] have passed.
    Server and client share one domain: a second domain on another CPU
    turns every request into cross-CPU wake-ups, which made throughput
    and tail latency spread by a quarter from run to run on a 2-vCPU
    machine. *)
let closed_loop s ~seed ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let result = ref None in
  Thread.join (Thread.create (fun () -> result := Some (client s ~seed ~deadline)) ());
  (t0, Option.get !result)

(* ---- checks ------------------------------------------------------------------ *)

(** Every reply equals an in-process prediction on the loaded artifact;
    a batch's answers are the single answers for the same queries. *)
let check_answers s ~seed answers =
  let model = s.artifact.Serve.Artifact.model and space = s.artifact.Serve.Artifact.space in
  let expected = Hashtbl.create 4096 in
  let single i =
    match Hashtbl.find_opt expected i with
    | Some v -> v
    | None ->
      let counters, uarch = query s.o3 ~seed i in
      let v =
        (Ml_model.Model.predict_full model (Ml_model.Features.raw space counters uarch))
          .Ml_model.Predict.setting
      in
      Hashtbl.replace expected i v;
      v
  in
  let wrong = Array.make 3 0 and cache = Array.make 3 0 in
  List.iter
    (fun a ->
      let k = kind_index a.kind in
      Array.iteri
        (fun j i -> if a.settings.(j) <> single i then wrong.(k) <- wrong.(k) + 1)
        a.queries;
      if Array.exists (fun c -> c <> (a.kind = Hit)) a.cached then cache.(k) <- cache.(k) + 1)
    answers;
  List.iter
    (fun kind ->
      let k = kind_index kind in
      check (kind_name kind ^ " replies equal in-process predictions") (wrong.(k) = 0)
        (lazy (Printf.sprintf "%d answers differ" wrong.(k)));
      check (kind_name kind ^ " replies cached as the kind implies") (cache.(k) = 0)
        (lazy (Printf.sprintf "%d replies" cache.(k))))
    [ Hit; Miss; Batch ]

(* ---- untraced ------------------------------------------------------------------ *)

let ms_quantile xs q = 1e3 *. quantile xs q

let run ~seed ~seconds ~ops =
  let s, setup_s = time (fun () -> setup ~seed) in
  let t0, r = Fun.protect ~finally:(fun () -> stop s) (fun () -> closed_loop s ~seed ~seconds) in
  List.iter
    (fun kind ->
      let k = kind_index kind in
      Ops.attempt ~n:r.attempted.(k) ops (kind_name kind);
      Ops.fail ~n:r.failed.(k) ops (kind_name kind))
    [ Hit; Miss; Batch ];
  check_answers s ~seed r.answers;
  let lat k = Samples.to_array r.latency.(k) in
  let all = Array.concat [ lat 0; lat 1; lat 2 ] in
  let wall = r.finished -. t0 in
  let requests = Array.fold_left ( + ) 0 r.attempted in
  let rps = float_of_int requests /. wall in
  (* Throughput of the median round: a collector or scheduler pause in
     one round moves the mean over the run, not the median. *)
  let round_rps = float_of_int (Array.length round) /. median (Samples.to_array r.round_s) in
  Printf.printf
    "serve: %d requests in %.2f s, serve_rps %.1f (median round %.1f), load_ms %.3f, \
     artifact_bytes %d\n"
    requests wall rps round_rps s.load_ms (Unix.stat s.path).Unix.st_size;
  List.iter
    (fun kind ->
      let l = lat (kind_index kind) in
      Printf.printf "serve %-5s n %d p50_ms %.4f p99_ms %.4f\n" (kind_name kind)
        (Array.length l) (ms_quantile l 0.5) (ms_quantile l 0.99))
    [ Hit; Miss; Batch ];
  rm_rf s.dir;
  [
    m "setup_s" "s" setup_s;
    m "op_ms" "ms" (ms_quantile all 0.5);
    m "tail_ms" "ms" (ms_quantile all 0.99);
    m "work_per_s" "1/s" round_rps;
  ]

(* ---- traced ------------------------------------------------------------------ *)

(** The fixed request sequence the traced run sends over one connection:
    the first [n] rounds of the closed loop's stream. *)
let sequence ~seed n =
  let next_round = rounds ~seed in
  List.concat (List.init n (fun _ -> Array.to_list (next_round ())))

let request_of o3 ~seed (kind, queries) =
  let qs = Array.map (query o3 ~seed) queries in
  match kind with
  | Batch -> P.Predict_batch { queries = qs; objective = None }
  | _ ->
    let counters, uarch = qs.(0) in
    P.Predict { counters; uarch; objective = None }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(** One request over a raw socket, every layer call in its own span:
    the protocol renders the request, the codec frames it, the socket
    carries it and the reply, the codec deframes, the protocol parses. *)
let raw_request fd dec payload =
  let frame = Spans.layer "net.codec" (fun () -> Net.Codec.encode Net.Codec.Binary payload) in
  Spans.layer "net" (fun () -> write_all fd frame 0);
  let buf = Net.Codec.buffer dec in
  let read = ref 0 in
  let rec await () =
    match Spans.layer "net.codec" (fun () -> Net.Codec.next dec) with
    | Ok (Some (_, reply)) -> reply
    | Ok None ->
      let n =
        Spans.layer "net" (fun () ->
            let b, off = Prelude.Bytebuf.reserve buf 65536 in
            let n = Unix.read fd b off 65536 in
            Prelude.Bytebuf.commit buf n;
            n)
      in
      if n = 0 then failwith "server closed the connection";
      read := !read + n;
      await ()
    | Error e -> failwith (Net.Codec.error_to_string e)
  in
  let reply = await () in
  (reply, String.length frame, !read)

let request_seconds = Obs.Metrics.hist "serve.request.seconds"

let traced ~seed ~ops =
  let n_rounds = 200 in
  let seq = sequence ~seed n_rounds in
  (* Untraced: the same sequence through the program's own client. *)
  let s = setup ~seed in
  let d = s.data in
  let requests = List.map (fun rq -> (rq, request_of s.o3 ~seed rq)) seq in
  let wall, minor_mwords, major_collections =
    Layers.gc_around (fun () ->
        Fun.protect ~finally:(fun () -> stop s) (fun () ->
            let c = connect s.srv in
            let (), wall =
              time (fun () ->
                  List.iter
                    (fun ((kind, _), rq) ->
                      Ops.attempt ops (kind_name kind);
                      let reply =
                        match rq with
                        | P.Predict { counters; uarch; _ } ->
                          Result.map ignore (Serve.Client.predict c ~counters ~uarch)
                        | P.Predict_batch { queries; _ } ->
                          Result.map ignore (Serve.Client.predict_batch c queries)
                        | _ -> Ok ()
                      in
                      match reply with
                      | Ok () -> ()
                      | Error (code, msg) ->
                        Ops.fail ops (kind_name kind);
                        Printf.printf "%s request failed: %d %s\n" (kind_name kind) code msg)
                    requests)
            in
            Serve.Client.close c;
            wall))
  in
  rm_rf s.dir;
  (* Replay: the set-up's cold train layer by layer, then the requests. *)
  let out = fresh_dir "serve-traced" in
  let store = Store.open_ ~dir:(Filename.concat out "store") in
  let r = Replay.create store in
  let c0 = counters () in
  let scale = Inputs.scale ~uarchs ~opts seed in
  let pr = Replay.profiles r ~settings:d.D.settings in
  let pairs = Replay.pairs r scale ~uarchs:d.D.uarchs ~settings:d.D.settings pr in
  let model = Replay.fit r pairs (fun _ -> true) in
  let path = Filename.concat out "model.pcm" in
  Serve.Artifact.save ~path (Inputs.artifact ~store d model);
  let setup_snap = Spans.snapshot () in
  let artifact = Spans.layer "serve.artifact.load" (fun () -> Inputs.load path) in
  let c1 = counters () and setup_counts = Layers.replay_counts r in
  let srv = start_server ~dir:out artifact in
  let s = { dir = out; artifact; path; data = d; o3 = pr.Replay.o3; srv; load_ms = 0.0 } in
  warm_hits srv s.o3 ~seed;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (P.sockaddr (Serve.Server.address srv));
  let dec = Net.Codec.decoder () in
  let requests = List.map (fun rq -> (rq, J.to_string (P.request_to_json (request_of s.o3 ~seed rq)))) seq in
  (* The timed phase: the result line covers it alone. *)
  let sink = Filename.concat out "program-trace.jsonl" in
  Obs.Trace.start sink;
  let c2 = counters () in
  let h_count = Obs.Metrics.hist_count request_seconds
  and h_sum = Obs.Metrics.hist_sum request_seconds in
  let base = Replay.copy r and snap = Spans.snapshot () in
  let sent = ref 0 and received = ref 0 in
  let replies, replay_s =
    time (fun () ->
        List.map
          (fun (_, payload) ->
            Spans.group "request" (fun () ->
                let reply, out_bytes, in_bytes = raw_request fd dec payload in
                sent := !sent + out_bytes;
                received := !received + in_bytes;
                Spans.layer "serve.protocol" (fun () ->
                    Result.bind (J.of_string reply) (fun j ->
                        match P.batch_of_json j with
                        | Ok ps -> Ok ps
                        | Error _ -> Result.map (fun p -> [| p |]) (P.prediction_of_json j)))))
          requests)
  in
  let unexplained =
    Layers.unexplained ~snap ~wall:replay_s [ "serve.protocol"; "net.codec"; "net" ]
  in
  let rtt = Layers.seconds ~snap "net" and frame_s = Layers.seconds ~snap "net.codec" in
  (* The loop counts a reply's bytes after its write returns, which can
     be after the client has read them: read the counters once the loop
     has stopped. *)
  Unix.close fd;
  Serve.Server.stop srv;
  Serve.Server.wait srv;
  let c3 = counters () in
  let server_s = Obs.Metrics.hist_sum request_seconds -. h_sum
  and served = Obs.Metrics.hist_count request_seconds - h_count in
  let n = List.length seq in
  let count k = List.length (List.filter (fun (k', _) -> k' = k) seq) in
  Layers.cross_check ~before:c0 ~after:c1 setup_counts;
  Layers.cross_check ~before:c2 ~after:c3
    [
      ("serve.requests", n);
      ("serve.cache.hits", count Hit);
      ("serve.cache.misses", count Miss + (batch_size * count Batch));
      ("net.loop.bytes_in", !sent);
      ("net.loop.bytes_out", !received);
    ];
  List.iter (fun kind -> Ops.attempt ~n:(count kind) ops (kind_name kind)) [ Hit; Miss; Batch ];
  (* The server's own protocol calls, replayed on the same payloads. *)
  let answers =
    List.map2
      (fun ((kind, queries), payload) reply ->
        ignore
          (Spans.layer "serve.protocol.decode" (fun () ->
               Result.bind (J.of_string payload) P.request_of_json));
        match reply with
        | Ok ps ->
          ignore
            (Spans.layer "serve.protocol.encode" (fun () ->
                 J.to_string
                   (if kind = Batch then P.batch_to_json ps else P.prediction_to_json ps.(0))));
          { kind; queries; settings = Array.map (fun p -> p.P.setting) ps;
            cached = Array.map (fun p -> p.P.cached) ps }
        | Error e ->
          Ops.fail ops (kind_name kind);
          Printf.printf "reply unreadable: %s\n" e;
          { kind; queries; settings = [||]; cached = [||] })
      requests replies
  in
  (* The server's kNN predictions, one per query it computed (every miss
     and batch element), replayed in process: the ml_model layer. *)
  List.iter
    (fun a ->
      Array.iter
        (fun i ->
          let counters, uarch = query s.o3 ~seed i in
          ignore
            (Replay.predict r artifact.Serve.Artifact.model
               (Ml_model.Features.raw artifact.Serve.Artifact.space counters uarch)))
        a.queries)
    (List.filter (fun a -> a.kind <> Hit) answers);
  Obs.Trace.stop ();
  check_answers s ~seed answers;
  let interp = Layers.interp_split ~snap ~events:(Replay.interp_events sink) in
  Sys.remove sink;
  Spans.write (Filename.concat out "spans.jsonl");
  Printf.printf "spans written to %s\n" (Filename.concat out "spans.jsonl");
  let bytes_ab = (Unix.stat path).Unix.st_size in
  List.iter rm_rf [ Filename.concat out "store"; path ];
  Printf.printf "trace: untraced requests %.4f s, replay %.4f s\n" wall replay_s;
  let fn = float_of_int n in
  let server_us = 1e6 *. Layers.ratio server_s (float_of_int served) in
  let per l = 1e6 *. Layers.ratio (Layers.seconds ~snap l) (float_of_int (snd (Spans.since snap l))) in
  let load_s = Layers.seconds ~snap:setup_snap "serve.artifact.load" in
  Layers.common ~snap (Replay.since base r) ~bytes_written:0 ~minor_mwords ~major_collections
    ~unexplained
  @ interp
  @ [
      m "serve.artifact.load_s" "s" load_s;
      m "serve.artifact.mb_per_s" "MB/s" (float_of_int bytes_ab /. 1048576.0 /. load_s);
      m "serve.protocol.decode_us" "us" (per "serve.protocol.decode");
      m "serve.protocol.encode_us" "us" (per "serve.protocol.encode");
      m "net.codec.frame_us" "us" (1e6 *. frame_s /. fn);
      m "serve.bytes_per_request" "bytes" (float_of_int (!sent + !received) /. fn);
      m "net.loop.wakeups_per_request" "count"
        (float_of_int (delta c2 c3 "net.loop.wakeups") /. fn);
      m "serve.cache.hit_ratio" "ratio"
        (let h = delta c2 c3 "serve.cache.hits" and mi = delta c2 c3 "serve.cache.misses" in
         Layers.ratio (float_of_int h) (float_of_int (h + mi)));
      m "serve.server_us" "us" server_us;
      m "serve.transport_us" "us" ((1e6 *. rtt /. fn) -. server_us);
    ]
