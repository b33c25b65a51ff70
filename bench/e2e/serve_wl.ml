(* serve-closed: two client threads, each on its own connection, drive a
   cinm_serve child process in a closed loop (a client sends its next
   request only after the previous reply arrived). One pass sends one
   checked "run" request for every catalog benchmark x backend pair, in
   a seeded order; after the warm pass every request hits the daemon's
   pipeline cache and code cache, so the window measures the serve layer
   (queue, JSON, socket) plus warm execution. *)

module Json = Cinm_serve_lib.Json
module Client = Cinm_serve_lib.Client
module Rng = Cinm_fuzz_lib.Rng

let backends = [ "upmem"; "cim"; "hetero"; "host" ]
let clients = 2
let daemon_jobs = 2

type daemon = { pid : int; socket : string; log : string; mutable alive : bool }

(* The daemon runs with its own flags, never the caller's CINM_*
   environment, and logs into the output directory. *)
let spawn ~out_dir =
  let exe =
    List.fold_left Filename.concat (Filename.dirname Sys.executable_name)
      [ ".."; ".."; "bin"; "cinm_serve.exe" ]
  in
  if not (Sys.file_exists exe) then failwith (exe ^ " not found: build bin/cinm_serve.exe");
  let tag = string_of_int (Unix.getpid ()) in
  let socket = Filename.concat out_dir ("serve-" ^ tag ^ ".sock") in
  let log = Filename.concat out_dir ("serve-" ^ tag ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"CINM_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env exe
      [| exe; "--socket"; socket; "--jobs"; string_of_int daemon_jobs; "--interp"; "compiled" |]
      env null fd fd
  in
  Unix.close fd;
  Unix.close null;
  { pid; socket; log; alive = true }

(* Waits for the daemon; its log is kept only when it did not exit
   cleanly. *)
let reap d =
  if d.alive then begin
    d.alive <- false;
    match Unix.waitpid [] d.pid with
    | _, Unix.WEXITED 0 -> Sys.remove d.log
    | _ -> prerr_endline ("cinm_bench: cinm_serve exited abnormally, see " ^ d.log)
  end

let shutdown d =
  let c = Client.connect d.socket in
  ignore (Client.request c (Client.make_request "shutdown"));
  Client.close c;
  reap d

let rpc sp c req =
  let line = Span.with_ sp "serve.encode" (fun () -> Json.to_string req) in
  let resp = Span.with_ sp "serve.rpc" (fun () -> Client.request_raw c line) in
  let j = Span.with_ sp "serve.decode" (fun () -> Json.parse resp) in
  if Json.bool_field j "ok" <> Some true then
    failwith ("error response: " ^ String.sub resp 0 (min 200 (String.length resp)));
  j

let run_request (b, be) = Client.make_request ~benchmark:b ~backend:be ~check:true "run"

(* A run reply must be clean (not degraded), for the benchmark asked, and
   report the simulated time the warm pass recorded for that pair. *)
let check_run j (b, _) ~expect =
  if Json.bool_field j "degraded" <> Some false then failwith "degraded response";
  if Json.string_field j "benchmark" <> Some b then failwith "reply for another benchmark";
  match Json.float_field j "sim_total_s" with
  | Some sim when Float.equal sim expect -> ()
  | Some _ -> failwith "sim_total_s differs from the warm pass"
  | None -> failwith "reply without sim_total_s"

(* One closed-loop window over whole passes; returns the window and the
   spans each client recorded (traced windows only). *)
let window ~seconds ~rng ~pairs ~warm ~fs ~traced conns =
  let n = Array.length pairs in
  let m = Mutex.create () in
  let next = ref 0 and limit = ref max_int and perms = Hashtbl.create 64 in
  let t_start = Engine.now () in
  let take () =
    Mutex.protect m (fun () ->
        if !next >= !limit then None
        else begin
          let idx = !next in
          incr next;
          if !limit = max_int && Engine.now () -. t_start >= seconds then
            limit := ((idx / n) + 1) * n;
          let perm =
            match Hashtbl.find_opt perms (idx / n) with
            | Some a -> a
            | None ->
              let a = Engine.permutation rng n in
              Hashtbl.add perms (idx / n) a;
              a
          in
          Some (idx, perm.(idx mod n))
        end)
  in
  let outs = Array.make clients ([], None) in
  let worker k () =
    let sp = if traced then Some (Span.create ~tid:(k + 1)) else None in
    let acc = ref [] in
    let rec loop () =
      match take () with
      | None -> ()
      | Some (idx, p) ->
        let t0 = Engine.now () in
        let err =
          match
            Span.item sp ~id:idx (fun () ->
                let j = rpc sp conns.(k) (run_request pairs.(p)) in
                Span.with_ sp "benchmarks.check" (fun () -> check_run j pairs.(p) ~expect:warm.(p)))
          with
          | () -> None
          | exception e -> Some (fst pairs.(p) ^ "@" ^ snd pairs.(p), Engine.reason e)
        in
        let t1 = Engine.now () in
        acc := (idx, t1 -. t0, t1, err) :: !acc;
        loop ()
    in
    loop ();
    outs.(k) <- (!acc, sp)
  in
  List.iter Thread.join (List.init clients (fun k -> Thread.create (worker k) ()));
  let all = List.concat_map fst (Array.to_list outs) in
  List.iter (fun (_, _, _, err) -> Option.iter (fun (l, r) -> Engine.fail fs l r) err) all;
  let passes = Array.make (!next / n) (t_start, []) in
  List.iter
    (fun (idx, l, t1, _) ->
      let e, lat = passes.(idx / n) in
      passes.(idx / n) <- (Float.max e t1, l :: lat))
    all;
  ( {
      Engine.passes = Engine.passes_of ~t_start (Array.to_list passes);
      t_start;
      t_end = Engine.now ();
    },
    List.concat_map
      (fun (_, sp) -> match sp with Some r -> r.Span.spans | None -> [])
      (Array.to_list outs) )

(* Daemon counters read between windows: histogram count/sum/p95 from
   the metrics op, cache hit/miss totals and arena occupancy from stats. *)
let snapshot c =
  let stats = rpc None c (Client.make_request "stats")
  and metrics = rpc None c (Client.make_request "metrics") in
  let path j keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys in
  let num j keys = Option.value ~default:0.0 (Option.bind (path j keys) Json.get_float) in
  fun what ->
    match what with
    | `Hist (name, field) -> num metrics [ "histograms"; "cinm_serve_" ^ name ^ "_seconds"; field ]
    | `Stat keys -> num stats keys

let run ~seed ~seconds ~trace ~out_dir ~ready ~started : Engine.result =
  let fs = Engine.failures () in
  let d = spawn ~out_dir in
  started d.pid;
  (* whatever ends this process also ends the daemon *)
  at_exit (fun () ->
      if d.alive then begin
        (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
        reap d
      end);
  let conns = Array.init clients (fun _ -> Client.connect ~attempts:600 d.socket) in
  let names =
    match Json.member "benchmarks" (rpc None conns.(0) (Client.make_request "health")) with
    | Some (Json.List l) -> List.filter_map Json.get_string l
    | _ -> failwith "health reply lists no benchmarks"
  in
  let pairs =
    Array.of_list (List.concat_map (fun b -> List.map (fun be -> (b, be)) backends) names)
  in
  let n = Array.length pairs in
  let rng = Rng.make (seed + 0x5eed) in
  let warm = Array.make n nan and ops = Array.make n 0 in
  Array.iter
    (fun p ->
      let b, be = pairs.(p) in
      match
        let c = rpc None conns.(0) (Client.make_request ~benchmark:b ~backend:be "compile") in
        ops.(p) <- Option.value ~default:0 (Json.int_field c "ops");
        let j = rpc None conns.(0) (run_request pairs.(p)) in
        warm.(p) <- Option.value ~default:nan (Json.float_field j "sim_total_s");
        check_run j pairs.(p) ~expect:warm.(p)
      with
      | () -> ()
      | exception e -> Engine.fail fs (b ^ "@" ^ be) (Engine.reason e))
    (Engine.permutation rng n);
  ready ();
  let w, _ =
    window
      ~seconds:(if trace then seconds /. 2.0 else seconds)
      ~rng ~pairs ~warm ~fs ~traced:false conns
  in
  let attempted = ref (n + Engine.attempted w) in
  let layers, trace_path =
    if not trace then ([], "")
    else begin
      let s0 = snapshot conns.(0) and r0 = Engine.runtime () in
      let tw, spans = window ~seconds:(seconds /. 2.0) ~rng ~pairs ~warm ~fs ~traced:true conns in
      attempted := !attempted + Engine.attempted tw;
      let s1 = snapshot conns.(0) and r1 = Engine.runtime () in
      let self, traced = Engine.layers_of_spans spans in
      let path = Engine.trace_file ~out_dir ~workload:"serve-closed" ~seed in
      Span.write_chrome path ~t_origin:tw.Engine.t_start spans;
      let delta what = s1 what -. s0 what in
      let mean_ms h =
        1e3 *. delta (`Hist (h, "sum")) /. Float.max 1.0 (delta (`Hist (h, "count")))
      in
      let ratio keys =
        Engine.hit_ratio (delta (`Stat (keys @ [ "hits" ]))) (delta (`Stat (keys @ [ "misses" ])))
      in
      let busy = delta (`Hist ("request", "sum")) -. delta (`Hist ("queue_wait", "sum")) in
      let rpc_ms = 1e3 *. Option.value ~default:0.0 (List.assoc_opt "serve.rpc_s" self) in
      ( self
        @ Engine.runtime_layers r0 r1 ~items:traced
        @ [
            ("serve.request_mean_ms", mean_ms "request");
            ("serve.queue_wait_mean_ms", mean_ms "queue_wait");
            ("serve.compile_mean_ms", mean_ms "compile");
            ("serve.execute_mean_ms", mean_ms "execute");
            ("serve.request_p95_ms", 1e3 *. s1 (`Hist ("request", "p95")));
            ("serve.execute_p95_ms", 1e3 *. s1 (`Hist ("execute", "p95")));
            ("serve.transport_mean_ms", rpc_ms -. mean_ms "request");
            ("serve.pipeline_cache.hit_ratio", ratio [ "pipeline_cache" ]);
            ( "serve.pool_utilization",
              busy /. (float_of_int daemon_jobs *. (tw.Engine.t_end -. tw.Engine.t_start)) );
            ("interp.code_cache.hits", delta (`Stat [ "code_cache"; "hits" ]));
            ("interp.code_cache.misses", delta (`Stat [ "code_cache"; "misses" ]));
            ("interp.code_cache.hit_ratio", ratio [ "code_cache" ]);
            ("tensor.arena.pooled", s1 (`Stat [ "arena"; "pooled" ]));
            ("trace_overhead", Engine.ops_per_s w /. Engine.ops_per_s tw);
          ],
        path )
    end
  in
  let rss = Engine.peak_rss_mb d.pid in
  Array.iter Client.close conns;
  shutdown d;
  {
    Engine.attempted = !attempted;
    failed = fs.Engine.count;
    reasons = fs.Engine.reasons;
    e2e =
      Engine.e2e_of_window w
      @ [
          ("peak_rss_mb", rss);
          ("sim_s", Array.fold_left ( +. ) 0.0 warm);
          ("code_ops", float_of_int (Array.fold_left ( + ) 0 ops));
        ];
    layers;
    samples = List.length (Engine.fast_latencies w);
    passes = List.length w.Engine.passes;
    trace_path;
  }
