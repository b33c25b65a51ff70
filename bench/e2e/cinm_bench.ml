(* cinm_bench: the end-to-end benchmark of the CINM stack.

   Usage:
     cinm_bench.exe --workload W --seed N [--seconds S] [--trace 0|1]
                    [--json OUT] [--out-dir DIR]
       W is upmem-prim | cim-ml | compile-fuzz | serve-closed | all.
       Prints one "<workload> <metric> <value> <unit>" line per metric and,
       last, one JSON object: {"correct","attempted","failed","metrics"}.
       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
       metrics (and writes a Chrome trace into DIR). --json appends the
       run to a cinm-bench-2 file.
     cinm_bench.exe compare BASE.json NEW.json [--spec BENCHMARK.json]
     cinm_bench.exe summary FILE.json [--spec BENCHMARK.json]
     cinm_bench.exe smoke [--spec BENCHMARK.json] [--out-dir DIR]

   A measurement is supervised: the process that prints the result only
   spawns copies of this executable. Set-up is measured in fresh
   processes (from spawn to the end of the warm pass), three times, and
   the last of them goes on to run the timed window. *)

module Json = Cinm_serve_lib.Json
module Compile = Cinm_interp.Compile

let workloads = [ "upmem-prim"; "cim-ml"; "compile-fuzz"; "serve-closed" ]
let jobs = 2
let setup_samples = 3

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("cinm_bench: " ^ s); exit 2) fmt

(* ----- process settings ----- *)

(* CINM_* variables switch faults, strict checking, tracing, the job
   count or the interpreter under the benchmark's feet; refuse them. *)
let check_env () =
  match
    List.filter (String.starts_with ~prefix:"CINM_") (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | vs -> die "refusing to run with %s set" (String.concat ", " vs)

let apply_settings () =
  Cinm_support.Pool.set_default_jobs jobs;
  Compile.set_backend Compile.Compiled;
  Cinm_support.Fault.set_default None;
  Cinm_support.Config.set_default Batch.config;
  Cinm_ir.Pass.set_ir_dump Cinm_ir.Pass.Dump_never;
  Cinm_support.Log.set_silent ()

(* ----- measuring child ----- *)

let child ~role ~workload ~seed ~seconds ~trace ~out_dir =
  check_env ();
  apply_settings ();
  (* a supervisor that gives up sends SIGTERM; exiting runs the at_exit
     handler that stops the serve daemon, and a write to its closed
     socket must then fail in the writer instead of killing us first *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ready () =
    print_endline "ready";
    if role = "setup" then exit 0
  in
  let r =
    if workload = "serve-closed" then
      Serve_wl.run ~seed ~seconds ~trace ~out_dir ~ready ~started:(fun pid ->
          print_endline ("daemon " ^ string_of_int pid))
    else Batch.run ~workload ~seed ~seconds ~trace ~out_dir ~ready
  in
  print_endline ("result " ^ Json.to_string (Engine.result_to_json r))

(* ----- supervisor ----- *)

let read_lines fd ~deadline on_line =
  let buf = Buffer.create 256 and chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. Engine.now () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> false
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          let s = Buffer.contents buf in
          let lines = String.split_on_char '\n' s in
          let rec emit = function
            | [ rest ] ->
              Buffer.clear buf;
              Buffer.add_string buf rest
            | l :: more ->
              on_line l;
              emit more
            | [] -> ()
          in
          emit lines;
          go ())
  in
  go ()

(* Runs one child to completion; returns its set-up time (spawn to
   "ready") and its result line, if any. *)
let run_child ~deadline args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Engine.now () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ready = ref None and result = ref None and daemons = ref [] in
  let finished =
    read_lines r ~deadline (fun l ->
        if l = "ready" && !ready = None then ready := Some (Engine.now () -. t0)
        else if String.starts_with ~prefix:"result " l then
          result := Some (String.sub l 7 (String.length l - 7))
        else
          Option.iter
            (fun d -> daemons := d :: !daemons)
            (Scanf.sscanf_opt l "daemon %d%!" Fun.id))
  in
  Unix.close r;
  let signal p s = try Unix.kill p s with Unix.Unix_error _ -> () in
  if not finished then begin
    (* SIGTERM first so the child's at_exit stops the daemon it started;
       a daemon that outlives a killed child is stopped here *)
    signal pid Sys.sigterm;
    Unix.sleepf 5.0;
    signal pid Sys.sigkill;
    List.iter (fun d -> signal d Sys.sigkill) !daemons
  end;
  let _, status = Unix.waitpid [] pid in
  if not finished then die "child %s timed out" (String.concat " " args);
  if status <> Unix.WEXITED 0 then die "child %s failed" (String.concat " " args);
  (!ready, !result)

type outcome = {
  workload : string;
  result : Engine.result;
  setup : float list;
  trace : bool;
}

let measure ~workload ~seed ~seconds ~trace ~out_dir =
  let deadline = Engine.now () +. seconds +. 150.0 in
  let args role =
    [
      "--role"; role; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      "--out-dir"; out_dir;
    ]
  in
  let setup_only =
    List.init (if trace then 0 else setup_samples - 1) (fun _ ->
        match run_child ~deadline (args "setup") with
        | Some s, _ -> s
        | None, _ -> die "set-up child of %s never became ready" workload)
  in
  match run_child ~deadline (args "run") with
  | Some s, Some json ->
    {
      workload;
      result = Engine.result_of_json (Json.parse json);
      setup = setup_only @ [ s ];
      trace;
    }
  | _ -> die "%s: the measuring child reported no result" workload

let correct o = o.result.Engine.failed = 0 && o.result.Engine.attempted > 0

(* The reported metrics, in table order, with their units. *)
let metrics o =
  if o.trace then
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value ~default:0.0 (List.assoc_opt name o.result.Engine.layers)))
      Metrics.layers
  else
    List.filter_map
      (fun (name, unit) ->
        let v =
          if name = "setup_s" then Some (Stat.median o.setup)
          else List.assoc_opt name o.result.Engine.e2e
        in
        Option.map (fun v -> (name, unit, v)) v)
      Metrics.e2e

let fail_ratio o =
  float_of_int o.result.Engine.failed /. float_of_int (max 1 o.result.Engine.attempted)

let num v = if Float.is_finite v then Json.Float v else Json.Null

let value_json (_, unit, v) = Json.Obj [ ("value", num v); ("unit", Json.String unit) ]

(* ----- the cinm-bench-2 file ----- *)

(* The checked-out commit when git can tell, else null. *)
let commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> Json.String l
  | _ -> Json.Null

let run_record ~seed ~seconds o =
  let r = o.result in
  let samples name =
    match name with
    | "setup_s" -> List.length o.setup
    | "ops_per_s" -> r.Engine.passes
    | "latency_p50_ms" | "latency_p90_ms" -> r.Engine.samples
    | _ -> 1
  in
  Json.Obj
    [
      ("workload", Json.String o.workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool o.trace);
      ("command", Json.List (List.map (fun a -> Json.String a) (Array.to_list Sys.argv)));
      ("commit", commit ());
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs);
      ("interp", Json.String "compiled");
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int r.Engine.attempted);
      ("failed", Json.Int r.Engine.failed);
      ("fail_ratio", Json.Float (fail_ratio o));
      ( "e2e",
        Json.Obj
          (List.map
             (fun ((name, _, _) as m) ->
               match value_json m with
               | Json.Obj kvs -> (name, Json.Obj (kvs @ [ ("samples", Json.Int (samples name)) ]))
               | j -> (name, j))
             (metrics { o with trace = false })) );
      ( "layers",
        if o.trace then Json.Obj (List.map (fun ((n, _, _) as m) -> (n, value_json m)) (metrics o))
        else Json.Obj [] );
      ("setup_samples", Json.List (List.map (fun s -> Json.Float s) o.setup));
      ("reasons", Json.List (List.map (fun s -> Json.String s) r.Engine.reasons));
      ("trace_path", Json.String r.Engine.trace_path);
    ]

let load_runs path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | j when Json.string_field j "schema" = Some "cinm-bench-2" -> (
    match Json.member "runs" j with Some (Json.List l) -> l | _ -> [])
  | _ -> die "%s is not a cinm-bench-2 file" path
  | exception Sys_error m -> die "%s" m

let append_runs path runs =
  let old = if Sys.file_exists path then load_runs path else [] in
  let j = Json.Obj [ ("schema", Json.String "cinm-bench-2"); ("runs", Json.List (old @ runs)) ] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* ----- running and reporting ----- *)

let report ~seed ~seconds ~json outcomes =
  List.iter
    (fun o ->
      List.iter
        (fun (name, unit, v) -> Printf.printf "%s %s %.17g %s\n" o.workload name v unit)
        (metrics o);
      Printf.printf "%s fail_ratio %.17g ratio\n" o.workload (fail_ratio o);
      if o.trace then Printf.printf "%s trace %s\n" o.workload o.result.Engine.trace_path)
    outcomes;
  Option.iter (fun path -> append_runs path (List.map (run_record ~seed ~seconds) outcomes)) json;
  let one = match outcomes with [ _ ] -> true | _ -> false in
  let metrics_json =
    List.concat_map
      (fun o ->
        List.map
          (fun ((name, _, _) as m) ->
            ((if one then name else o.workload ^ "." ^ name), value_json m))
          (metrics o))
      outcomes
  in
  let sum f = List.fold_left (fun acc o -> acc + f o.result) 0 outcomes in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (List.for_all correct outcomes));
            ("attempted", Json.Int (sum (fun r -> r.Engine.attempted)));
            ("failed", Json.Int (sum (fun r -> r.Engine.failed)));
            ("metrics", Json.Obj metrics_json);
          ]))

let prepare_out_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let supervise ~workload ~seed ~seconds ~trace ~json ~out_dir =
  check_env ();
  let nproc = Domain.recommended_domain_count () in
  if nproc <> jobs then
    Printf.eprintf "cinm_bench: warning: %d CPUs available, the settings assume %d\n%!" nproc jobs;
  prepare_out_dir out_dir;
  let ws = if workload = "all" then workloads else [ workload ] in
  let outcomes = List.map (fun workload -> measure ~workload ~seed ~seconds ~trace ~out_dir) ws in
  report ~seed ~seconds ~json outcomes

(* ----- BENCHMARK.json and comparisons ----- *)

type spec_metric = { m_name : string; m_lower : bool; m_bound : float }

let load_spec path =
  let j =
    try Json.parse (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> die "%s" m
  in
  let list key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          {
            m_name = Option.value ~default:"" (Json.string_field m "name");
            m_lower = Json.string_field m "better" = Some "lower";
            m_bound = Option.value ~default:0.0 (Json.float_field m "bound");
          })
        l
    | _ -> die "%s has no %s list" path key
  in
  (list "end_to_end", list "per_layer")

(* The (workload, seed) groups of untraced runs in a file, in workload
   order. *)
let groups runs =
  let rank (w, s) =
    (Option.value ~default:max_int (List.find_index (String.equal w) workloads), w, s)
  in
  List.sort_uniq (fun a b -> compare (rank a) (rank b))
    (List.filter_map
       (fun r ->
         match Json.(string_field r "workload", int_field r "seed", bool_field r "trace") with
         | Some w, Some s, Some false -> Some (w, s)
         | _ -> None)
       runs)

(* Untraced values of one metric for one workload and seed, across runs. *)
let values runs (workload, seed) metric =
  List.filter_map
    (fun r ->
      if
        Json.string_field r "workload" = Some workload
        && Json.int_field r "seed" = Some seed
        && Json.bool_field r "trace" = Some false
      then
        Option.bind (Json.member "e2e" r) (fun e ->
            Option.bind (Json.member metric e) (fun m -> Json.float_field m "value"))
      else None)
    runs

let deterministic = [ "sim_s"; "code_ops" ]

let describe vs =
  let q1, q3 = Stat.quartiles vs in
  Printf.sprintf "%.6g [%.6g, %.6g]" (Stat.median vs) q1 q3

let label (w, s) = Printf.sprintf "%s@%d" w s

let summary ~spec path =
  let e2e, _ = load_spec spec in
  let runs = load_runs path in
  List.iter
    (fun g ->
      List.iter
        (fun m ->
          match values runs g m.m_name with
          | [] -> ()
          | vs ->
            Printf.printf "%-15s %-15s n=%d median [q1, q3] = %s spread %.2f%% (bound %.0f%%)\n"
              (label g) m.m_name (List.length vs) (describe vs) (100.0 *. Stat.spread vs)
              (100.0 *. m.m_bound))
        e2e)
    (groups runs)

(* One verdict per workload, seed and end-to-end metric: better, worse,
   within bound, or unresolved when the run-to-run spread is wider than
   the bound (unless every new run beats every base run). Deterministic
   metrics must match exactly. *)
let compare_files ~spec base_path new_path =
  let e2e, _ = load_spec spec in
  let base = load_runs base_path and next = load_runs new_path in
  let bad = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun m ->
          match (values base g m.m_name, values next g m.m_name) with
          | [], _ | _, [] -> ()
          | b, n ->
            let mb = Stat.median b and mn = Stat.median n in
            let worse_by = (if m.m_lower then mn -. mb else mb -. mn) /. Float.abs mb in
            let beats x y = if m.m_lower then x < y else x > y in
            let all_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) b) n in
            let verdict =
              if List.mem m.m_name deterministic then
                if List.sort_uniq compare (b @ n) = [ mb ] then "identical"
                else if worse_by > 0.0 then "worse"
                else "better"
              else if Float.max (Stat.spread b) (Stat.spread n) > m.m_bound then
                if all_better then "better" else "unresolved"
              else if worse_by > m.m_bound then "worse"
              else if -.worse_by > m.m_bound then "better"
              else "within bound"
            in
            if verdict = "worse" || verdict = "unresolved" then incr bad;
            Printf.printf "%-15s %-15s base %s  new %s  delta %+.2f%%  %s\n" (label g) m.m_name
              (describe b) (describe n)
              (100.0 *. (mn -. mb) /. Float.abs mb)
              verdict)
        e2e)
    (groups base);
  if !bad > 0 then exit 1

(* The bench-smoke check: every workload for one second, plus one traced
   run; all must exit cleanly, fail nothing, report every metric that
   BENCHMARK.json names, and leave a trace that parses. *)
let smoke ~spec ~out_dir =
  let e2e, layers = load_spec spec in
  prepare_out_dir out_dir;
  let problems = ref [] in
  let expect o names =
    let got = List.map (fun (n, _, v) -> (n, v)) (metrics o) in
    List.iter
      (fun m ->
        match List.assoc_opt m.m_name got with
        | Some v when Float.is_finite v -> ()
        | _ -> problems := Printf.sprintf "%s: no %s" o.workload m.m_name :: !problems)
      names;
    if not (correct o) then
      problems := Printf.sprintf "%s: %d failed" o.workload o.result.Engine.failed :: !problems
  in
  List.iter
    (fun workload -> expect (measure ~workload ~seed:1 ~seconds:1.0 ~trace:false ~out_dir) e2e)
    workloads;
  let traced = measure ~workload:"upmem-prim" ~seed:1 ~seconds:2.0 ~trace:true ~out_dir in
  expect traced layers;
  let path = traced.result.Engine.trace_path in
  (match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Json.Obj _ -> ()
  | _ | (exception _) -> problems := "trace file does not parse" :: !problems);
  match !problems with
  | [] -> print_endline "bench-smoke: PASS"
  | ps ->
    List.iter (fun p -> prerr_endline ("bench-smoke: " ^ p)) (List.rev ps);
    exit 1

(* ----- command line ----- *)

let () =
  let command, flags =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: a :: b :: rest -> (`Compare (a, b), rest)
    | "summary" :: f :: rest -> (`Summary f, rest)
    | "smoke" :: rest -> (`Smoke, rest)
    | rest -> (`Run, rest)
  in
  let known =
    [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--out-dir"; "--role"; "--spec" ]
  in
  let rec pairs = function
    | [] -> []
    | k :: v :: rest when List.mem k known -> (k, v) :: pairs rest
    | a :: _ -> die "unexpected argument %s" a
  in
  let flags = pairs flags in
  let opt name default = Option.value ~default (List.assoc_opt name flags) in
  let spec = opt "--spec" "BENCHMARK.json" and out_dir = opt "--out-dir" ".bench_build" in
  match command with
  | `Compare (a, b) -> compare_files ~spec a b
  | `Summary f -> summary ~spec f
  | `Smoke -> smoke ~spec ~out_dir
  | `Run ->
    let workload = opt "--workload" "" in
    if not (workload = "all" || List.mem workload workloads) then
      die "--workload must be one of %s or all" (String.concat ", " workloads);
    let seed =
      match int_of_string_opt (opt "--seed" "") with
      | Some s -> s
      | None -> die "--seed expects an integer"
    in
    let seconds =
      match float_of_string_opt (opt "--seconds" "25") with
      | Some s when s > 0.0 -> s
      | _ -> die "--seconds expects a positive number"
    in
    let trace =
      match opt "--trace" "0" with "0" -> false | "1" -> true | _ -> die "--trace expects 0 or 1"
    in
    let json = match opt "--json" "" with "" -> None | f -> Some f in
    match opt "--role" "" with
    | "" -> supervise ~workload ~seed ~seconds ~trace ~json ~out_dir
    | ("setup" | "run") as role -> child ~role ~workload ~seed ~seconds ~trace ~out_dir
    | r -> die "unknown --role %s" r
