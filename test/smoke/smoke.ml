(* The checks behind `dune build @smoke` and `dune build @bench-gate`
   (rules in this directory's dune file). Each subcommand exits 0 when
   its invariant holds, and 1 with the reason on stderr when it does not:

     smoke pin PIN RUN...          every RUN matches the bench pin PIN
     smoke scaling RUN             monotone rank scaling, >= 1.5x overlap
     smoke trace FILE              a Perfetto-shaped bench --trace file
     smoke lint LIB_DIR            no bare failwith / Printf.eprintf
     smoke reduce OPT REDUCE FILE  capture, replay and reduce a crash
     smoke daemon SERVE_EXE        the standalone daemon under chaos
     smoke gate BENCH PIN          best of 3 --quick walls within 15% *)

module Json = Cinm_serve_lib.Json
module Client = Cinm_serve_lib.Client
module Exposition = Cinm_serve_lib.Exposition
module Chaos = Cinm_fuzz_lib.Chaos
module Bench_pin = Cinm_check.Bench_pin
module Perfetto = Cinm_check.Perfetto

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let ok fmt = Printf.ksprintf print_endline fmt
let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* A passing check removes its scratch directory; a failing one keeps it
   for the log. *)
let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> remove_tree (Filename.concat p n)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* Run [exe args] with stdout and stderr appended to [log]; exit status. *)
let run ~log exe args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd in
  Unix.close fd;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255

(* ----- bench pins ----- *)

let pin pin_path runs =
  let pinned = Bench_pin.load pin_path in
  List.iter
    (fun path ->
      let run = Bench_pin.load path in
      match Bench_pin.diff ~pin:pinned run with
      | [] -> ok "%s: %d experiments match %s" path (List.length (Bench_pin.experiments run)) pin_path
      | problems -> fail "%s drifted from %s:\n%s" path pin_path (String.concat "\n" problems))
    runs

let series run exp =
  match Option.bind (List.assoc_opt exp (Bench_pin.experiments run)) (Json.member "series") with
  | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.get_float v)) kvs
  | _ -> fail "no %s series in the run" exp

let scaling path =
  let run = Bench_pin.load path in
  let sc = series run "scaling" in
  List.iter
    (fun b ->
      let at r =
        match List.assoc_opt (Printf.sprintf "%s.kernel_s@%dr" b r) sc with
        | Some t -> (r, t)
        | None -> fail "%s: no kernel time at %d ranks" b r
      in
      let by_rank = List.map at [ 1; 4; 16; 64 ] in
      let rec decreasing = function
        | (_, a) :: ((_, z) :: _ as rest) -> a > z && decreasing rest
        | _ -> true
      in
      let shown = String.concat ", " (List.map (fun (r, t) -> Printf.sprintf "%dr %.6g s" r t) by_rank) in
      if not (decreasing by_rank) then fail "%s: kernel time not strictly decreasing over ranks: %s" b shown;
      ok "%s: %s" b shown)
    [ "va"; "red" ];
  let het = series run "hetero" in
  List.iter
    (fun b ->
      match List.assoc_opt (b ^ ".overlap_speedup") het with
      | Some sp when sp >= 1.5 -> ok "%s: overlap %.2fx" b sp
      | Some sp -> fail "%s: overlap speedup %.2fx < 1.5x" b sp
      | None -> fail "%s: no overlap_speedup in the hetero series" b)
    [ "het-mix"; "het-batch" ]

(* ----- trace export ----- *)

let trace path =
  match Perfetto.events (read_file path) with
  | Error e -> fail "%s: %s" path e
  | Ok evs ->
    let spans = Perfetto.spans evs in
    let has p = List.exists p spans in
    if not (has (fun e -> String.starts_with ~prefix:"pass:" (Option.value (Json.string_field e "name") ~default:"")))
    then fail "%s: no pass spans" path;
    if not (has (fun e -> List.mem (Json.string_field e "cat") [ Some "mvm"; Some "program"; Some "lane"; Some "kernel" ]))
    then fail "%s: no simulated device spans" path;
    ok "%s: %d events, %d spans" path (List.length evs) (List.length spans)

(* ----- lint ----- *)

let rec ml_files dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then ml_files p else if Filename.check_suffix name ".ml" then [ p ] else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let is_word_char c = c = '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')

(* [word] occurs in [line] not preceded or followed by a word character
   (grep -w); with [~whole:false], anywhere *)
let mentions ?(whole = true) word line =
  let n = String.length line and k = String.length word in
  let rec go i =
    i + k <= n
    && ((String.sub line i k = word
        && ((not whole)
           || ((i = 0 || not (is_word_char line.[i - 1]))
              && (i + k = n || not (is_word_char line.[i + k])))))
       || go (i + 1))
  in
  go 0

let lint lib =
  let offences ~files ~why p =
    List.concat_map
      (fun f ->
        List.filter p (In_channel.with_open_bin f In_channel.input_lines)
        |> List.map (fun l -> Printf.sprintf "%s: %s (%s)" f (String.trim l) why))
      files
  in
  let all = ml_files lib in
  let log_ml = Filename.concat (Filename.concat lib "support") "log.ml" in
  let found =
    (* transforms raise invalid_arg with an "op: message" prefix, which the
       pass manager reports as a structured diagnostic *)
    offences ~files:(ml_files (Filename.concat lib "transforms"))
      ~why:"raise invalid_arg with an op-prefixed message" (mentions "failwith")
    (* library diagnostics go through the leveled logger, Cinm_support.Log *)
    @ offences
        ~files:(List.filter (( <> ) log_ml) all)
        ~why:"use Cinm_support.Log" (mentions ~whole:false "Printf.eprintf")
  in
  if found <> [] then fail "lint:\n%s" (String.concat "\n" found);
  ok "lint: %d files clean" (List.length all)

(* ----- crash reproducer -> replay -> reduction ----- *)

let reduce opt reducer fixture =
  let d = temp_dir "cinm-reduce-smoke" in
  let log = Filename.concat d "log" in
  let repro_dir = Filename.concat d "repro" in
  let reduced = Filename.concat d "reduced.mlir" in
  let must_fail what args =
    if run ~log opt args = 0 then fail "reduce: %s unexpectedly succeeded (log: %s)" what log
  in
  must_fail "the seeded pipeline" [ "--reproducer-dir"; repro_dir; "--passes"; "debug-fail-on-gemm"; fixture ];
  let repro =
    match List.filter (fun f -> Filename.check_suffix f ".reproducer.mlir") (Array.to_list (Sys.readdir repro_dir)) with
    | [ f ] -> Filename.concat repro_dir f
    | fs -> fail "reduce: expected one reproducer, found %d" (List.length fs)
  in
  must_fail "replaying the reproducer" [ "--run-reproducer"; repro ];
  if run ~log reducer [ repro; "-o"; reduced ] <> 0 then fail "reduce: cinm_reduce failed (log: %s)" log;
  must_fail "replaying the reduced module" [ "--run-reproducer"; reduced ];
  (* one op per line, each starting with its result (%) or its quoted name *)
  let ops =
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           l <> "" && (l.[0] = '%' || l.[0] = '"'))
         (In_channel.with_open_bin reduced In_channel.input_lines))
  in
  if ops > 6 then fail "reduce: reduction left %d ops (> 6):\n%s" ops (read_file reduced);
  remove_tree d;
  ok "reduce: reproducer captured, replayed and reduced to %d ops" ops

(* ----- the standalone daemon ----- *)

let daemon serve =
  let d = temp_dir "cinm-serve-smoke" in
  let path = Filename.concat d in
  let socket = path "serve.sock" and log = path "serve.log" in
  List.iter (fun s -> Sys.mkdir (path s) 0o755) [ "repros"; "traces" ];
  let port = Exposition.free_port () in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Unix.create_process serve
      [| serve; "--socket"; socket; "--jobs"; "2"; "--pass-budget-s"; "30";
         "--reproducer-dir"; path "repros"; "--metrics-port"; string_of_int port;
         "--trace-dir"; path "traces"; "--slow-request-s"; "0.001" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let exited = ref false in
  Fun.protect ~finally:(fun () ->
      if not !exited then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  @@ fun () ->
  let fail fmt = Printf.ksprintf (fun s -> fail "daemon: %s (log: %s)" s log) fmt in
  let c = Client.connect ~attempts:200 socket in
  let request ?benchmark ?pass_budget_s ?fallback ?trace op =
    Client.request c (Client.make_request ?benchmark ?pass_budget_s ?fallback ?trace op)
  in
  (* the flags reach the daemon: --trace-dir ... *)
  let r = request ~benchmark:"sel" ~trace:true "run" in
  (match Json.string_field r "trace_path" with
  | Some p when Filename.dirname p = path "traces" && mentions ~whole:false "run:sel" (read_file p) -> ()
  | _ -> fail "traced run did not write its trace under --trace-dir: %s" (Json.to_string r));
  (* ... and --reproducer-dir *)
  let r = request ~benchmark:"mm" ~pass_budget_s:1e-9 ~fallback:false "run" in
  (match Option.bind (Json.member "error" r) (fun e -> Json.string_field e "reproducer") with
  | Some p when Sys.file_exists p && Filename.dirname p = path "repros" -> ()
  | _ -> fail "over-budget pass did not leave a reproducer under --reproducer-dir: %s" (Json.to_string r));
  Client.close c;
  let report = Chaos.run ~socket ~requests:200 ~clients:4 () in
  if report.Chaos.violations <> [] then fail "chaos:\n%s" (String.concat "\n" report.Chaos.violations);
  (match Exposition.scrape ~port with
  | Error problems -> fail "exposition: %s" (String.concat "; " problems)
  | Ok r ->
    let fams = r.Exposition.families in
    if List.assoc_opt "cinm_serve_request_seconds" fams <> Some "histogram" || not (List.mem_assoc "cinm_serve_inflight" fams)
    then fail "exposition lacks the request histogram or the inflight gauge");
  let c = Client.connect socket in
  if Json.bool_field (Client.request c (Client.make_request "shutdown")) "ok" <> Some true then
    fail "shutdown refused";
  Client.close c;
  let status = snd (Unix.waitpid [] pid) in
  exited := true;
  if status <> Unix.WEXITED 0 then fail "the daemon did not exit 0 after shutdown";
  remove_tree d;
  ok "daemon: %d chaos requests (%d ok, %d structured errors), valid exposition, clean exit"
    report.Chaos.sent report.Chaos.ok report.Chaos.errors

(* ----- wall-time gate ----- *)

let gate bench pin_path =
  let total doc =
    List.fold_left
      (fun acc (_, e) -> acc +. Option.value (Json.float_field e "wall_s") ~default:0.0)
      0.0 (Bench_pin.experiments doc)
  in
  let out = Filename.temp_file "cinm-gate" ".json" in
  let best =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let args = [ "--quick"; "--jobs"; "1"; "--interp"; "compiled"; "--json"; out ] in
           if run ~log:Filename.null bench args <> 0 then fail "gate: bench failed";
           total (Bench_pin.load out)))
  in
  Sys.remove out;
  let pinned = total (Bench_pin.load pin_path) in
  ok "gate: best of 3 %.3f s, pinned %.3f s" best pinned;
  if best > pinned *. 1.15 then
    fail "gate: wall-time regression: best of 3 = %.3f s exceeds the pinned %.3f s by more than 15%%" best
      pinned

let () =
  try
    match List.tl (Array.to_list Sys.argv) with
    | "pin" :: p :: (_ :: _ as runs) -> pin p runs
    | [ "scaling"; run ] -> scaling run
    | [ "trace"; file ] -> trace file
    | [ "lint"; lib ] -> lint lib
    | [ "reduce"; opt; reducer; fixture ] -> reduce opt reducer fixture
    | [ "daemon"; serve ] -> daemon serve
    | [ "gate"; bench; p ] -> gate bench p
    | _ -> fail "usage: see the header of test/smoke/smoke.ml"
  with Failed s ->
    prerr_endline ("smoke: " ^ s);
    exit 1
