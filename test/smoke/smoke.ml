(* The checks behind `dune build @smoke` and `dune build @bench-gate`
   (rules in this directory's dune file). Each subcommand exits 0 when
   its invariant holds, and 1 with the reason on stderr when it does not:

     smoke pin PIN RUN...          every RUN matches the bench pin PIN
     smoke scaling RUN             monotone rank scaling, >= 1.5x overlap
     smoke trace FILE              a Perfetto-shaped bench --trace file
     smoke lint LIB_DIR TEST_DIR   no bare failwith / Printf.eprintf, no
                                   global state in lib/transforms or
                                   lib/interp (but atomic counters), no
                                   Interp.eval_* outside lib/interp, no
                                   Array.blit in lib/interp but tensor.ml,
                                   no eval_rpn in lib/interp, no
                                   Array.sort in tensor.ml,
                                   no Cnm_d.workgroup but in
                                   Cinm_to_cnm.workgroup, no Schedule
                                   in the simulators, no Domain.spawn
                                   but in Pool, no Pool.run but in
                                   Pool, the UPMEM machine and Tensor;
                                   no clock in a tier-1 test but to
                                   bound a wait
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

(* The .ml files under [dir], and the .mli files too with [~mli:true]. *)
let rec ml_files ?(mli = false) dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then ml_files ~mli p
      else if Filename.check_suffix name ".ml" || (mli && Filename.check_suffix name ".mli") then [ p ]
      else [])
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

(* The top-level value bindings of a file ("let name =" or
   "let name : ty =" at column 0, no parameters), as the binding line and
   the first token of its right-hand side, which may start on the next
   line. *)
let top_level_values lines =
  (* [l] from [i] up to the first character not in [keep] *)
  let span keep l i =
    let n = String.length l in
    let rec go j = if j < n && keep l.[j] then go (j + 1) else j in
    String.sub l i (go i - i)
  in
  let first_token rest = span (fun c -> c <> ' ' && c <> '(') (String.trim rest) 0 in
  let rec go acc = function
    | l :: more when String.starts_with ~prefix:"let " l ->
      let name = span (fun c -> is_word_char c || c = '\'') l 4 in
      let e = 4 + String.length name in
      let after = String.trim (String.sub l e (String.length l - e)) in
      let rhs =
        match String.index_opt after '=' with
        | Some i when name <> "" && (after.[0] = '=' || after.[0] = ':') ->
          let rest = String.sub after (i + 1) (String.length after - i - 1) in
          if String.trim rest <> "" then Some (first_token rest)
          else List.find_opt (fun m -> String.trim m <> "") more |> Option.map first_token
        | _ -> None
      in
      go (match rhs with Some tok -> (l, tok) :: acc | None -> acc) more
    | _ :: more -> go acc more
    | [] -> List.rev acc
  in
  go [] lines

(* Passes and executors run concurrently on the daemon's pool domains, so
   their state is per run, or lives on the IR it derives from: a
   top-level binding to a fresh mutable container is process-global
   state. A qualified constructor (Cinm_support.Vec.create) counts too. *)
let global_state_ctors =
  [ "ref"; "Hashtbl.create"; "Atomic.make"; "Mutex.create"; "Queue.create"; "Vec.create"; "Array.make" ]

let is_global_state ~allow tok =
  List.exists
    (fun c -> (not (List.mem c allow)) && (tok = c || String.ends_with ~suffix:("." ^ c) tok))
    global_state_ctors

(* Each line of [lines] with the name of the top-level binding
   ("let name" or "and name" at column 0) it belongs to. *)
let with_binding lines =
  let name_after l =
    let rest = String.sub l 4 (String.length l - 4) in
    let rest = if String.starts_with ~prefix:"rec " rest then String.sub rest 4 (String.length rest - 4) else rest in
    let n = String.length rest in
    let rec go j = if j < n && (is_word_char rest.[j] || rest.[j] = '\'') then go (j + 1) else j in
    String.sub rest 0 (go 0)
  in
  List.rev
    (snd
       (List.fold_left
          (fun (cur, acc) l ->
            let cur =
              if String.starts_with ~prefix:"let " l || String.starts_with ~prefix:"and " l then name_after l
              else cur
            in
            (cur, (cur, l) :: acc))
          ("", []) lines))

let lint lib tests =
  let offences ~files ~why p =
    List.concat_map
      (fun f ->
        List.filter p (In_channel.with_open_bin f In_channel.input_lines)
        |> List.map (fun l -> Printf.sprintf "%s: %s (%s)" f (String.trim l) why))
      files
  in
  let global_state ~files ~allow what =
    List.concat_map
      (fun f ->
        top_level_values (In_channel.with_open_bin f In_channel.input_lines)
        |> List.filter (fun (_, tok) -> is_global_state ~allow tok)
        |> List.map (fun (l, _) ->
               Printf.sprintf "%s: %s (process-global state in %s: keep it per run)" f
                 (String.trim l) what))
      files
  in
  let all = ml_files lib in
  let transforms = ml_files (Filename.concat lib "transforms") in
  let log_ml = Filename.concat (Filename.concat lib "support") "log.ml" in
  let pool_ml = Filename.concat (Filename.concat lib "support") "pool.ml" in
  let interp_dir = Filename.concat lib "interp" in
  let interp_files, outside_interp =
    List.partition (fun f -> String.starts_with ~prefix:(interp_dir ^ "/") f) all
  in
  let found =
    (* transforms raise invalid_arg with an "op: message" prefix, which the
       pass manager reports as a structured diagnostic *)
    offences ~files:transforms
      ~why:"raise invalid_arg with an op-prefixed message" (mentions "failwith")
    (* library diagnostics go through the leveled logger, Cinm_support.Log *)
    @ offences
        ~files:(List.filter (( <> ) log_ml) all)
        ~why:"use Cinm_support.Log" (mentions ~whole:false "Printf.eprintf")
    (* ops run through Compile (run_body, prepare/run), the one executor
       that honours the interpreter choice; a tree-walk of IR elsewhere
       would be a second executor *)
    @ offences ~files:outside_interp ~why:"run IR through Compile"
        (fun l -> mentions "Interp.eval_op" l || mentions "Interp.eval_region" l)
    (* int payloads copy through Tensor.blit_ints, which skips the write
       barrier Array.blit runs per element; tensor.ml alone chooses
       between the int and float copies *)
    @ offences
        ~files:(List.filter (( <> ) (Filename.concat interp_dir "tensor.ml")) interp_files)
        ~why:"copy ints with Tensor.blit_ints" (mentions "Array.blit")
    (* host kernels parse an RPN expression once per execution
       (Tensor.ew_expr), not once per element *)
    @ offences ~files:interp_files ~why:"run RPN through Tensor.ew_expr" (mentions "eval_rpn")
    (* top-k selection is a size-k heap, not a sort of every candidate *)
    @ offences
        ~files:[ Filename.concat interp_dir "tensor.ml" ]
        ~why:"select with the k-best heap" (mentions "Array.sort")
    @ global_state ~files:transforms ~allow:[] "a pass"
    (* the parallel sites stay few and explicit: the pool alone spawns
       domains, and only the UPMEM launch (one index per DPU) and the
       host GEMM (row chunks) run parallel loops on it *)
    @ offences
        ~files:(List.filter (( <> ) pool_ml) all)
        ~why:"spawn domains through Cinm_support.Pool" (mentions "Domain.spawn")
    @ offences
        ~files:
          (List.filter
             (fun f ->
               not
                 (List.mem f
                    [ pool_ml;
                      Filename.concat (Filename.concat lib "upmem_sim") "machine.ml";
                      Filename.concat interp_dir "tensor.ml" ]))
             all)
        ~why:"parallel loops run in the UPMEM launch and the host GEMM only"
        (mentions "Pool.run")
    (* one rule shapes every UPMEM workgroup: the DPUs a launch's rows
       fill, up to the configured count *)
    @ List.concat_map
        (fun f ->
          with_binding (In_channel.with_open_bin f In_channel.input_lines)
          |> List.filter (fun (binding, l) ->
                 mentions "Cnm_d.workgroup" l
                 && not (f = Filename.concat (Filename.concat lib "transforms") "cinm_to_cnm.ml" && binding = "workgroup"))
          |> List.map (fun (_, l) ->
                 Printf.sprintf "%s: %s (shape workgroups through Cinm_to_cnm.workgroup)" f (String.trim l)))
        all
    (* compiled code reaches the tree-walker in one place: the binding
       that stages region-carrying ops through the environment (and
       [eval_body], the tree-walker's form of [exec ~each]); every other
       op runs through Interp.apply off the register file *)
    @ (let compile_ml = Filename.concat interp_dir "compile.ml" in
       with_binding (In_channel.with_open_bin compile_ml In_channel.input_lines)
       |> List.filter (fun (binding, l) ->
              (mentions "Interp.env" l && binding <> "compile_staged")
              || mentions "Interp.eval_op" l
                 && not (List.mem binding [ "compile_staged"; "eval_body" ]))
       |> List.map (fun (_, l) ->
              Printf.sprintf "%s: %s (run the op through Interp.apply)" compile_ml
                (String.trim l)))
    (* the executor keeps derived state on the IR (compiled code on its
       block); only domain-safe counters are process-wide *)
    @ global_state ~files:interp_files ~allow:[ "Atomic.make" ] "the executor"
    (* the simulators account time into their stats; the hetero schedule
       recorder (core/stream_exec.ml) alone turns that into schedule
       events *)
    @ offences
        ~files:
          (List.concat_map
             (fun d -> ml_files ~mli:true (Filename.concat lib d))
             [ "upmem_sim"; "memristor_sim"; "cam_sim" ])
        ~why:"schedule events are built in Stream_exec" (mentions "Schedule")
    (* tier-1 tests count work (minor words, stats counters) instead of
       timing it, so a loaded machine cannot fail them; a clock may only
       bound a wait, on the line that computes or checks its deadline *)
    @ offences
        ~files:
          (List.filter (fun f -> not (Sys.is_directory f)) (ml_files tests)
          |> List.filter (fun f -> Filename.dirname f = tests))
        ~why:"count work instead of timing it"
        (fun l ->
          (mentions "Unix.gettimeofday" l || mentions "Sys.time" l)
          && not (mentions ~whole:false "deadline" l))
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
    | [ "lint"; lib; tests ] -> lint lib tests
    | [ "reduce"; opt; reducer; fixture ] -> reduce opt reducer fixture
    | [ "daemon"; serve ] -> daemon serve
    | [ "gate"; bench; p ] -> gate bench p
    | _ -> fail "usage: see the header of test/smoke/smoke.ml"
  with Failed s ->
    prerr_endline ("smoke: " ^ s);
    exit 1
