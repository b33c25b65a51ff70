(* Pass manager: named module-level transformations with optional
   verification after each pass, mirroring MLIR's pass infrastructure.

   Observability (see Cinm_support.Trace): when tracing or metrics
   collection is live, every pass run emits one host-clock span carrying
   its wall time, the op-count delta it caused, its per-pattern rewrite
   hit counts, and — when it failed — an [error] attribute with the
   structured diagnostic. The fast path with everything disabled is the
   bare pre-instrumentation code: no timing calls, no allocation. *)

module Trace = Cinm_support.Trace
module Log = Cinm_support.Log
module Config = Cinm_support.Config

type t = {
  pass_name : string;
  run : Func.modul -> unit;
  patterns : Rewrite.pattern list;
      (* non-empty for [of_patterns] passes: lets the instrumented runner
         count per-pattern hits without changing the pass body *)
}

let create ~name run = { pass_name = name; run; patterns = [] }

(* Build a pass from a set of rewrite patterns applied to every function. *)
let of_patterns ~name patterns =
  {
    pass_name = name;
    run = (fun m -> Rewrite.apply_to_module ~patterns m);
    patterns;
  }

(* Structured failure diagnostic: which pass failed, on which op (when
   known), and why. Pass bodies signal failure with the exceptions below;
   the [_result] runners capture them as a value so a driver can degrade
   (e.g. fall back to a CPU lowering) instead of dying. *)
type diag = { pass : string; op : string option; message : string }

let diag_to_string d =
  match d.op with
  | Some op -> Printf.sprintf "pass %s failed on %s: %s" d.pass op d.message
  | None -> Printf.sprintf "pass %s failed: %s" d.pass d.message

exception Pass_failed of diag

let () =
  Printexc.register_printer (function
    | Pass_failed d -> Some (diag_to_string d)
    | _ -> None)

(* The op an "op: message"-shaped diagnostic names, when the message came
   from a context (verifier, interpreter hook) that prefixed the op name. *)
let split_op message =
  match String.index_opt message ':' with
  | Some i
    when i > 0
         && String.length message > i + 1
         && String.for_all
              (fun c ->
                (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.'
                || c = '_')
              (String.sub message 0 i)
         && String.contains (String.sub message 0 i) '.' ->
    (Some (String.sub message 0 i),
     String.trim (String.sub message (i + 1) (String.length message - i - 1)))
  | _ -> (None, message)

(* ----- run settings: strict checking (mlir's -verify-each equivalent,
   plus a print->parse->print fixpoint assertion catching printer/parser
   drift and unprintable attributes), the per-pass wall-time budget
   (over-budget completion is a pass failure) and the reproducer
   directory. They come from the run's {!Cinm_support.Config}: the
   runners' [?config] when given, else the process default. A server
   passes one snapshot per request, so concurrent pipelines with
   different settings never race on process state. All are off by
   default: the uninstrumented fast path and byte-stable bench output are
   untouched. ----- *)

(* ----- crash reproducers (mlir's --mlir-pass-pipeline-crash-reproducer).

   When a reproducer directory is configured, [run_pipeline_result]
   snapshots the IR before each pass; on failure it writes a standalone
   .reproducer.mlir holding that snapshot plus a header naming the
   failing-and-remaining pipeline, so the exact failure replays with one
   [cinm_opt --run-reproducer] invocation. ----- *)

type reproducer = { path : string; pipeline : string list; diag : diag }

(* Domain-local: a server runs each request's pipeline on one pool
   domain, so concurrent requests never observe each other's reproducer
   (the CLI runs everything on one domain and is unaffected). *)
let last_repro : reproducer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let last_reproducer () = Domain.DLS.get last_repro

(* distinguishes several failures written by one process; atomic so
   concurrent requests never reuse a filename *)
let repro_seq = Atomic.make 0

(* When the fuzzer drives a pipeline it records the generating seed here
   so crash reproducers name the exact cinm_fuzz invocation that replays
   them; None outside a fuzzing run. *)
let fuzz_seed : int option Atomic.t = Atomic.make None
let set_fuzz_seed s = Atomic.set fuzz_seed s
let current_fuzz_seed () = Atomic.get fuzz_seed

let reproducer_header ~strict ~pipeline =
  let flags = if strict then "--verify-each " else "" in
  Printf.sprintf "// cinm-opt %s--passes %s" flags (String.concat "," pipeline)

(* The replay pipeline named by a reproducer's header comment, scanning
   only the leading [//] lines (the parser skips them as comments). *)
let reproducer_pipeline_of_text text =
  let header_line line =
    let toks =
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    in
    if List.exists (fun t -> t = "cinm-opt" || t = "cinm_opt") toks then
      let rec go = function
        | "--passes" :: spec :: _ ->
          Some (String.split_on_char ',' spec |> List.filter (fun s -> s <> ""))
        | _ :: rest -> go rest
        | [] -> None
      in
      go toks
    else None
  in
  let rec scan = function
    | [] -> None
    | line :: rest ->
      let line = String.trim line in
      if line = "" then scan rest
      else if String.length line >= 2 && String.sub line 0 2 = "//" then (
        match header_line line with Some p -> Some p | None -> scan rest)
      else None (* reached the IR without finding a header *)
  in
  scan (String.split_on_char '\n' text)

let write_reproducer ?(req_id = "") ~dir ~strict ~pipeline ~(diag : diag) ir_text =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  (* The sequence number is unique within this process, but several
     processes sharing one reproducer dir (fuzzer workers, parallel CI
     shards) can race to the same name — O_EXCL makes creation atomic,
     and a collision just advances the sequence and retries. *)
  let rec open_fresh attempts =
    if attempts = 0 then None
    else
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%d.reproducer.mlir" diag.pass
             (Atomic.fetch_and_add repro_seq 1 + 1))
      in
      match open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 path with
      | oc -> Some (path, oc)
      | exception Sys_error _ -> open_fresh (attempts - 1)
  in
  match open_fresh 64 with
  | None ->
    Log.warn "could not write crash reproducer in %s: no creatable unique name"
      dir;
    None
  | Some (path, oc) -> (
    try
      output_string oc (reproducer_header ~strict ~pipeline);
      output_char oc '\n';
      (* correlate the artifact with the server request that produced it;
         a leading comment line, so the replay parser is unaffected *)
      if req_id <> "" then output_string oc ("// req-id: " ^ req_id ^ "\n");
      (match Atomic.get fuzz_seed with
      | Some s -> output_string oc (Printf.sprintf "// fuzz-seed: %d\n" s)
      | None -> ());
      List.iter
        (fun l -> output_string oc ("// failure: " ^ l ^ "\n"))
        (String.split_on_char '\n' (diag_to_string diag));
      output_string oc ir_text;
      close_out oc;
      let r = { path; pipeline; diag } in
      Domain.DLS.set last_repro (Some r);
      Log.warn "wrote crash reproducer %s (replay: cinm_opt --run-reproducer %s)"
        path path;
      Some r
    with Sys_error msg ->
      (try close_out_noerr oc with _ -> ());
      Log.warn "could not write crash reproducer in %s: %s" dir msg;
      None)

(* ----- opt-in IR snapshots (mlir's -print-ir-after-* equivalent) ----- *)

type ir_dump = Dump_never | Dump_after_change | Dump_after_all

let ir_dump_mode = ref Dump_never
let set_ir_dump m = ir_dump_mode := m

let () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "CINM_PRINT_IR") with
  | Some ("change" | "after-change") -> ir_dump_mode := Dump_after_change
  | Some ("all" | "after-all") -> ir_dump_mode := Dump_after_all
  | _ -> ()

let dump_ir ~pass_name m =
  prerr_endline (Printf.sprintf "// ----- IR after %s ----- //" pass_name);
  prerr_string (Printer.module_to_string m);
  flush stderr

let count_ops (m : Func.modul) =
  let n = ref 0 in
  List.iter (Func.walk (fun _ -> incr n)) m.Func.funcs;
  !n

(* ----- runners ----- *)

(* 1-based first differing line of two texts, for round-trip diagnostics. *)
let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if x <> y then Some (i, x, y) else go (i + 1) (xs, ys)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end of reprint>")
    | [], y :: _ -> Some (i, "<end of print>", y)
  in
  go 1 (la, lb)

(* Strict mode's print->parse->print fixpoint assertion. *)
let strict_roundtrip pass_name m =
  let txt = Printer.module_to_string m in
  match Parser.parse_module_text txt with
  | exception Parser.Parse_error e ->
    Error
      (Printf.sprintf "strict round-trip after %s: printed IR failed to re-parse: %s"
         pass_name (Parser.error_to_string e))
  | m2 ->
    let txt2 = Printer.module_to_string m2 in
    if String.equal txt txt2 then Ok ()
    else
      let detail =
        match first_diff_line txt txt2 with
        | Some (i, a, b) ->
          Printf.sprintf " (first difference at line %d: %S vs %S)" i a b
        | None -> ""
      in
      Error
        (Printf.sprintf
           "strict round-trip after %s: print->parse->print is not a fixpoint%s"
           pass_name detail)

let run_one_result ?(verify = true) ?(config = Config.default ()) pass m =
  let strict = config.Config.strict in
  let budget = config.Config.pass_budget_s in
  let fail message =
    let op, message = split_op message in
    Error { pass = pass.pass_name; op; message }
  in
  let verified () =
    if (not verify) && not strict then Ok ()
    else (
      match Verifier.verify_module m with
      | [] ->
        if not strict then Ok ()
        else (
          match strict_roundtrip pass.pass_name m with
          | Ok () -> Ok ()
          | Error msg -> fail msg)
      | errs ->
        fail
          ("post-pass verification failed:\n"
          ^ String.concat "\n" (List.map Verifier.error_to_string errs)))
  in
  let instrumented = Trace.enabled () || Trace.Metrics.enabled () in
  if (not instrumented) && !ir_dump_mode = Dump_never && budget = None
  then (
    match pass.run m with
    | exception Verifier.Verification_failed msg -> fail msg
    | exception Invalid_argument msg -> fail msg
    | exception Failure msg -> fail msg
    | () -> verified ())
  else begin
    let before_txt =
      if !ir_dump_mode = Dump_after_change then Printer.module_to_string m
      else ""
    in
    let ops_before = count_ops m in
    let hits =
      if pass.patterns = [] then [||]
      else Array.make (List.length pass.patterns) 0
    in
    let t0 = Trace.now_host () in
    (* the wall time and the span below cover the failing case too: a pass
       that dies mid-flight still shows up in the timeline, with the diag
       attached *)
    let result =
      match
        if Array.length hits > 0 then
          Rewrite.apply_to_module ~hits ~patterns:pass.patterns m
        else pass.run m
      with
      | exception Verifier.Verification_failed msg -> fail msg
      | exception Invalid_argument msg -> fail msg
      | exception Failure msg -> fail msg
      | () -> verified ()
    in
    let wall_s = Trace.now_host () -. t0 in
    (* over-budget completion converts to a failure: the pipeline stops and
       the reproducer path captures the input that blew the budget *)
    let result =
      match (result, budget) with
      | Ok (), Some b when wall_s > b ->
        fail
          (Printf.sprintf
             "exceeded the per-pass wall-time budget: %.3fs > %.3fs (CINM_PASS_BUDGET_S)"
             wall_s b)
      | _ -> result
    in
    let ops_after = count_ops m in
    if Trace.Metrics.enabled () then begin
      Trace.Metrics.incr (Printf.sprintf "pass.%s.runs" pass.pass_name);
      Trace.Metrics.observe
        (Printf.sprintf "pass.%s.wall_ms" pass.pass_name)
        (1e3 *. wall_s);
      Array.iteri
        (fun i h ->
          if h > 0 then
            Trace.Metrics.incr ~by:h
              (Printf.sprintf "rewrite.%s.pattern%d" pass.pass_name i))
        hits
    end;
    if Trace.enabled () then begin
      let hit_args =
        Array.to_list
          (Array.mapi
             (fun i h -> (Printf.sprintf "pattern%d_hits" i, Trace.Int h))
             hits)
      in
      let err =
        match result with
        | Ok () -> []
        | Error d -> [ ("error", Trace.Str (diag_to_string d)) ]
      in
      let rid =
        if config.Config.req_id = "" then []
        else [ ("req_id", Trace.Str config.Config.req_id) ]
      in
      Trace.complete ~cat:"pass"
        ~args:
          ([
             ("ops_before", Trace.Int ops_before);
             ("ops_after", Trace.Int ops_after);
             ("ops_delta", Trace.Int (ops_after - ops_before));
           ]
          @ hit_args @ err @ rid)
        ~clock:Trace.Host ~pid:Trace.host_pid ~track:"passes" ~ts:t0
        ~dur:wall_s
        ("pass:" ^ pass.pass_name)
    end;
    (match (!ir_dump_mode, result) with
    | Dump_after_all, _ -> dump_ir ~pass_name:pass.pass_name m
    | Dump_after_change, Ok () when Printer.module_to_string m <> before_txt ->
      dump_ir ~pass_name:pass.pass_name m
    | _ -> ());
    result
  end

let run_one ?verify ?config pass m =
  match run_one_result ?verify ?config pass m with
  | Ok () -> ()
  | Error d -> raise (Pass_failed d)

let run_pipeline_result ?verify ?(trace = false) ?(config = Config.default ()) passes m =
  let repro_dir = config.Config.reproducer_dir in
  let rec go pipeline =
    match pipeline with
    | [] -> Ok ()
    | pass :: rest -> (
      (* the inter-pass cancellation point: a request past its deadline
         (or cancelled by the server) aborts before the next pass starts;
         Config.Cancelled propagates — it is not a pass failure and must
         not trigger degradation paths like the CPU fallback *)
      Config.check config;
      if trace then Log.info "running pass %s" pass.pass_name
      else Log.debug "running pass %s" pass.pass_name;
      (* pre-pass snapshot, taken only when reproducers are live: the
         normal path pays nothing *)
      let snapshot =
        if repro_dir = None then None else Some (Printer.module_to_string m)
      in
      match run_one_result ?verify ~config pass m with
      | Ok () -> go rest
      | Error d ->
        (match (snapshot, repro_dir) with
        | Some txt, Some dir ->
          ignore
            (write_reproducer ~req_id:config.Config.req_id ~dir
               ~strict:config.Config.strict
               ~pipeline:(List.map (fun p -> p.pass_name) pipeline)
               ~diag:d txt)
        | _ -> ());
        Error d)
  in
  go passes

let run_pipeline ?verify ?trace ?config passes m =
  match run_pipeline_result ?verify ?trace ?config passes m with
  | Ok () -> ()
  | Error d -> raise (Pass_failed d)
