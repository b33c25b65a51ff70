(* The serve wire protocol: newline-delimited JSON, one request object in,
   one response object out. Inline ops (health/stats/shutdown) and
   protocol errors answer in order; concurrently admitted compile/run/
   bench responses may come back in any order — pipelining clients match
   them by ["id"].

   Request shape (only [op] is required; "metrics" returns the
   telemetry registry, "trace": true captures the request's spans):

     {"op": "run", "id": "r42", "benchmark": "va", "backend": "upmem",
      "strict": true, "interp": "compiled", "max_steps": 100000,
      "deadline_s": 5.0, "pass_budget_s": 0.5, "faults": "dpu_fail=0.05",
      "fallback": false, "check": true, "repeats": 3, "trace": true}

   Responses always carry ["ok"] and echo ["id"]/["op"]; failures carry a
   structured ["error"] object with a stable [code], a human [message]
   and, where applicable, parse position (line/col/context) or the crash
   reproducer path. The decoder is strict about types — a mistyped field
   is a [bad_request], not a silent default — but lenient about unknown
   fields, so clients can grow. *)

type op = Compile | Run | Bench | Health | Stats | Metrics | Shutdown

let op_name = function
  | Compile -> "compile"
  | Run -> "run"
  | Bench -> "bench"
  | Health -> "health"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "compile" -> Some Compile
  | "run" -> Some Run
  | "bench" -> Some Bench
  | "health" -> Some Health
  | "stats" -> Some Stats
  | "metrics" -> Some Metrics
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : string option;
  op : op;
  benchmark : string;  (** "" for benchmark-less ops *)
  backend : string;  (** "host" | "upmem" | "cim" | "hetero" *)
  strict : bool option;
  interp : string option;
  max_steps : int option;
  deadline_s : float option;
  pass_budget_s : float option;
  faults : string option;  (** raw spec, e.g. "dpu_fail=0.05,seed=7" *)
  fallback : bool;  (** CPU fallback on device-lowering failure *)
  check : bool;  (** verify device results against the host reference *)
  repeats : int;  (** bench: number of timed runs *)
  trace : bool;
      (** capture this request's spans in isolation and attach the
          Perfetto JSON (or a --trace-dir path) to the response *)
}

(* Stable machine-readable failure taxonomy; the loadgen and CI smoke
   script assert on these strings, so treat them as API. *)
type error_code =
  | Parse_error_code
  | Oversized
  | Bad_request
  | Unknown_benchmark
  | Pass_failed
  | Watchdog
  | Deadline_exceeded
  | Cancelled
  | Overloaded
  | Shutting_down
  | Internal

let code_name = function
  | Parse_error_code -> "parse_error"
  | Oversized -> "oversized"
  | Bad_request -> "bad_request"
  | Unknown_benchmark -> "unknown_benchmark"
  | Pass_failed -> "pass_failed"
  | Watchdog -> "watchdog"
  | Deadline_exceeded -> "deadline_exceeded"
  | Cancelled -> "cancelled"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let all_codes =
  [
    Parse_error_code; Oversized; Bad_request; Unknown_benchmark; Pass_failed;
    Watchdog; Deadline_exceeded; Cancelled; Overloaded; Shutting_down; Internal;
  ]

(* ----- request decoding ----- *)

(* A typed optional field: [Ok None] when absent, [Error _] when present
   with the wrong type — mistyped knobs must not silently default. *)
let opt_field j key get ty =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match get v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" key ty))

let ( let* ) = Result.bind

let decode (j : Json.t) : (request, string) result =
  match j with
  | Json.Obj _ ->
    let* id = opt_field j "id" Json.get_string "a string" in
    let* op_str = opt_field j "op" Json.get_string "a string" in
    let* op =
      match op_str with
      | None -> Error "missing required field \"op\""
      | Some s -> (
        match op_of_string s with
        | Some op -> Ok op
        | None ->
          Error
            (Printf.sprintf
               "unknown op %S (expected compile|run|bench|health|stats|metrics|shutdown)"
               s))
    in
    let* benchmark = opt_field j "benchmark" Json.get_string "a string" in
    let* backend = opt_field j "backend" Json.get_string "a string" in
    let* strict = opt_field j "strict" Json.get_bool "a boolean" in
    let* interp = opt_field j "interp" Json.get_string "a string" in
    let* max_steps = opt_field j "max_steps" Json.get_int "an integer" in
    let* deadline_s = opt_field j "deadline_s" Json.get_float "a number" in
    let* pass_budget_s = opt_field j "pass_budget_s" Json.get_float "a number" in
    let* faults = opt_field j "faults" Json.get_string "a string" in
    let* fallback = opt_field j "fallback" Json.get_bool "a boolean" in
    let* check = opt_field j "check" Json.get_bool "a boolean" in
    let* repeats = opt_field j "repeats" Json.get_int "an integer" in
    let* trace = opt_field j "trace" Json.get_bool "a boolean" in
    let* () =
      match interp with
      | Some s when s <> "tree" && s <> "compiled" ->
        Error (Printf.sprintf "field \"interp\" must be tree|compiled, got %S" s)
      | _ -> Ok ()
    in
    let* () =
      match max_steps with
      | Some n when n < 0 -> Error "field \"max_steps\" must be non-negative"
      | _ -> Ok ()
    in
    let* () =
      match deadline_s with
      | Some d when d <= 0.0 -> Error "field \"deadline_s\" must be positive"
      | _ -> Ok ()
    in
    let* () =
      match repeats with
      | Some r when r < 1 -> Error "field \"repeats\" must be >= 1"
      | _ -> Ok ()
    in
    let needs_benchmark = match op with Compile | Run | Bench -> true | _ -> false in
    let* benchmark =
      match (benchmark, needs_benchmark) with
      | Some b, _ -> Ok b
      | None, false -> Ok ""
      | None, true ->
        Error (Printf.sprintf "op %S requires field \"benchmark\"" (op_name op))
    in
    let backend = Option.value backend ~default:"upmem" in
    let* () =
      match backend with
      | "host" | "upmem" | "cim" | "hetero" -> Ok ()
      | s ->
        Error
          (Printf.sprintf "field \"backend\" must be host|upmem|cim|hetero, got %S" s)
    in
    Ok
      {
        id;
        op;
        benchmark;
        backend;
        strict;
        interp;
        max_steps;
        deadline_s;
        pass_budget_s;
        faults;
        fallback = Option.value fallback ~default:true;
        check = Option.value check ~default:true;
        repeats = Option.value repeats ~default:1;
        trace = Option.value trace ~default:false;
      }
  | _ -> Error "request must be a JSON object"

(* ----- response encoding ----- *)

let id_fields id = match id with Some s -> [ ("id", Json.String s) ] | None -> []

(* the server-minted correlation id; "" (outside a server) emits nothing *)
let req_id_fields req_id =
  match req_id with
  | Some r when r <> "" -> [ ("req_id", Json.String r) ]
  | _ -> []

let ok_response ?id ?req_id ~op fields =
  Json.Obj
    (id_fields id @ req_id_fields req_id
    @ [ ("ok", Json.Bool true); ("op", Json.String (op_name op)) ]
    @ fields)

let error_response ?id ?req_id ?op ?(detail = []) ~code message =
  let op_field = match op with Some o -> [ ("op", Json.String (op_name o)) ] | None -> [] in
  Json.Obj
    (id_fields id @ req_id_fields req_id
    @ [ ("ok", Json.Bool false) ]
    @ op_field
    @ [
        ( "error",
          Json.Obj
            ([ ("code", Json.String (code_name code)); ("message", Json.String message) ]
            @ detail) );
      ])

(* Parse-position detail for parse_error responses, mirroring the JSON
   (and IR) parser's error record. *)
let parse_error_detail (e : Json.error) =
  [
    ("line", Json.Int e.Json.line);
    ("col", Json.Int e.Json.col);
    ("context", Json.String e.Json.context);
  ]
