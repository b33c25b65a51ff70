(** The serve wire protocol: newline-delimited JSON requests and
    responses. See the implementation header for the request shape. *)

type op = Compile | Run | Bench | Health | Stats | Metrics | Shutdown

val op_name : op -> string
val op_of_string : string -> op option

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
  faults : string option;
      (** raw fault spec, e.g. "dpu_fail=0.05,seed=7"; [""] = fault-free,
          absent = the server's base plan *)
  fallback : bool;  (** CPU fallback on device-lowering failure *)
  check : bool;  (** verify device results against the host reference *)
  repeats : int;  (** bench: number of timed runs *)
  trace : bool;
      (** capture this request's spans in isolation and attach Perfetto
          JSON (inline or as a --trace-dir path) to the response *)
}

(** Stable machine-readable failure taxonomy — clients and the CI smoke
    script assert on {!code_name} strings, so treat them as API. *)
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

val code_name : error_code -> string

(** Every error code, in declaration order. *)
val all_codes : error_code list

(** Decode a parsed JSON request. [Error] carries a bad-request message
    (missing op, mistyped field, out-of-range knob). Unknown fields are
    ignored so clients can grow. *)
val decode : Json.t -> (request, string) result

(** Responses echo the client ["id"] and, when the server passes one,
    carry the server-minted ["req_id"] correlation id. *)
val ok_response :
  ?id:string -> ?req_id:string -> op:op -> (string * Json.t) list -> Json.t

val error_response :
  ?id:string ->
  ?req_id:string ->
  ?op:op ->
  ?detail:(string * Json.t) list ->
  code:error_code ->
  string ->
  Json.t

(** line/col/context detail fields for a parse_error response. *)
val parse_error_detail : Json.error -> (string * Json.t) list
