(** Client side of the daemon's Prometheus listener ([--metrics-port]):
    the one exposition checker, shared by loadgen's sweep, the chaos
    harness and the tests. *)

(** A free localhost TCP port, for a daemon's metrics listener. *)
val free_port : unit -> int

(** Blocking [GET path] against [127.0.0.1:port]; returns (status code,
    body). *)
val http_get : port:int -> string -> int * string

type report = {
  families : (string * string) list;  (** (name, type) per TYPE line *)
  series : int;  (** sample lines *)
  problems : string list;  (** empty = valid *)
}

(** Validate Prometheus text exposition, for the subset the daemon emits:
    - every line is blank, [# HELP ...], [# TYPE <name> <type>] (counter,
      gauge or histogram; at most one per name), or a sample
      [<name>[{labels}] <float>];
    - metric names match [[a-zA-Z_:][a-zA-Z0-9_:]*];
    - every histogram family has [_bucket] series with non-decreasing
      cumulative counts ending in [le="+Inf"], whose count equals the
      [_count] sample, and a [_sum]. *)
val check : string -> report

(** [GET /metrics] and {!check}: [Error] lists the problems (a non-200
    status or a failed connection is one). *)
val scrape : port:int -> (report, string list) result
