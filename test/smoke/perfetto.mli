(** The Perfetto (Chrome trace-event) shape check, for [Trace] exports
    and [bench --trace] files. *)

(** Parse a trace document and return its [traceEvents]. Fails unless
    there is at least one event and every event has the shape Perfetto
    needs: numeric [pid]/[tid], phase [ph] one of [X] (with numeric
    [ts]/[dur] and a [name]), [i] (with [ts] and thread scope
    [s = "t"]) or [M]. *)
val events : string -> (Cinm_serve_lib.Json.t list, string) result

(** [X] events only. *)
val spans : Cinm_serve_lib.Json.t list -> Cinm_serve_lib.Json.t list
