(** Chaos mode: a seeded hostile client mix against a live [cinm_serve],
    asserting the protocol invariants (structured error taxonomy, id
    echo, outcome counters summing to requests, a valid Prometheus
    exposition, clean drain). This is the one hostile-traffic harness.

    The mix interleaves well-formed run/compile/health requests with
    malformed JSON, oversized lines, watchdog bait, microscopic
    deadlines, unknown benchmarks, fault storms, strict-mode runs and
    mid-stream disconnects (a complete request line whose connection
    closes before the response is read — the server must still process
    and count it without wobbling). *)

type report = {
  sent : int;  (** complete request lines written, disconnects included *)
  disconnects : int;
  ok : int;
  errors : int;  (** structured errors with known codes *)
  counters_total : int;  (** server-side responses_total sum; -1 if unscraped *)
  clean_drain : bool;
  violations : string list;  (** empty = all protocol invariants held *)
}

(** Drive the chaos mix. With [socket] the harness targets an external
    daemon (and skips the counter-sum, exposition and drain checks, which
    assume exclusive use of an in-process server); without, it starts its
    own, with a metrics listener whose [GET /metrics] must pass
    {!Cinm_serve_lib.Exposition.check}. *)
val run :
  ?socket:string ->
  ?requests:int ->
  ?clients:int ->
  ?seed:int ->
  unit ->
  report
