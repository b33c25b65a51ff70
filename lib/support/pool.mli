(** A small reusable domain pool for data-parallel loops and background
    tasks.

    [run p n f] applies [f] to every index in [0, n), distributing the
    calls over the pool's domains (the calling domain participates). It
    returns once every call has completed and re-raises the first
    exception raised by any call. Scheduling never affects results as
    long as distinct indices touch disjoint state: callers write into
    pre-allocated per-index slots, so outputs are deterministic.

    [submit p task] enqueues an independent background task (the serve
    daemon's unit of request execution). Workers prefer parallel-for
    indices over tasks, so a task that issues [run] internally is served
    by whichever workers are free.

    One worker rule: every domain that runs submitted tasks is a worker,
    and the submitter is never counted as one. A pool of [jobs] domains
    that has taken a task therefore runs up to [jobs] tasks at once.
    [run] works itself: it counts its caller as the last domain and keeps
    [jobs - 1] workers. *)

type t

(** [create ?jobs ()] makes a pool of [jobs] domains; defaults to
    [Domain.recommended_domain_count]. Worker domains are spawned lazily:
    [jobs - 1] on the first parallel [run] (its caller is the last
    domain), [jobs] on the first [submit]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

val run : t -> int -> (int -> unit) -> unit

(** Enqueue a background task. The pool grows to [jobs] worker domains
    (one on a 1-job pool), so up to [jobs] tasks execute at once and the
    caller never runs one. Returns [false] (task not accepted) once
    {!shutdown} has begun. A task that raises is contained and logged; it
    can never kill its worker. *)
val submit : t -> (unit -> unit) -> bool

(** Tasks accepted but not yet finished (queued + executing). *)
val pending : t -> int

(** One consistent sample of the pool's load, for gauges: worker domains
    spawned so far (0 until the first [submit] or parallel [run]; [jobs]
    once a task was submitted, [jobs - 1] while only parallel [run]s
    happened), tasks still queued, tasks executing, and whether a
    parallel-for is in flight. *)
type stats = { st_workers : int; st_queued : int; st_active : int; st_par_busy : bool }

val stats : t -> stats

(** Graceful shutdown: reject all further submissions, let the in-flight
    parallel-for and every accepted task finish (workers drain the queue
    before exiting), then join the workers. Idempotent — later calls
    return immediately. The pool afterwards degrades to sequential
    execution for [run]. *)
val shutdown : t -> unit

(** True once {!shutdown} has begun ([submit] will refuse). *)
val shutting_down : t -> bool

(** The pool size [CINM_JOBS] asks for: [None] when unset, or (with a
    warning naming the value) when it is not a non-negative integer.
    [CINM_JOBS=0] means auto-detect — the same machine-sized default as
    leaving it unset. *)
val env_jobs : unit -> int option

(** The process-wide pool, sized by {!env_jobs} when given, else
    [Domain.recommended_domain_count]. Created on first use; torn down
    via [at_exit]. *)
val default : unit -> t

(** Replace the default pool with one of the given size (the [--jobs]
    flag of the bench harness); [0] auto-detects
    [Domain.recommended_domain_count]. *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int
