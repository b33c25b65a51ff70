(* A small reusable domain pool for data-parallel loops and background
   tasks (OCaml 5 domains).

   Three users, and only these spawn or loop on domains (a lint keeps it
   so). The UPMEM machine simulator executes every DPU of a launch
   through this pool; real hardware runs all DPUs concurrently, and the
   simulation is embarrassingly parallel at DPU granularity. The host
   GEMM ([Tensor.gemm]) splits the output rows of a large product into
   chunks, one index each. Both use the default pool, so a GEMM issued
   inside a DPU lane finds a loop in flight and runs inline on the lane's
   domain, as does a GEMM beside another caller's loop; the daemon sizes
   the default pool to 1 job, so a served request's GEMMs run inline on
   its worker (its own pool serves requests). The serve daemon also
   multiplexes whole requests over the same pool as *tasks*: a submitted
   task occupies one worker for its duration, and any parallel-for the
   task issues (a simulated launch) is served by whichever workers are
   free at that moment — so request concurrency and per-request simulation
   parallelism share one fixed set of domains.

   Primitives:
   - [run]: one parallel-for over [0, n), the calling domain participates;
     sequential fallback whenever parallelism cannot help (1 job, 1 item)
     or would be unsafe (re-entrant use while another loop is in flight).
   - [submit]: enqueue an independent task; workers prefer parallel-for
     indices (they are short and a caller is blocked on them) and drain
     tasks otherwise. Returns [false] once shutdown has begun.

   Workers: a submitter never runs tasks (the serve daemon's event loop
   only admits them), so a pool that has taken a task has [jobs] worker
   domains and runs up to [jobs] tasks at once. A pool that only runs
   loops has [jobs - 1], their caller being the last domain.

   Sizing: [CINM_JOBS] in the environment, or [set_default_jobs] (the
   bench harness's [--jobs] flag), or [Domain.recommended_domain_count].

   Determinism: [run] only schedules; callers index into pre-allocated
   result slots, so the output of a parallel loop is independent of the
   interleaving.

   Shutdown is graceful and idempotent: the first [shutdown] call rejects
   all further submissions, lets the in-flight parallel-for and every
   already-accepted task finish (workers drain the queue before exiting),
   and joins the workers; later calls return immediately. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  all_done : Condition.t;
  (* current parallel-for, guarded by [mutex] *)
  mutable body : (int -> unit) option;
  mutable next : int;  (** next index to claim *)
  mutable total : int;
  mutable unfinished : int;  (** claimed-or-unclaimed indices not yet done *)
  mutable exn : (exn * Printexc.raw_backtrace) option;
  mutable busy : bool;  (** a [run] is in flight (re-entrancy guard) *)
  (* background tasks, guarded by [mutex] *)
  tasks : (unit -> unit) Queue.t;
  mutable active_tasks : int;  (** claimed tasks currently executing *)
  mutable shutting_down : bool;
  mutable shutdown_done : bool;  (** a shutdown call already ran to completion *)
  mutable workers : unit Domain.t list;  (** spawned lazily *)
}

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Domain.recommended_domain_count ()
  in
  {
    jobs;
    mutex = Mutex.create ();
    has_work = Condition.create ();
    all_done = Condition.create ();
    body = None;
    next = 0;
    total = 0;
    unfinished = 0;
    exn = None;
    busy = false;
    tasks = Queue.create ();
    active_tasks = 0;
    shutting_down = false;
    shutdown_done = false;
    workers = [];
  }

let jobs p = p.jobs

(* Run one claimed index outside the lock; record the first exception. *)
let run_index p f i =
  Mutex.unlock p.mutex;
  let failure =
    try
      f i;
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock p.mutex;
  (match failure with
  | Some _ when p.exn = None -> p.exn <- failure
  | _ -> ());
  p.unfinished <- p.unfinished - 1;
  if p.unfinished = 0 then Condition.broadcast p.all_done

(* Run one claimed task outside the lock. A task owns its own error
   handling (the daemon wraps every request); anything that still escapes
   is contained here so a misbehaving task can never kill its worker. *)
let run_task p task =
  p.active_tasks <- p.active_tasks + 1;
  Mutex.unlock p.mutex;
  (try task ()
   with e -> Log.warn "pool task raised: %s" (Printexc.to_string e));
  Mutex.lock p.mutex;
  p.active_tasks <- p.active_tasks - 1

let worker_loop p =
  Mutex.lock p.mutex;
  let stop = ref false in
  while not !stop do
    match p.body with
    | Some f when p.next < p.total ->
      let i = p.next in
      p.next <- p.next + 1;
      run_index p f i
    | _ ->
      if not (Queue.is_empty p.tasks) then run_task p (Queue.pop p.tasks)
      else if p.shutting_down then stop := true
      else Condition.wait p.has_work p.mutex
  done;
  Mutex.unlock p.mutex

(* Must be called with the mutex held. Grows the pool to [n] workers,
   never shrinks it: [submit] asks for [jobs], [run] for [jobs - 1] (see
   "Workers" above). *)
let ensure_workers p n =
  let have = List.length p.workers in
  if have < n && not p.shutting_down then
    p.workers <-
      List.init (n - have) (fun _ -> Domain.spawn (fun () -> worker_loop p)) @ p.workers

let submit p task =
  Mutex.lock p.mutex;
  if p.shutting_down then begin
    Mutex.unlock p.mutex;
    false
  end
  else begin
    Queue.push task p.tasks;
    ensure_workers p p.jobs;
    Condition.broadcast p.has_work;
    Mutex.unlock p.mutex;
    true
  end

let pending p =
  Mutex.lock p.mutex;
  let n = Queue.length p.tasks + p.active_tasks in
  Mutex.unlock p.mutex;
  n

type stats = { st_workers : int; st_queued : int; st_active : int; st_par_busy : bool }

let stats p =
  Mutex.lock p.mutex;
  let s =
    {
      st_workers = List.length p.workers;
      st_queued = Queue.length p.tasks;
      st_active = p.active_tasks;
      st_par_busy = p.busy;
    }
  in
  Mutex.unlock p.mutex;
  s

let shutdown p =
  Mutex.lock p.mutex;
  if p.shutdown_done then Mutex.unlock p.mutex
  else begin
    p.shutdown_done <- true;
    p.shutting_down <- true;
    Condition.broadcast p.has_work;
    let workers = p.workers in
    p.workers <- [];
    Mutex.unlock p.mutex;
    (* workers drain the task queue before exiting, so joining them is the
       drain barrier *)
    List.iter Domain.join workers;
    (* a 0-worker pool (jobs = 1, nothing ever submitted) has no one to
       drain a queue for; run anything still queued here so accepted work
       is never dropped *)
    Mutex.lock p.mutex;
    while not (Queue.is_empty p.tasks) do
      run_task p (Queue.pop p.tasks)
    done;
    Mutex.unlock p.mutex
  end

let shutting_down p =
  Mutex.lock p.mutex;
  let s = p.shutting_down in
  Mutex.unlock p.mutex;
  s

(* Apply [f] to every index in [0, n), possibly in parallel. Blocks until
   all calls completed; re-raises the first exception any of them threw. *)
let run p n f =
  if n > 0 then begin
    Mutex.lock p.mutex;
    if p.jobs <= 1 || n <= 1 || p.busy || p.shutting_down then begin
      Mutex.unlock p.mutex;
      for i = 0 to n - 1 do
        f i
      done
    end
    else begin
      ensure_workers p (p.jobs - 1);
      p.busy <- true;
      p.body <- Some f;
      p.next <- 0;
      p.total <- n;
      p.unfinished <- n;
      p.exn <- None;
      Condition.broadcast p.has_work;
      (* the calling domain participates in the loop *)
      while p.next < p.total do
        let i = p.next in
        p.next <- p.next + 1;
        run_index p f i
      done;
      while p.unfinished > 0 do
        Condition.wait p.all_done p.mutex
      done;
      p.body <- None;
      p.busy <- false;
      let failure = p.exn in
      p.exn <- None;
      Mutex.unlock p.mutex;
      match failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ----- the process-wide default pool ----- *)

let env_jobs () =
  match Option.map String.trim (Sys.getenv_opt "CINM_JOBS") with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some j when j >= 1 -> Some j
    (* 0 = auto-detect, same as unset: size by the machine *)
    | Some 0 -> Some (Domain.recommended_domain_count ())
    | _ ->
      Log.warn "ignoring CINM_JOBS=%S: expected a non-negative integer" s;
      None)

let default_pool : t option ref = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create ?jobs:(env_jobs ()) () in
    default_pool := Some p;
    at_exit (fun () -> shutdown p);
    p

let set_default_jobs j =
  (match !default_pool with Some p -> shutdown p | None -> ());
  (* 0 = auto-detect: size by the machine, like an unset CINM_JOBS *)
  let jobs = if j <= 0 then Domain.recommended_domain_count () else j in
  let p = create ~jobs () in
  default_pool := Some p;
  at_exit (fun () -> shutdown p)

let default_jobs () = jobs (default ())
