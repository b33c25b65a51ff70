(** Per-request execution configuration.

    One immutable record holding every robustness knob that used to be a
    scattered [Sys.getenv]-initialized global: strict checking, pass
    budgets, reproducer directory, interpreter watchdog budget,
    interpreter backend, fault plan, plus a request deadline and a
    cooperative cancellation flag. The environment is parsed exactly once
    ({!from_env}); a server snapshots one [t] per request and threads it
    through the pass manager, driver and interpreter, so concurrent
    requests never race on process state. Every runner uses its explicit
    [?config] when given, else {!default}; there is no other store of
    these settings. *)

type t = {
  strict : bool;
      (** verify + print->parse->print fixpoint after every pass *)
  pass_budget_s : float option;  (** per-pass wall-time budget *)
  reproducer_dir : string option;  (** crash-reproducer output directory *)
  max_steps : int;  (** interpreter watchdog budget; 0 = unlimited *)
  interp : string;  (** "tree" | "compiled" | "" = process default *)
  faults : Fault.plan option;  (** [None] = fault-free *)
  deadline : float;  (** absolute host time (Unix epoch); 0. = none *)
  cancel : bool Atomic.t;  (** cooperative cancellation flag *)
  req_id : string;
      (** correlation id minted by the server at accept time and echoed in
          responses, log lines, trace spans and crash reproducers; [""]
          outside a server *)
}

(** Raised by {!check} (and the interpreter watchdog / pass manager
    calling it) when the deadline passed or the cancel flag was set.
    Deliberately distinct from pass-failure diagnostics: cancellation
    aborts a request outright instead of triggering degradation paths. *)
exception Cancelled of string

(** The shared always-false flag installed on non-cancellable configs. *)
val never_cancelled : bool Atomic.t

(** Parse the environment (CINM_STRICT, CINM_PASS_BUDGET_S,
    CINM_REPRODUCER_DIR, CINM_MAX_STEPS, CINM_INTERP) into a snapshot. A
    set variable whose value does not parse is ignored with a warning
    naming it. The fault plan is {!Fault.default}, which owns
    CINM_FAULTS. *)
val from_env : unit -> t

(** The process default: [from_env] on first use, then whatever the CLI
    entry points set. Its [faults] is always {!Fault.default}. *)
val default : unit -> t

(** Replace the process default; [faults] goes to {!Fault.set_default}. *)
val set_default : t -> unit

(** [update_default f] replaces the process default with [f (default ())]. *)
val update_default : (t -> t) -> unit

val cancelled : t -> bool
val past_deadline : t -> bool

(** @raise Cancelled when cancelled or past the deadline. *)
val check : t -> unit

