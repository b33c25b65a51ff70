(** Pass manager: named module-level transformations with optional
    verification after each pass.

    When tracing or metrics collection is enabled (see
    {!Cinm_support.Trace}), each pass run emits one host-clock span on the
    ["passes"] track carrying its wall time, op-count delta, per-pattern
    rewrite hit counts and, on failure, the diagnostic. With both
    disabled and IR dumping off, the runners take an uninstrumented fast
    path (no timing, no allocation). *)

type t = {
  pass_name : string;
  run : Func.modul -> unit;
  patterns : Rewrite.pattern list;
      (** non-empty for {!of_patterns} passes; used by the instrumented
          runner to count per-pattern hits *)
}

val create : name:string -> (Func.modul -> unit) -> t

(** Build a pass from rewrite patterns applied to every function. *)
val of_patterns : name:string -> Rewrite.pattern list -> t

(** Structured failure diagnostic: the failing pass, the op it failed on
    (when the message identified one), and the message itself. *)
type diag = { pass : string; op : string option; message : string }

val diag_to_string : diag -> string

exception Pass_failed of diag

(** {2 Run settings}

    The runners read their settings from a {!Cinm_support.Config.t}: the
    [?config] argument when given, else {!Cinm_support.Config.default}.

    - [strict] (MLIR's [-verify-each] plus a textual round-trip
      assertion; [CINM_STRICT=1]): every pass run verifies the module
      {e and} asserts that print→parse→print reaches a fixpoint,
      converting printer/parser drift into a structured pass failure.
    - [pass_budget_s] (seconds; [CINM_PASS_BUDGET_S]): a pass that
      completes over budget is converted into a pass failure, which stops
      the pipeline and routes through the reproducer path.
    - [reproducer_dir] ([CINM_REPRODUCER_DIR]): see below.

    All are off by default, so the uninstrumented fast path and
    byte-stable bench output are untouched. *)

(** {2 Crash reproducers}

    With a reproducer directory configured, {!run_pipeline_result}
    snapshots the IR before each pass and, when one fails, writes a
    standalone [<pass>-<n>.reproducer.mlir] file holding the pre-failure
    IR plus a [// cinm-opt --passes <failing,and,remaining>] header, so
    the exact failure replays with one [cinm_opt --run-reproducer]
    invocation (MLIR's pass-pipeline crash reproducers). *)

type reproducer = { path : string; pipeline : string list; diag : diag }

(** The fuzzing seed to record in reproducer headers ([// fuzz-seed: N]),
    so an artifact names the exact [cinm_fuzz] invocation that replays
    it; [None] (the default) outside a fuzzing run. Process-global —
    set it around a whole campaign, not per concurrent request. *)
val set_fuzz_seed : int option -> unit

val current_fuzz_seed : unit -> int option

(** The most recent reproducer written {e by the calling domain}
    (domain-local, so a server's concurrent requests — each pinned to one
    pool domain — never observe each other's failures). *)
val last_reproducer : unit -> reproducer option

(** The replay pipeline named by a reproducer file's header comment, or
    [None] when the leading [//] lines carry no [cinm-opt --passes]
    header. *)
val reproducer_pipeline_of_text : string -> string list option

(** Opt-in IR snapshots after passes, printed to stderr (the equivalent of
    MLIR's [-print-ir-after-*]). Also settable via the [CINM_PRINT_IR]
    environment variable ([change] or [all]). *)
type ir_dump = Dump_never | Dump_after_change | Dump_after_all

val set_ir_dump : ir_dump -> unit

(** Total op count of a module (all functions, nested regions included). *)
val count_ops : Func.modul -> int

(** Run one pass; with [verify] (default), the module is verified
    afterwards. Failures are returned as a {!diag} — the module may have
    been left partially transformed, so on [Error] the caller should
    discard it (drivers re-lower a pristine clone). A failing pass still
    gets its span, with an [error] attribute holding the diagnostic.

    [config] (default: {!Cinm_support.Config.default}) supplies the
    strict and budget settings. *)
val run_one_result :
  ?verify:bool -> ?config:Cinm_support.Config.t -> t -> Func.modul ->
  (unit, diag) result

(** Like {!run_one_result} but raising {!Pass_failed}. *)
val run_one : ?verify:bool -> ?config:Cinm_support.Config.t -> t -> Func.modul -> unit

(** Run passes in order, stopping at the first failure. [trace] promotes
    the per-pass progress line from debug to info level (see
    {!Cinm_support.Log}). The runner checks the config's deadline and
    cancel flag between passes and raises
    {!Cinm_support.Config.Cancelled} — deliberately not a pass failure,
    so cancellation aborts outright instead of triggering fallbacks. *)
val run_pipeline_result :
  ?verify:bool -> ?trace:bool -> ?config:Cinm_support.Config.t -> t list ->
  Func.modul -> (unit, diag) result

val run_pipeline :
  ?verify:bool -> ?trace:bool -> ?config:Cinm_support.Config.t -> t list ->
  Func.modul -> unit
