(* Per-request execution configuration.

   Before the serve daemon existed, every robustness knob was a process
   global initialized from an environment variable at module-load time
   (CINM_STRICT in the pass manager, CINM_MAX_STEPS in the interpreter,
   CINM_PASS_BUDGET_S, CINM_REPRODUCER_DIR, CINM_INTERP, CINM_FAULTS).
   That is fine for a one-shot CLI process but races badly in a long-lived
   server: two concurrent requests that want different step budgets would
   fight over one ref.

   This module is the single snapshot point. [from_env] parses the
   environment exactly once into an immutable record; [default] is the
   mutable *process* default (what the CLI flags mutate); a server builds
   one [t] per request — starting from its own base config, overriding
   per-request fields — and threads it explicitly through the pass
   manager, the driver and the interpreter. Every runner follows one rule:
   the explicit config if given, else [default ()]. Nothing on a hot path
   reads [Sys.getenv] anymore.

   The fault plan is the one field stored elsewhere: {!Fault.default}
   owns it (simulators created without a plan read it there), and
   [default]/[set_default] read and write that store, so the two can
   never disagree.

   Deadlines and cancellation: [deadline] is an absolute host timestamp
   (0. = none) and [cancel] a shared flag a server may set to tear a
   request down cooperatively. [check] raises {!Cancelled} when either
   trips; the pass manager calls it between passes and the interpreter
   watchdog calls it on loop back-edges, so a request dies at the next
   safe point instead of taking the process with it. [Cancelled] is
   deliberately not one of the exceptions the pass runner converts into a
   structured pass-failure diagnostic: a request past its deadline must
   abort outright, not trigger the CPU-fallback retry path. *)

type t = {
  strict : bool;  (** verify + print->parse->print fixpoint after every pass *)
  pass_budget_s : float option;  (** per-pass wall-time budget *)
  reproducer_dir : string option;  (** crash-reproducer output directory *)
  max_steps : int;  (** interpreter watchdog budget; 0 = unlimited *)
  interp : string;  (** "tree" | "compiled" | "" = process default *)
  faults : Fault.plan option;  (** None = fault-free *)
  deadline : float;  (** absolute host time (Unix epoch); 0. = none *)
  cancel : bool Atomic.t;  (** cooperative cancellation flag *)
  req_id : string;  (** correlation id minted at accept time; "" outside a server *)
}

exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled msg -> Some (Printf.sprintf "request cancelled: %s" msg)
    | _ -> None)

(* A single shared never-set flag for configs that are not cancellable,
   so the watchdog's [Atomic.get] is always valid without an option. *)
let never_cancelled : bool Atomic.t = Atomic.make false

let truthy s =
  match String.lowercase_ascii s with
  | "1" | "true" | "on" | "yes" -> true
  | _ -> false

let env_truthy name =
  match Sys.getenv_opt name with Some s -> truthy s | None -> false

(* A set variable whose value does not parse warns and is ignored. *)
let env_parsed name ~expect parse =
  match Option.map String.trim (Sys.getenv_opt name) with
  | None | Some "" -> None
  | Some s -> (
    match parse s with
    | Some v -> Some v
    | None ->
      Log.warn "ignoring %s=%S: expected %s" name s expect;
      None)

let from_env () =
  {
    strict = env_truthy "CINM_STRICT";
    pass_budget_s = env_parsed "CINM_PASS_BUDGET_S" ~expect:"seconds" float_of_string_opt;
    reproducer_dir = Sys.getenv_opt "CINM_REPRODUCER_DIR";
    max_steps =
      Option.value ~default:0
        (env_parsed "CINM_MAX_STEPS" ~expect:"a non-negative integer" (fun s ->
             Option.bind (int_of_string_opt s) (fun n -> if n >= 0 then Some n else None)));
    interp = Option.value (Sys.getenv_opt "CINM_INTERP") ~default:"";
    faults = Fault.default ();
    deadline = 0.0;
    cancel = never_cancelled;
    req_id = "";
  }

(* The process default: parsed from the environment on first use, mutated
   by the CLI entry points. Its [faults] field only caches Fault's plan:
   the record is rebuilt when that plan changed, so steady-state calls do
   not allocate. *)
let process_default : t option ref = ref None

let default () =
  let faults = Fault.default () in
  match !process_default with
  | Some c when c.faults == faults -> c
  | stored ->
    let c = { (match stored with Some c -> c | None -> from_env ()) with faults } in
    process_default := Some c;
    c

let set_default c =
  process_default := Some c;
  Fault.set_default c.faults

let update_default f = set_default (f (default ()))

let cancelled c = Atomic.get c.cancel

let past_deadline c = c.deadline > 0.0 && Unix.gettimeofday () > c.deadline

let check c =
  if Atomic.get c.cancel then raise (Cancelled "cancelled by the server");
  if past_deadline c then
    raise
      (Cancelled
         (Printf.sprintf "deadline exceeded (%.3fs past)"
            (Unix.gettimeofday () -. c.deadline)))

let remaining_s c =
  if c.deadline <= 0.0 then None else Some (c.deadline -. Unix.gettimeofday ())
