(** Deterministic, seeded fault injection for the device simulators.

    A {!plan} bundles a seed with per-mechanism rates. Every injector is a
    pure function of the plan and the fault site's identity, so fault
    decisions are independent of evaluation order (and hence of the
    simulator's [--jobs] count): the same seed always yields the same
    fault set. *)

type rates = {
  dpu_fail : float;  (** permanent per-DPU failure probability *)
  dpu_transient : float;  (** per-(launch, DPU, attempt) dispatch failure *)
  mram_bitflip : float;  (** per-element bit-flip probability on scatter *)
  stuck0 : float;  (** per-cell crossbar stuck-at-0 probability *)
  stuck1 : float;  (** per-cell crossbar stuck-at-1 probability *)
  gain_var : float;  (** relative per-tile conductance gain spread *)
}

val no_rates : rates
(** All rates zero. *)

type plan = { seed : int; rates : rates }

val make : ?seed:int -> rates -> plan

(** {1 Injectors} *)

val dpu_failed : plan -> dpu:int -> bool
(** Is physical DPU [dpu] permanently failed? Stable across the run. *)

val launch_transient : plan -> launch:int -> dpu:int -> attempt:int -> bool
(** Does dispatch attempt [attempt] of launch [launch] on physical DPU
    [dpu] fail transiently? *)

val element_bitflip : plan -> scatter:int -> pu:int -> elem:int -> int option
(** [Some bit] if element [elem] written to PU [pu] during scatter number
    [scatter] suffers a flip of bit [bit] (0..31). *)

val stuck_cell : plan -> tile:int -> cell:int -> int option
(** [Some 0] / [Some 1] if crossbar cell [cell] of tile [tile] is stuck
    at low / high conductance. Stable across the run. *)

val tile_gain : plan -> tile:int -> float
(** Multiplicative conductance gain of tile [tile]; 1.0 when [gain_var]
    is zero, otherwise uniform in [1 - gain_var, 1 + gain_var]. *)

(** {1 Spec parsing} *)

val parse : string -> (plan, string) result
(** Parse a spec like ["dpu_fail=0.05,bitflip=1e-7,seed=7"]. Keys:
    [dpu_fail] (sets both permanent and transient rates), [perm],
    [transient], [bitflip], [stuck0], [stuck1], [gain], [seed]. *)

val to_string : plan -> string

(** {1 Process-wide default} *)

val default : unit -> plan option
(** The process default plan, picked up by simulators created without
    one: parsed once from [CINM_FAULTS] unless overridden by
    {!set_default}. [None] means fault-free. This is the one store behind
    the [faults] field of {!Config.default}. *)

val set_default : plan option -> unit
(** Override the default plan; suppresses [CINM_FAULTS] parsing.
    {!Config.set_default} writes here too. *)
