(** Execution profile: dynamic operation counts accumulated by the
    interpreter. The CPU and device timing models are functions of these
    counts, so simulated time always reflects work the generated code
    actually performed. *)

type t = {
  mutable alu_ops : int;  (** adds, subs, logic, compares, selects *)
  mutable mul_ops : int;
  mutable div_ops : int;
  mutable loads : int;  (** scalar element reads *)
  mutable stores : int;  (** scalar element writes *)
  mutable dma_bytes : int;  (** explicit DMA'd bytes (MRAM<->WRAM) *)
  mutable dma_transfers : int;
  mutable barriers : int;
  mutable launched_ops : int;  (** ops dispatched (control overhead) *)
}

val create : unit -> t
val copy : t -> t
val add : into:t -> t -> unit

(** [add_scaled ~into p n] adds [n] times every counter of [p]. *)
val add_scaled : into:t -> t -> int -> unit
val total_scalar_ops : t -> int

(** Exact field-wise equality (all counters are ints); used to check that
    parallel and sequential simulations performed identical work. *)
val equal : t -> t -> bool

val to_string : t -> string
