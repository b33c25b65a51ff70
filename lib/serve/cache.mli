(** Cross-request pipeline cache: compiled modules keyed by
    (benchmark, backend, strict), shared read-only across requests, FIFO
    eviction under a size cap. Only clean (non-fallback) compiles are
    cached. A module carries its compiled code on its blocks, so a hit
    also reuses that code and an eviction frees it. *)

type key = { benchmark : string; backend : string; strict : bool }

type t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : ?capacity:int -> unit -> t

(** Counted lookup: every call bumps hits or misses. *)
val find : t -> key -> Cinm_core.Driver.compiled option

(** Insert a compile result; no-op for fallback (degraded) artifacts and
    when the key is already present (first insert wins). Evicts FIFO at
    capacity. *)
val add : t -> key -> Cinm_core.Driver.compiled -> unit

val stats : t -> stats
