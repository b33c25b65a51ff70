(** Growable array (OCaml 5.1 has no stdlib [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val make : int -> 'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** @raise Invalid_argument when the index is out of bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
val map : ('a -> 'b) -> 'a t -> 'b t

(** Last element, or [None] when empty. *)
val last : 'a t -> 'a option

(** Keep only the elements satisfying the predicate, preserving order. *)
val filter_in_place : ('a -> bool) -> 'a t -> unit
