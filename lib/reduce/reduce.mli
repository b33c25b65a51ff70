(** Delta-debugging IR reducer (the mlir-reduce analogue): greedily
    shrink a module while an "interestingness" predicate — typically "the
    pipeline still fails with the same diagnostic class" — keeps holding.
    Every candidate mutation is built on a deep clone and accepted only if
    the predicate holds on it, so moves need not preserve validity
    themselves. *)

open Cinm_ir

type stats = {
  rounds : int;
  candidates : int;
  accepted : int;
  ops_before : int;
  ops_after : int;
}

(** Total op count (delegates to {!Pass.count_ops}). *)
val count_ops : Func.modul -> int

(** Shrink [m] (left untouched; the result is a fresh module). The
    [interesting] predicate must not retain or mutate its argument — run
    pipelines on an internal clone. [max_rounds] bounds the outer
    fixpoint loop (default 16). *)
val reduce :
  ?max_rounds:int ->
  interesting:(Func.modul -> bool) ->
  Func.modul ->
  Func.modul * stats
