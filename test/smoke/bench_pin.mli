(** The one bench-pin comparator: a [bench --json] run against a pinned
    run ([bench/baseline_quick.json], [BENCH_pr9.json], or another run). *)

(** Parse a [bench --json] file. *)
val load : string -> Cinm_serve_lib.Json.t

(** Every experiment in [run] must equal the same-named experiment in
    [pin], ignoring [wall_s]; the top-level fields must match too, except
    [jobs]. Returns the differences (empty = the run matches). *)
val diff : pin:Cinm_serve_lib.Json.t -> Cinm_serve_lib.Json.t -> string list

(** The run's experiments, by name. *)
val experiments : Cinm_serve_lib.Json.t -> (string * Cinm_serve_lib.Json.t) list
