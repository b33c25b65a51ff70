(* What every workload shares: failure accounting, timed windows of whole
   passes, process-level readings, and the result a run reports. *)

module Json = Cinm_serve_lib.Json
module Rng = Cinm_fuzz_lib.Rng

let now = Unix.gettimeofday

(* Failed items, with the first few reasons kept for the report. *)
type failures = { mutable count : int; mutable reasons : string list }

let failures () = { count = 0; reasons = [] }

let fail fs label msg =
  fs.count <- fs.count + 1;
  if List.length fs.reasons < 8 then begin
    let line = Printf.sprintf "%s: %s" label msg in
    prerr_endline ("cinm_bench: item failed: " ^ line);
    fs.reasons <- fs.reasons @ [ line ]
  end

let reason = function
  | Failure m -> m
  | e -> Printexc.to_string e

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A timed window is a sequence of whole passes over the item set. A
   pass lasts from the end of the previous one to the completion of its
   last item. *)
type pass = { dur : float; lat : float list  (** seconds, one per item *) }

type window = { passes : pass list; t_start : float; t_end : float }

let items passes = List.fold_left (fun n p -> n + List.length p.lat) 0 passes
let attempted w = items w.passes
let rate p = float_of_int (List.length p.lat) /. p.dur

(* Every timing metric is taken over the faster half of the passes (those
   at or above the median pass throughput). On a shared host whose speed
   dips for seconds at a time, those passes measure the code; the slow
   ones mostly measure the neighbours. *)
let fast_half w =
  let m = Stat.median (List.map rate w.passes) in
  List.filter (fun p -> rate p >= m) w.passes

let ops_per_s w =
  let fast = fast_half w in
  float_of_int (items fast) /. List.fold_left (fun s p -> s +. p.dur) 0.0 fast

let fast_latencies w = List.concat_map (fun p -> p.lat) (fast_half w)

(* Passes from their end times, in pass order. *)
let passes_of ~t_start ends_and_lats =
  let _, rev =
    List.fold_left
      (fun (prev, acc) (e, lat) ->
        let e = Float.max e prev in
        (e, { dur = Float.max (e -. prev) 1e-9; lat } :: acc))
      (t_start, []) ends_and_lats
  in
  List.rev rev

(* Runs [pass k] (the k-th whole pass over the item set, returning its
   latencies) until [seconds] have elapsed; the pass under way at that
   moment runs to its end, so only whole passes are measured. *)
let timed ~seconds pass =
  let t_start = now () in
  let acc = ref [] and k = ref 0 in
  while now () -. t_start < seconds do
    let lat = pass !k in
    acc := (now (), lat) :: !acc;
    incr k
  done;
  { passes = passes_of ~t_start (List.rev !acc); t_start; t_end = now () }

let e2e_of_window w =
  let lat = fast_latencies w in
  [
    ("ops_per_s", ops_per_s w);
    ("latency_p50_ms", 1e3 *. Stat.percentile lat 0.5);
    ("latency_p90_ms", 1e3 *. Stat.percentile lat 0.9);
  ]

(* Peak resident set of a process (VmHWM), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let hit_ratio hits misses = if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)

(* Process CPU time and GC counters, read around a traced window. *)
type runtime = { cpu : float; minor : float; major : int }

let runtime () =
  let t = Unix.times () and g = Gc.quick_stat () in
  {
    cpu = t.Unix.tms_utime +. t.Unix.tms_stime;
    minor = g.Gc.minor_words;
    major = g.Gc.major_collections;
  }

let runtime_layers r0 r1 ~items =
  let per = float_of_int (max 1 items) in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("runtime.cpu_s", (r1.cpu -. r0.cpu) /. per);
    ("runtime.minor_words_per_item", (r1.minor -. r0.minor) /. per);
    ("runtime.major_collections", float_of_int (r1.major - r0.major));
    ("runtime.top_heap_mb", float_of_int top_heap_bytes /. 1048576.0);
  ]

(* Fold traced spans into per-item layer self times. Fails loudly when a
   span has no metric or the self times do not add up to the items'
   wall time within 1%. *)
let layers_of_spans spans =
  let by_name, worst = Span.self_times spans in
  let items = List.length (List.filter (fun s -> s.Span.parent = 0) spans) in
  if worst > 0.01 then
    failwith (Printf.sprintf "layer self times miss item wall time by %.2f%%" (100.0 *. worst));
  let out = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name self ->
      let m = Metrics.of_span name in
      if not (List.mem_assoc m Metrics.layers) then failwith ("span without a metric: " ^ name);
      let before = Option.value ~default:0.0 (Hashtbl.find_opt out m) in
      Hashtbl.replace out m (before +. (self /. float_of_int (max 1 items))))
    by_name;
  (List.of_seq (Hashtbl.to_seq out), items)

let trace_file ~out_dir ~workload ~seed =
  Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed)

(* What a measuring child reports to the supervising process. *)
type result = {
  attempted : int;
  failed : int;
  reasons : string list;
  e2e : (string * float) list;
  layers : (string * float) list;
  samples : int;  (** latency samples behind the percentiles *)
  passes : int;
  trace_path : string;
}

let obj_of kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let floats_of j =
  match j with
  | Some (Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.get_float v)) kvs
  | _ -> []

let result_to_json r =
  Json.Obj
    [
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("reasons", Json.List (List.map (fun s -> Json.String s) r.reasons));
      ("e2e", obj_of r.e2e);
      ("layers", obj_of r.layers);
      ("samples", Json.Int r.samples);
      ("passes", Json.Int r.passes);
      ("trace_path", Json.String r.trace_path);
    ]

let result_of_json j =
  let int k = Option.value ~default:0 (Json.int_field j k) in
  {
    attempted = int "attempted";
    failed = int "failed";
    reasons =
      (match Json.member "reasons" j with
      | Some (Json.List l) -> List.filter_map Json.get_string l
      | _ -> []);
    e2e = floats_of (Json.member "e2e" j);
    layers = floats_of (Json.member "layers" j);
    samples = int "samples";
    passes = int "passes";
    trace_path = Option.value ~default:"" (Json.string_field j "trace_path");
  }
