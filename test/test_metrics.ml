(* Tests for the Trace.Metrics registry: log-bucketed histogram geometry,
   exact shard merging across domains under concurrent snapshot churn,
   the Prometheus text exposition (ordering, escaping, cumulative
   buckets), and the exposition checker that loadgen, chaos and the smoke
   checks share.

   This binary owns the (process-global) registry: it resets it between
   cases, which the other test binaries never observe. *)

module M = Cinm_support.Trace.Metrics

(* ----- bucket geometry ----- *)

(* The contract: bucket [i] covers (bucket_upper (i-1), bucket_upper i],
   so for every value v: v <= upper(bucket_of v) and, unless v fell in
   bucket 0, v > upper(bucket_of v - 1). *)
let test_bucket_boundaries () =
  let check v =
    let b = M.bucket_of_value v in
    Alcotest.(check bool)
      (Printf.sprintf "%.17g in range [0,%d)" v M.n_buckets)
      true
      (b >= 0 && b < M.n_buckets);
    Alcotest.(check bool)
      (Printf.sprintf "%.17g <= upper(%d)" v b)
      true
      (v <= M.bucket_upper b);
    if b > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "%.17g > upper(%d)" v (b - 1))
        true
        (v > M.bucket_upper (b - 1))
  in
  (* a log sweep across the whole range, plus awkward values *)
  let v = ref 1e-12 in
  while !v < 1e12 do
    check !v;
    check (!v *. 1.0000001);
    check (!v *. 0.9999999);
    v := !v *. 1.37
  done;
  List.iter check [ 0.0; -1.0; 1e-300; 1e300; infinity; 1.0; 2.0; 0.5 ];
  (* exact bucket boundaries are inclusive on the right *)
  for i = 0 to M.n_buckets - 2 do
    let u = M.bucket_upper i in
    Alcotest.(check int)
      (Printf.sprintf "upper(%d) maps to its own bucket" i)
      i
      (M.bucket_of_value u);
    Alcotest.(check bool) "uppers strictly increase" true
      (M.bucket_upper (i + 1) > u || i + 1 = M.n_buckets - 1)
  done;
  Alcotest.(check (float 0.0)) "last bucket is +Inf" infinity
    (M.bucket_upper (M.n_buckets - 1))

(* Relative quantile error is bounded by one sub-bucket: the reported
   quantile is the upper bound of the bucket holding the true ranked
   observation, at most 2^(1/16)-1 (~4.4%) above it, never below. *)
let quantile_bounds ~name snap values q =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  let truth = sorted.(min (n - 1) (rank - 1)) in
  let est = M.quantile snap q in
  Alcotest.(check bool)
    (Printf.sprintf "%s q=%.2f: %.17g >= true %.17g" name q est truth)
    true
    (est >= truth -. 1e-12);
  Alcotest.(check bool)
    (Printf.sprintf "%s q=%.2f: %.17g <= true*1.045" name q est)
    true
    (est <= (truth *. 1.0443) +. 1e-12)

(* ----- shard merge across domains under churn ----- *)

let test_merge_across_domains () =
  M.reset ();
  M.enable ();
  let h = M.histogram ~help:"churn" "churn_hist" in
  let c = M.counter "churn_count" in
  let domains = 4 and per = 1000 in
  let value d k = float_of_int ((d * per) + k) /. 997.0 in
  let stop = Atomic.make false in
  (* reader thread: hammer snapshots while writers are mid-flight — the
     merge must never tear (count = sum of bucket counts by
     construction, sum/min/max internally consistent) *)
  let churn =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match M.histogram_snapshot "churn_hist" with
          | None -> ()
          | Some s ->
            let bucket_total =
              Array.fold_left (fun a (_, c) -> a + c) 0 s.M.buckets
            in
            assert (s.M.count = bucket_total);
            if s.M.count > 0 then assert (s.M.sum >= 0.0));
          ignore (M.get "churn_count");
          ignore (M.dump ())
        done)
      ()
  in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to per - 1 do
              M.record h (value d k);
              M.add c 1
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop true;
  Thread.join churn;
  let all =
    Array.init (domains * per) (fun i -> value (i / per) (i mod per))
  in
  let snap =
    match M.histogram_snapshot "churn_hist" with
    | Some s -> s
    | None -> Alcotest.fail "histogram vanished"
  in
  Alcotest.(check int) "count merges exactly" (domains * per) snap.M.count;
  Alcotest.(check int) "counter merges exactly" (domains * per)
    (M.get "churn_count");
  let true_sum = Array.fold_left ( +. ) 0.0 all in
  Alcotest.(check bool) "sum merges (up to fp reassociation)" true
    (Float.abs (snap.M.sum -. true_sum) <= 1e-9 *. true_sum);
  Alcotest.(check (float 0.0)) "min is exact" 0.0 snap.M.minv;
  Alcotest.(check (float 0.0)) "max is exact"
    (value (domains - 1) (per - 1))
    snap.M.maxv;
  Alcotest.(check (float 0.0)) "q=1 is the exact max" snap.M.maxv
    (M.quantile snap 1.0);
  List.iter
    (fun q -> quantile_bounds ~name:"churn" snap all q)
    [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99 ]

(* ----- Prometheus exposition ----- *)

(* Golden structure test: families sorted by name, HELP only when help
   text exists, cumulative buckets ending in +Inf, label and help
   escaping, free-form registry names sanitized to the Prometheus
   charset. Bucket bounds come from the geometry API, so the golden is
   byte-exact without hardcoding float strings. *)
let test_prometheus_exposition () =
  M.reset ();
  M.enable ();
  let h = M.histogram ~help:"Latency" "lat_seconds" in
  M.record h 0.001;
  M.record h 0.001;
  M.record h 0.004;
  let ctr =
    M.counter
      ~help:"Total \"requests\"\nserved"
      ("req_total{code=\"" ^ M.prom_escape_label "a\"b\\c" ^ "\"}")
  in
  M.add ctr 3;
  M.set_gauge "g_gauge" 1.5;
  (* a dotted debug name must be sanitized in the exposition *)
  M.incr "pass.canonicalize.runs";
  let le v =
    let u = M.bucket_upper (M.bucket_of_value v) in
    Printf.sprintf "%.9g" u
  in
  let sum = Printf.sprintf "%.17g" (0.001 +. 0.001 +. 0.004) in
  let expected =
    String.concat ""
      [
        "# TYPE g_gauge gauge\n";
        "g_gauge 1.5\n";
        "# HELP lat_seconds Latency\n";
        "# TYPE lat_seconds histogram\n";
        Printf.sprintf "lat_seconds_bucket{le=\"%s\"} 2\n" (le 0.001);
        Printf.sprintf "lat_seconds_bucket{le=\"%s\"} 3\n" (le 0.004);
        "lat_seconds_bucket{le=\"+Inf\"} 3\n";
        "lat_seconds_sum " ^ sum ^ "\n";
        "lat_seconds_count 3\n";
        "# TYPE pass_canonicalize_runs counter\n";
        "pass_canonicalize_runs 1\n";
        "# HELP req_total Total \"requests\"\\nserved\n";
        "# TYPE req_total counter\n";
        "req_total{code=\"a\\\"b\\\\c\"} 3\n";
      ]
  in
  Alcotest.(check string) "exposition golden" expected (M.to_prometheus ());
  M.reset ()

(* A histogram that straddles two shards must expose one merged series
   with cumulative bucket counts. *)
let test_prometheus_merged_histogram () =
  M.reset ();
  M.enable ();
  let h = M.histogram "merged_seconds" in
  M.record h 1.0;
  let d = Domain.spawn (fun () -> M.record h 2.0) in
  Domain.join d;
  let text = M.to_prometheus () in
  Alcotest.(check bool) "one _count with both observations" true
    (let needle = "merged_seconds_count 2\n" in
     let nh = String.length text and nn = String.length needle in
     let rec go i =
       i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
     in
     go 0);
  M.reset ()

(* ----- the exposition checker ----- *)

module Exposition = Cinm_serve_lib.Exposition

let test_checker_accepts_registry () =
  M.reset ();
  M.enable ();
  M.add (M.counter ~help:"Responses" "resp_total{code=\"ok\"}") 2;
  M.set_gauge "inflight" 3.0;
  let h = M.histogram "lat_seconds" in
  List.iter (M.record h) [ 0.001; 0.002; 0.5 ];
  let r = Exposition.check (M.to_prometheus ()) in
  M.reset ();
  Alcotest.(check (list string)) "no problems" [] r.Exposition.problems;
  Alcotest.(check (list (pair string string)))
    "families"
    [ ("inflight", "gauge"); ("lat_seconds", "histogram"); ("resp_total", "counter") ]
    r.Exposition.families

let test_checker_rejects () =
  let rejects name body =
    Alcotest.(check bool) name true ((Exposition.check body).Exposition.problems <> [])
  in
  let histogram ~inf ~count =
    Printf.sprintf
      "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} %d\nh_sum 0.2\nh_count %d\n"
      inf count
  in
  Alcotest.(check (list string)) "a consistent histogram passes" []
    (Exposition.check (histogram ~inf:2 ~count:2)).Exposition.problems;
  rejects "+Inf bucket differs from _count" (histogram ~inf:2 ~count:3);
  rejects "duplicate TYPE" "# TYPE c counter\n# TYPE c counter\nc 1\n";
  rejects "malformed sample line" "# TYPE c counter\nc one\n";
  rejects "bad metric name" "9c 1\n"

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "merge across domains" `Quick
            test_merge_across_domains;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition golden" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "merged histogram" `Quick
            test_prometheus_merged_histogram;
        ] );
      ( "exposition checker",
        [
          Alcotest.test_case "accepts the registry" `Quick test_checker_accepts_registry;
          Alcotest.test_case "rejects malformed text" `Quick test_checker_rejects;
        ] );
    ]
