(* Tensor.Arena under concurrent churn: many domains allocating and
   releasing mixed sizes at once — including whole fault-injected
   benchmark executions, whose retry/remap paths also go through the
   arena — while the per-key cap holds and results stay bit-identical. *)

module Pool = Cinm_support.Pool
module Fault = Cinm_support.Fault
module Config = Cinm_support.Config
module Tensor = Cinm_interp.Tensor
module Driver = Cinm_core.Driver
module Backend = Cinm_core.Backend
module Benchmark = Cinm_benchmarks.Benchmark

let () = Cinm_dialects.Registry.ensure_all ()

let check_cap name =
  let s = Tensor.Arena.stats () in
  let cap = Tensor.Arena.max_per_key () in
  if s.Tensor.Arena.largest_pool > cap then
    Alcotest.fail
      (Printf.sprintf "%s: pool of %d exceeds the per-key cap %d" name
         s.Tensor.Arena.largest_pool cap)

(* Raw churn: 4 domains x 400 alloc/release cycles over a handful of
   (shape, dtype) classes, deliberately colliding on the same keys. Every
   shape is over [Tensor.Arena.small] elements, so each one is pooled. *)
let test_raw_churn () =
  Tensor.Arena.clear ();
  let shapes = [| [| 1024 |]; [| 32; 40 |]; [| 300 |]; [| 17; 19 |]; [| 2048 |] |] in
  Array.iter
    (fun s ->
      if Array.fold_left ( * ) 1 s <= Tensor.Arena.small then
        Alcotest.fail "churn shape bypasses the arena")
    shapes;
  let pool = Pool.create ~jobs:4 () in
  Pool.run pool 16 (fun w ->
      let held = ref [] in
      for i = 0 to 399 do
        let t =
          Tensor.Arena.alloc shapes.((w + i) mod Array.length shapes)
            Cinm_ir.Types.F32
        in
        held := t :: !held;
        (* release in bursts so free lists actually fill *)
        if i mod 7 = 6 then begin
          List.iter Tensor.Arena.release !held;
          held := []
        end
      done;
      List.iter Tensor.Arena.release !held);
  Pool.shutdown pool;
  check_cap "raw churn";
  (* recycled storage is zero-filled: dirty a tensor, release it, and
     the next alloc of its size takes that storage and reads as zeros *)
  let dirty = Tensor.Arena.alloc [| 1024 |] Cinm_ir.Types.F32 in
  for i = 0 to 1023 do
    Tensor.set_float dirty i 1.0
  done;
  Tensor.Arena.release dirty;
  let t = Tensor.Arena.alloc [| 1024 |] Cinm_ir.Types.F32 in
  Alcotest.(check bool) "the alloc reuses the released storage" true
    (t.Tensor.data == dirty.Tensor.data);
  let sum = ref 0.0 in
  for i = 0 to 1023 do
    sum := !sum +. abs_float (Tensor.get_float t i)
  done;
  Alcotest.(check (float 0.0)) "recycled storage is zeroed" 0.0 !sum

let run_with_faults bench plan =
  let b =
    Cinm_benchmarks.Suites.find bench (Cinm_benchmarks.Suites.prim_suite ())
  in
  let backend =
    Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ())
  in
  let config = { (Config.default ()) with Config.faults = Some plan } in
  let compiled = Driver.compile_func ~config backend (b.Benchmark.build ()) in
  let results, report = Driver.run ~config compiled (b.Benchmark.inputs ()) in
  (b, results, report)

(* Fault-injected executions churning the arena concurrently from
   several submitted tasks: every run must still match the host
   reference, and repeated runs under the same plan must be
   bit-identical (same retries, same remaps, same modelled time). *)
let test_faulted_churn () =
  Tensor.Arena.clear ();
  let plan =
    match Fault.parse "dpu_fail=0.3,seed=7" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let baseline = ref None in
  let mismatches = Atomic.make 0 in
  let pool = Pool.create ~jobs:3 () in
  let b0, r0, rep0 = run_with_faults "va" plan in
  Alcotest.(check bool) "baseline matches reference" true
    (Benchmark.results_match b0 r0);
  baseline := Some (r0, rep0);
  for _ = 1 to 6 do
    let accepted =
      Pool.submit pool (fun () ->
          let b, r, rep = run_with_faults "va" plan in
          let r0, rep0 = Option.get !baseline in
          if
            not
              (Benchmark.results_match b r
              && r = r0
              && rep.Cinm_core.Report.total_s = rep0.Cinm_core.Report.total_s)
          then Atomic.incr mismatches)
    in
    Alcotest.(check bool) "task accepted" true accepted
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "bit-identical under churn" 0 (Atomic.get mismatches);
  check_cap "faulted churn"

let () =
  Alcotest.run "arena-churn"
    [
      ( "arena",
        [
          Alcotest.test_case "raw churn" `Quick test_raw_churn;
          Alcotest.test_case "faulted churn" `Quick test_faulted_churn;
        ] );
    ]
