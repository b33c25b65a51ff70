(* Tests for the support library: the growable array and the shape/
   arithmetic helpers everything else builds on. *)

open Cinm_support

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v))
    (Vec.fold_left ( + ) 0 v);
  (match Vec.get v 1000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds failure");
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_vec_of_list_map () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let doubled = Vec.map (fun x -> 2 * x) v in
  Alcotest.(check (list int)) "map" [ 2; 4; 6 ] (Vec.to_list doubled);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Vec.to_array v)

let prop_vec_push_pop =
  QCheck.Test.make ~name:"push then pop returns the same elements" ~count:100
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      (* pops come out in reverse insertion order *)
      let popped = List.map (fun _ -> Vec.pop v) xs in
      popped = List.rev xs && Vec.is_empty v)

let test_util_div_round () =
  Alcotest.(check int) "ceil_div exact" 4 (Util.ceil_div 16 4);
  Alcotest.(check int) "ceil_div up" 5 (Util.ceil_div 17 4);
  Alcotest.(check int) "round_up_to" 20 (Util.round_up_to 17 4);
  (match Util.ceil_div 1 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on zero divisor")

let test_util_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of powers" 4.0 (Util.geomean [ 2.0; 8.0 ]);
  (match Util.geomean [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on empty");
  match Util.geomean [ 1.0; -2.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on non-positive"

let test_util_wrap32 () =
  Alcotest.(check int) "positive overflow" (-0x80000000) (Util.add32 0x7FFFFFFF 1);
  Alcotest.(check int) "negative overflow" 0x7FFFFFFF (Util.sub32 (-0x80000000) 1);
  Alcotest.(check int) "div by zero convention" 0 (Util.div32 5 0);
  Alcotest.(check int) "mul wraps" (Util.wrap32 (0x10000 * 0x10000)) (Util.mul32 0x10000 0x10000)

let prop_linearize_roundtrip =
  QCheck.Test.make ~name:"linearize/delinearize roundtrip" ~count:100
    QCheck.(triple (1 -- 6) (1 -- 6) (1 -- 6))
    (fun (a, b, c) ->
      let shape = [| a; b; c |] in
      let n = a * b * c in
      let ok = ref true in
      for off = 0 to n - 1 do
        let idx = Util.delinearize shape off in
        if Util.linearize shape idx <> off then ok := false
      done;
      !ok)

let test_linearize_bounds () =
  match Util.linearize [| 2; 3 |] [| 1; 3 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds failure"

(* A set variable whose value does not parse is ignored with a warning
   naming the variable and the value, never silently. *)
let test_env_bad_values_warn () =
  let vars = [ "CINM_MAX_STEPS"; "CINM_PASS_BUDGET_S"; "CINM_JOBS" ] in
  let warnings = ref [] in
  Log.set_level Log.Warn;
  Log.set_sink (Some (fun _ line -> warnings := line :: !warnings));
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      List.iter (fun v -> Unix.putenv v "") vars)
  @@ fun () ->
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let set values = List.iter2 Unix.putenv vars values in
  set [ "1e6"; "abc"; "four" ];
  let c = Config.from_env () in
  Alcotest.(check int) "max_steps ignored" 0 c.Config.max_steps;
  Alcotest.(check (option (float 0.0))) "budget ignored" None c.Config.pass_budget_s;
  Alcotest.(check (option int)) "jobs ignored" None (Pool.env_jobs ());
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("warns about " ^ needle) true
        (List.exists (fun w -> contains w needle) !warnings))
    [ "CINM_MAX_STEPS=\"1e6\""; "CINM_PASS_BUDGET_S=\"abc\""; "CINM_JOBS=\"four\"" ];
  warnings := [];
  set [ "1000"; "0.5"; "3" ];
  let c = Config.from_env () in
  Alcotest.(check int) "max_steps" 1000 c.Config.max_steps;
  Alcotest.(check (option (float 0.0))) "budget" (Some 0.5) c.Config.pass_budget_s;
  Alcotest.(check (option int)) "jobs" (Some 3) (Pool.env_jobs ());
  Alcotest.(check (list string)) "valid values parse silently" [] !warnings

let () =
  Alcotest.run "support"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "of_list/map" `Quick test_vec_of_list_map;
          QCheck_alcotest.to_alcotest prop_vec_push_pop;
        ] );
      ( "util",
        [
          Alcotest.test_case "ceil/round" `Quick test_util_div_round;
          Alcotest.test_case "geomean" `Quick test_util_geomean;
          Alcotest.test_case "wrap32" `Quick test_util_wrap32;
          QCheck_alcotest.to_alcotest prop_linearize_roundtrip;
          Alcotest.test_case "linearize bounds" `Quick test_linearize_bounds;
        ] );
      ("env", [ Alcotest.test_case "bad values warn" `Quick test_env_bad_values_warn ]);
    ]
