open Cinm_ir
open Cinm_interp
module Backend = Cinm_core.Backend
module Report = Cinm_core.Report
module Driver = Cinm_core.Driver
module Config = Cinm_support.Config
module Fault = Cinm_support.Fault
module Pool = Cinm_support.Pool

type outcome = Vals of Rtval.t list | Fail of string

let truncate_s n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

let outcome_to_string = function
  | Vals vs -> String.concat "; " (List.map Rtval.to_string vs)
  | Fail e -> "raised: " ^ e

let rt_equal a b =
  match (a, b) with
  | Rtval.Tensor x, Rtval.Tensor y | Rtval.Memref x, Rtval.Memref y ->
    Tensor.equal x y
  | Rtval.Int x, Rtval.Int y -> x = y
  | Rtval.Bool x, Rtval.Bool y -> x = y
  | Rtval.Float x, Rtval.Float y -> (x <> x && y <> y) || x = y
  | Rtval.Token, Rtval.Token -> true
  | _ -> false

let outcomes_equal a b =
  match (a, b) with
  | Vals x, Vals y ->
    List.length x = List.length y && List.for_all2 rt_equal x y
  | Fail _, Fail _ -> true (* both sides failing identically enough *)
  | _ -> false

(* Small simulator configurations: full oracle matrices run over
   hundreds of seeds, so the DPU grid stays tiny. *)
let small_upmem () =
  Backend.Upmem (Backend.default_upmem ~dimms:2 ~dpus_per_dimm:8 ~tasklets:4 ())

let small_cim () = Backend.Cim (Backend.default_cim ())
let small_hetero () = Backend.default_hetero ~dimms:2 ~dpus_per_dimm:8 ()

let backend_of_name = function
  | "host" | "cpu" | "xeon" -> Ok Backend.Host_xeon
  | "arm" -> Ok Backend.Host_arm
  | "upmem" -> Ok (small_upmem ())
  | "cim" -> Ok (small_cim ())
  | "hetero" -> Ok (small_hetero ())
  | s -> Error (Printf.sprintf "unknown backend %S (host|arm|upmem|cim|hetero)" s)

let with_jobs jobs f =
  match jobs with
  | None -> f ()
  | Some j ->
    let saved = Pool.default_jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.set_default_jobs saved)
      (fun () ->
        Pool.set_default_jobs j;
        f ())

let run_module ~backend ?(interp = "tree") ?(strict = false) ?(faults = None)
    ?jobs ~seed m =
  match m.Func.funcs with
  | [] -> (Fail "empty module", None)
  | f :: _ ->
    let args = Gen.arg_values ~seed f in
    let config =
      {
        (Config.default ()) with
        Config.strict;
        interp;
        max_steps = 20_000_000;
        faults;
        (* predicate runs must not litter the reproducer dir *)
        reproducer_dir = None;
      }
    in
    with_jobs jobs (fun () ->
        match Driver.compile_and_run ~config backend f args with
        | results, report -> (Vals results, Some report)
        | exception e ->
          let bt = Printexc.get_backtrace () in
          let detail =
            if Printexc.backtrace_status () && bt <> "" then
              Printexc.to_string e ^ " @ "
              ^ (String.concat " | "
                   (List.filteri (fun i _ -> i < 4)
                      (List.filter (fun l -> l <> "")
                         (String.split_on_char '\n' bt))))
            else Printexc.to_string e
          in
          (Fail detail, None))

let exec_outcome ~backend ?(interp = "tree") ?(faults = None) ?(seed = 0) m =
  let out, _ = run_module ~backend ~interp ~faults ~seed m in
  outcome_to_string out

(* ----- the matrix ----- *)

type mismatch = { axis : string; detail : string }

let axes = [ "compiled"; "arm"; "upmem"; "cim"; "hetero"; "jobs"; "strict"; "faults" ]

let fault_plan seed =
  Fault.make ~seed:(seed + 7919)
    { Fault.no_rates with Fault.dpu_fail = 0.08; dpu_transient = 0.08 }

let describe ref_out out =
  Printf.sprintf "reference: %s | axis: %s"
    (truncate_s 160 (outcome_to_string ref_out))
    (truncate_s 160 (outcome_to_string out))

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

(* Compare deterministic report counters (the jobs axis: the same fault-
   free simulation at different pool widths must count identically). *)
let counters_equal a b =
  let norm (r : Report.t) = List.sort compare r.Report.counters in
  match (a, b) with
  | Some ra, Some rb -> norm ra = norm rb
  | None, None -> true
  | _ -> false

(* The hetero run is the one executor's program-order run plus a
   recorded schedule, so the tree and compiled interpreters must agree
   on it exactly: outcome and every report number. The schedule must
   also keep the bounds the merge promises: the overlapped time lies
   between the busiest engine and the sequential sum. *)
let hetero_agree (o_tree, r_tree) (o_comp, r_comp) =
  let report_key (r : Report.t) =
    (r.Report.total_s, r.Report.host_s, r.Report.device_s, r.Report.breakdown, r.Report.counters)
  in
  let bounds_broken (r : Report.t) =
    let part k = List.assoc_opt k r.Report.breakdown in
    match (part "e2e_overlapped", part "e2e_sequential", part "max_channel_busy") with
    | Some ovl, Some seq, Some busy ->
      let slack x = 1e-9 *. Float.abs x in
      if ovl > seq +. slack seq then
        Some (Printf.sprintf "e2e_overlapped %h > e2e_sequential %h" ovl seq)
      else if ovl < busy -. slack busy then
        Some (Printf.sprintf "e2e_overlapped %h < max_channel_busy %h" ovl busy)
      else None
    | _ -> None
  in
  if not (outcomes_equal o_tree o_comp) then
    Some { axis = "hetero"; detail = "tree vs compiled: " ^ describe o_tree o_comp }
  else if Option.map report_key r_tree <> Option.map report_key r_comp then
    Some { axis = "hetero"; detail = "report differs between interp tree and compiled" }
  else
    List.find_map
      (fun r ->
        Option.bind r bounds_broken
        |> Option.map (fun d -> { axis = "hetero"; detail = "schedule bounds: " ^ d }))
      [ r_tree; r_comp ]

let check_axis_on ?(inject = false) ?(jobs_alt = 4) ~axis ~seed text m =
  let run = run_module ~seed in
  let vs_ref axis_out =
    let ref_out, _ = run ~backend:Backend.Host_xeon m in
    match ref_out with
    | Fail e ->
      Some { axis = "reference"; detail = "reference run failed: " ^ truncate_s 200 e }
    | Vals _ ->
      let out, _ = axis_out () in
      if outcomes_equal ref_out out then None
      else Some { axis; detail = describe ref_out out }
  in
  match axis with
  | "reference" -> (
    (* not a differential axis: interesting iff the CPU reference itself
       fails, so shrinking a reference crash preserves the crash *)
    match run ~backend:Backend.Host_xeon m with
    | Fail e, _ ->
      Some { axis = "reference"; detail = "reference run failed: " ^ truncate_s 200 e }
    | Vals _, _ -> None)
  | "compiled" ->
    if inject && contains_sub text "cinm.gemm" then
      Some { axis; detail = "injected compiled-backend bug (shrink demo)" }
    else vs_ref (fun () -> run ~backend:Backend.Host_xeon ~interp:"compiled" m)
  | "arm" -> vs_ref (fun () -> run ~backend:Backend.Host_arm m)
  | "upmem" -> vs_ref (fun () -> run ~backend:(small_upmem ()) m)
  | "cim" -> vs_ref (fun () -> run ~backend:(small_cim ()) m)
  | "hetero" -> (
    let tree = run ~backend:(small_hetero ()) m in
    match vs_ref (fun () -> tree) with
    | Some _ as d -> d
    | None -> hetero_agree tree (run ~backend:(small_hetero ()) ~interp:"compiled" m))
  | "jobs" ->
    let o1, r1 = run ~backend:(small_upmem ()) ~jobs:1 m in
    let oN, rN = run ~backend:(small_upmem ()) ~jobs:jobs_alt m in
    if not (outcomes_equal o1 oN) then Some { axis; detail = describe o1 oN }
    else if not (counters_equal r1 rN) then
      Some { axis; detail = "report counters differ between jobs=1 and jobs=N" }
    else None
  | "strict" -> vs_ref (fun () -> run ~backend:Backend.Host_xeon ~strict:true m)
  | "faults" ->
    let plain, _ = run ~backend:(small_upmem ()) m in
    let faulted, _ =
      run ~backend:(small_upmem ()) ~faults:(Some (fault_plan seed)) m
    in
    if outcomes_equal plain faulted then None
    else Some { axis; detail = describe plain faulted }
  | a -> Some { axis = a; detail = "unknown oracle axis" }

let check_axis ?inject ?jobs_alt ~axis ~seed text =
  match Parser.parse_module_text text with
  | exception e ->
    Some { axis; detail = "parse failed: " ^ truncate_s 200 (Printexc.to_string e) }
  | m -> check_axis_on ?inject ?jobs_alt ~axis ~seed text m

let check_seed ?(inject = false) ?jobs_alt ~seed text =
  match Parser.parse_module_text text with
  | exception e ->
    [ { axis = "parse"; detail = truncate_s 200 (Printexc.to_string e) } ]
  | m ->
    (* the reference must run at all before any differential makes sense *)
    let ref_out, _ = run_module ~backend:Backend.Host_xeon ~seed m in
    (match ref_out with
    | Fail e ->
      [ { axis = "reference"; detail = "reference run failed: " ^ truncate_s 200 e } ]
    | Vals _ ->
      List.filter_map
        (fun axis -> check_axis_on ~inject ?jobs_alt ~axis ~seed text m)
        axes)
