(* Deterministic fault injection for the device simulators.

   Real CI/NM substrates are not the ideal machines the timing models
   describe: UPMEM ranks ship with permanently-failed DPUs that the SDK
   masks out at allocation, launches fail transiently, and memristive
   crossbars suffer stuck-at cells and per-tile conductance variation.
   This module is the single source of those faults.

   Design: a fault *plan* is a seed plus per-mechanism rates, and every
   injection decision is a *pure function* of the plan and the fault
   site's identity (DPU number, launch sequence number, crossbar cell,
   ...). There is no mutable PRNG state to advance, so the decisions are
   independent of evaluation order — in particular of how many domains
   the simulator runs on (`--jobs`) — and two runs with the same seed see
   byte-identical fault sets. The hash is a SplitMix64 chain over the
   seed, a per-mechanism tag and the site indices. *)

type rates = {
  dpu_fail : float;  (** permanent per-DPU failure (masked at alloc) *)
  dpu_transient : float;  (** per-(launch, DPU, attempt) dispatch failure *)
  mram_bitflip : float;  (** per-element bit-flip probability on scatter *)
  stuck0 : float;  (** per-cell crossbar stuck-at-0 probability *)
  stuck1 : float;  (** per-cell crossbar stuck-at-1 probability *)
  gain_var : float;  (** relative per-tile conductance gain spread *)
}

let no_rates =
  { dpu_fail = 0.0; dpu_transient = 0.0; mram_bitflip = 0.0; stuck0 = 0.0;
    stuck1 = 0.0; gain_var = 0.0 }

type plan = { seed : int; rates : rates }

let make ?(seed = 0) rates = { seed; rates }

(* ----- the splittable hash ----- *)

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Mechanism tags keep the fault streams independent: the same indices
   never collide across mechanisms. *)
let tag_perm = 1
let tag_transient = 2
let tag_bitflip = 3
let tag_stuck = 4
let tag_gain = 5

let hash plan tag ids =
  let z =
    ref (mix64 (Int64.add (Int64.of_int plan.seed)
                  (Int64.mul golden (Int64.of_int tag))))
  in
  List.iter
    (fun i -> z := mix64 (Int64.add (Int64.logxor !z (Int64.of_int i)) golden))
    ids;
  !z

(* Uniform float in [0, 1) from the top 53 bits of the hash. *)
let uniform plan tag ids =
  Int64.to_float (Int64.shift_right_logical (hash plan tag ids) 11)
  *. (1.0 /. 9007199254740992.0)

(* ----- injectors ----- *)

let dpu_failed plan ~dpu =
  plan.rates.dpu_fail > 0.0 && uniform plan tag_perm [ dpu ] < plan.rates.dpu_fail

let launch_transient plan ~launch ~dpu ~attempt =
  plan.rates.dpu_transient > 0.0
  && uniform plan tag_transient [ launch; dpu; attempt ] < plan.rates.dpu_transient

let element_bitflip plan ~scatter ~pu ~elem =
  if plan.rates.mram_bitflip <= 0.0 then None
  else begin
    let h = hash plan tag_bitflip [ scatter; pu; elem ] in
    let u = Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0) in
    if u < plan.rates.mram_bitflip then
      (* which of the 32 bits flips comes from untouched low hash bits *)
      Some (Int64.to_int (Int64.logand h 31L))
    else None
  end

let stuck_cell plan ~tile ~cell =
  let r = plan.rates in
  if r.stuck0 <= 0.0 && r.stuck1 <= 0.0 then None
  else begin
    let u = uniform plan tag_stuck [ tile; cell ] in
    if u < r.stuck0 then Some 0
    else if u < r.stuck0 +. r.stuck1 then Some 1
    else None
  end

let tile_gain plan ~tile =
  if plan.rates.gain_var <= 0.0 then 1.0
  else 1.0 +. (plan.rates.gain_var *. ((2.0 *. uniform plan tag_gain [ tile ]) -. 1.0))

(* ----- spec parsing (CINM_FAULTS / bench --faults) ----- *)

(* Spec grammar: comma-separated [key=value] pairs, e.g.
     dpu_fail=0.05,bitflip=1e-7,seed=7
   [dpu_fail] sets both the permanent and the transient rate (a flaky DPU
   model); [perm]/[transient] override each individually. *)
let parse spec =
  let parse_pair (rates, seed) pair =
    match String.index_opt pair '=' with
    | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" pair)
    | Some i ->
      let key = String.trim (String.sub pair 0 i) in
      let v = String.trim (String.sub pair (i + 1) (String.length pair - i - 1)) in
      let float_v () =
        match float_of_string_opt v with
        | Some f when f >= 0.0 -> Ok f
        | _ -> Error (Printf.sprintf "fault spec: %s expects a rate >= 0, got %S" key v)
      in
      let ( >>= ) r f = Result.bind r f in
      (match key with
      | "dpu_fail" ->
        float_v () >>= fun f ->
        Ok ({ rates with dpu_fail = f; dpu_transient = f }, seed)
      | "perm" -> float_v () >>= fun f -> Ok ({ rates with dpu_fail = f }, seed)
      | "transient" -> float_v () >>= fun f -> Ok ({ rates with dpu_transient = f }, seed)
      | "bitflip" -> float_v () >>= fun f -> Ok ({ rates with mram_bitflip = f }, seed)
      | "stuck0" -> float_v () >>= fun f -> Ok ({ rates with stuck0 = f }, seed)
      | "stuck1" -> float_v () >>= fun f -> Ok ({ rates with stuck1 = f }, seed)
      | "gain" -> float_v () >>= fun f -> Ok ({ rates with gain_var = f }, seed)
      | "seed" -> (
        match int_of_string_opt v with
        | Some s -> Ok (rates, s)
        | None -> Error (Printf.sprintf "fault spec: seed expects an integer, got %S" v))
      | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
  in
  let pairs =
    List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec)
  in
  if pairs = [] then Error "fault spec: empty"
  else
    List.fold_left
      (fun acc pair -> Result.bind acc (fun st -> parse_pair st pair))
      (Ok (no_rates, 0))
      pairs
    |> Result.map (fun (rates, seed) -> { seed; rates })

let to_string p =
  let r = p.rates in
  let field name v acc = if v > 0.0 then Printf.sprintf "%s=%g," name v ^ acc else acc in
  Printf.sprintf "seed=%d,%s" p.seed
    (field "perm" r.dpu_fail
       (field "transient" r.dpu_transient
          (field "bitflip" r.mram_bitflip
             (field "stuck0" r.stuck0
                (field "stuck1" r.stuck1 (field "gain" r.gain_var ""))))))
  |> fun s -> if String.length s > 0 && s.[String.length s - 1] = ',' then String.sub s 0 (String.length s - 1) else s

(* ----- the process-wide default plan ----- *)

(* Simulators pick the default plan up at creation unless one is passed
   explicitly. This is also the [faults] field of [Config.default ()]:
   Config reads and writes the plan here, so the two cannot disagree. *)

let parsed_env = ref false
let default_plan : plan option ref = ref None

let default () =
  if not !parsed_env then begin
    parsed_env := true;
    match Sys.getenv_opt "CINM_FAULTS" with
    | None | Some "" -> ()
    | Some spec -> (
      match parse spec with
      | Ok p -> default_plan := Some p
      | Error msg -> Log.warn "ignoring CINM_FAULTS: %s" msg)
  end;
  !default_plan

let set_default p =
  parsed_env := true;
  default_plan := p
