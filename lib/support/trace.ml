(* Unified tracing & metrics (see trace.mli for the model).

   Concurrency: events may be pushed from any domain (the UPMEM
   simulator's kernel lanes run on a domain pool), so the buffer is
   guarded by a mutex and the on/off flags are atomics. In practice all
   device-clock events are emitted from the sequential host side of a
   simulation — the timing models run on the host in PU order — which is
   what makes the simulated-time track deterministic for any --jobs
   count.

   Determinism note for [device_total]: simulator stats buckets are
   built by sequential [+.] accumulation of per-event costs; every such
   increment emits exactly one span with that cost as its duration, and
   the fold below adds them back in emission order. Same floats, same
   order, same rounding — the trace-derived totals are bit-identical to
   the stats fields. Reports read the stats alone; the fold is a view of
   them, which test_trace asserts bucket by bucket.

   Per-request capture: a domain can open a capture ([with_capture]) that
   collects every event it emits into a private, domain-local buffer —
   independent of the global on/off flag — so a server can trace one
   request in isolation while its neighbours run untraced. The capture
   buffer lives in Domain.DLS, so two captures on different worker
   domains never see each other's spans; the only shared state is an
   atomic count of active captures, checked before the DLS read so the
   no-capture fast path stays one atomic load. *)

type clock = Host | Device

type arg = Str of string | Int of int | Float of float

type event = {
  ev_name : string;
  cat : string;
  ph : char;
  clock : clock;
  pid : int;
  track : string;
  ts : float;
  dur : float;
  args : (string * arg) list;
}

let host_pid = 1

let on = Atomic.make false

let mtx = Mutex.create ()

let locked f =
  Mutex.lock mtx;
  Fun.protect ~finally:(fun () -> Mutex.unlock mtx) f

let buf : event Vec.t = Vec.create ()
let device_names : (int * string) Vec.t = Vec.create ()
let next_pid = Atomic.make 2 (* pid 1 is the host *)

let epoch = Unix.gettimeofday ()
let now_host () = Unix.gettimeofday () -. epoch

let enable () = Atomic.set on true
let disable () = Atomic.set on false
let clear () = locked (fun () -> Vec.clear buf)

(* ----- per-request capture ----- *)

type capture = {
  cap_events : event list;
  cap_devices : (int * string) list;  (** pids registered during the capture *)
}

type capture_buf = { cbuf : event Vec.t; cdevices : (int * string) Vec.t }

let active_captures = Atomic.make 0

let capture_key : capture_buf option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Fast path: one atomic load when no capture is open anywhere. *)
let current_capture () =
  if Atomic.get active_captures = 0 then None else Domain.DLS.get capture_key

let capturing () = current_capture () <> None

let enabled () = Atomic.get on || capturing ()

let new_device name =
  let pid = Atomic.fetch_and_add next_pid 1 in
  (match current_capture () with
  | Some c ->
    Vec.push c.cdevices (pid, name);
    if Atomic.get on then locked (fun () -> Vec.push device_names (pid, name))
  | None -> locked (fun () -> Vec.push device_names (pid, name)));
  pid

let push ev =
  (match current_capture () with
  | Some c -> Vec.push c.cbuf ev
  | None -> ());
  if Atomic.get on then locked (fun () -> Vec.push buf ev)

let complete ?(cat = "") ?(args = []) ~clock ~pid ~track ~ts ~dur name =
  if enabled () then
    push { ev_name = name; cat; ph = 'X'; clock; pid; track; ts; dur; args }

let instant ?(cat = "") ?(args = []) ~clock ~pid ~track ~ts name =
  if enabled () then
    push { ev_name = name; cat; ph = 'i'; clock; pid; track; ts; dur = 0.0; args }

let with_capture f =
  let c = { cbuf = Vec.create (); cdevices = Vec.create () } in
  let prev = Domain.DLS.get capture_key in
  Domain.DLS.set capture_key (Some c);
  Atomic.incr active_captures;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active_captures;
      Domain.DLS.set capture_key prev)
    (fun () ->
      let r = f () in
      (r, { cap_events = Vec.to_list c.cbuf; cap_devices = Vec.to_list c.cdevices }))

let events () = locked (fun () -> Vec.to_list buf)

let device_events () =
  List.filter (fun e -> e.clock = Device) (events ())

let fold_device_total ~pid ~cat acc e =
  if
    e.clock = Device && e.ph = 'X' && e.cat = cat
    && (match pid with None -> true | Some p -> e.pid = p)
  then acc +. e.dur
  else acc

(* When the global buffer is live it is authoritative (a concurrent
   capture duplicates events into both, so folding both would double
   count); a capture-only domain folds its private buffer, which holds
   the same spans in the same emission order, hence the same floats. *)
let device_total ?pid cat =
  if Atomic.get on then
    locked (fun () -> Vec.fold_left (fold_device_total ~pid ~cat) 0.0 buf)
  else
    match current_capture () with
    | Some c -> Vec.fold_left (fold_device_total ~pid ~cat) 0.0 c.cbuf
    | None -> locked (fun () -> Vec.fold_left (fold_device_total ~pid ~cat) 0.0 buf)

(* ----- Chrome trace-event JSON export ----- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let arg_to_json = function
  | Str s -> "\"" ^ escape s ^ "\""
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f

let args_to_json = function
  | [] -> ""
  | args ->
    Printf.sprintf ",\"args\":{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (arg_to_json v))
            args))

let json_of_events ~devices (evs : event array) =
  (* tids are assigned per pid in first-appearance order, which is
     deterministic because the event buffer itself is *)
  let tids : (int * string, int) Hashtbl.t = Hashtbl.create 32 in
  let next_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let track_meta : (int * string * int) Vec.t = Vec.create () in
  let tid_of pid track =
    match Hashtbl.find_opt tids (pid, track) with
    | Some t -> t
    | None ->
      let n = Option.value (Hashtbl.find_opt next_tid pid) ~default:0 in
      Hashtbl.replace next_tid pid (n + 1);
      Hashtbl.replace tids (pid, track) n;
      Vec.push track_meta (pid, track, n);
      n
  in
  Array.iter (fun e -> ignore (tid_of e.pid e.track)) evs;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{ \"traceEvents\": [\n";
  let first = ref true in
  let line s =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b s
  in
  let meta ~pid ~tid what name =
    line
      (Printf.sprintf
         "  {\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         what pid tid (escape name))
  in
  meta ~pid:host_pid ~tid:0 "process_name" "host (wall clock)";
  List.iter (fun (pid, name) -> meta ~pid ~tid:0 "process_name" name) devices;
  Vec.iter (fun (pid, track, tid) -> meta ~pid ~tid "thread_name" track) track_meta;
  Array.iter
    (fun e ->
      let tid = Hashtbl.find tids (e.pid, e.track) in
      let cat = if e.cat = "" then "cinm" else e.cat in
      let common =
        Printf.sprintf
          "  {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.6f"
          (escape e.ev_name) (escape cat) e.ph e.pid tid (1e6 *. e.ts)
      in
      let tail =
        match e.ph with
        | 'X' -> Printf.sprintf ",\"dur\":%.6f%s}" (1e6 *. e.dur) (args_to_json e.args)
        | 'i' -> Printf.sprintf ",\"s\":\"t\"%s}" (args_to_json e.args)
        | _ -> args_to_json e.args ^ "}"
      in
      line (common ^ tail))
    evs;
  Buffer.add_string b "\n],\n";
  Buffer.add_string b "\"displayTimeUnit\": \"ms\",\n";
  Buffer.add_string b
    "\"otherData\": { \"tool\": \"cinm\", \"host_clock\": \"wall microseconds since process start\", \"device_clock\": \"simulated microseconds\" }\n}\n";
  Buffer.contents b

let to_json_string () =
  let evs, devices =
    locked (fun () -> (Vec.to_array buf, Vec.to_list device_names))
  in
  json_of_events ~devices evs

let capture_to_json c =
  json_of_events ~devices:c.cap_devices (Array.of_list c.cap_events)

let write path =
  let oc = open_out path in
  output_string oc (to_json_string ());
  close_out oc

(* ----- metrics registry ----- *)

module Metrics = struct
  let flag = Atomic.make false
  let enabled () = Atomic.get flag || Atomic.get on
  let enable () = Atomic.set flag true
  let disable () = Atomic.set flag false

  (* ---- histogram bucket geometry ----
     Log-bucketed, HDR-style: [sub] buckets per power of two over
     [lo, lo * 2^octaves), plus a final overflow bucket. Bucket [i]
     covers (upper (i-1), upper i] with upper i = lo * 2^((i+1)/sub),
     so the relative quantile error is bounded by 2^(1/sub) - 1 (~4.4%
     at sub = 16). With lo = 1e-9 the range spans nanoseconds to ~36
     years — per-pass wall milliseconds and end-to-end request seconds
     share one geometry. *)
  let sub = 16
  let lo = 1e-9
  let octaves = 60
  let n_buckets = (sub * octaves) + 1

  let bucket_upper i =
    if i >= n_buckets - 1 then infinity
    else lo *. Float.pow 2.0 (float_of_int (i + 1) /. float_of_int sub)

  let bucket_of_value v =
    if not (v > lo) then 0
    else if not (v <= bucket_upper (n_buckets - 2)) then
      (* past the last finite bound (or infinite/NaN-ish): the overflow
         bucket; [v /. lo] below could overflow and wreck the fixup *)
      n_buckets - 1
    else begin
      let m, e = Float.frexp (v /. lo) in
      (* log2 (v/lo) = e + log2 m with m in [0.5, 1) *)
      let l2 = float_of_int e +. (Float.log m /. Float.log 2.0) in
      let i = int_of_float (l2 *. float_of_int sub) in
      let i = max 0 (min (n_buckets - 1) i) in
      (* the float log is a hair off at bucket edges; nudge so the
         (upper (i-1), upper i] contract holds exactly *)
      if i > 0 && v <= bucket_upper (i - 1) then i - 1
      else if i < n_buckets - 1 && v > bucket_upper i then i + 1
      else i
    end

  (* ---- registry ----
     Names are interned once (under the trace mutex) into dense ids;
     every observation then touches only the calling domain's shard —
     plain loads and stores on domain-private arrays, no lock, no CAS.
     Readers take the mutex (which freezes shard *registration*, not
     writers) and sum across shards; a racing writer can at worst make
     a snapshot a few observations stale, never torn, because each
     bucket slot is a single word updated by exactly one domain. *)

  type meta = { id : int; mutable help : string }

  let cmetas : (string, meta) Hashtbl.t = Hashtbl.create 64
  let hmetas : (string, meta) Hashtbl.t = Hashtbl.create 32
  let next_cid = ref 0
  let next_hid = ref 0

  type hshard = {
    hcounts : int array;
    mutable hsum : float;
    mutable hmn : float;
    mutable hmx : float;
  }

  type shard = {
    mutable sctrs : int array;  (** indexed by counter id *)
    mutable shists : hshard option array;  (** indexed by histogram id *)
  }

  let shards : shard Vec.t = Vec.create ()

  let shard_key : shard Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let s = { sctrs = [||]; shists = [||] } in
        locked (fun () -> Vec.push shards s);
        s)

  (* Must never be called with [mtx] held: first use on a domain
     registers the shard under the mutex. *)
  let my_shard () = Domain.DLS.get shard_key

  type counter = int
  type histogram = int

  let intern table next ?(help = "") name =
    locked (fun () ->
        match Hashtbl.find_opt table name with
        | Some m ->
          if help <> "" && m.help = "" then m.help <- help;
          m.id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.replace table name { id; help };
          id)

  let counter ?help name = intern cmetas next_cid ?help name
  let histogram ?help name = intern hmetas next_hid ?help name

  let grow_ctrs s id =
    let a = Array.make (max 8 ((id + 1) * 2)) 0 in
    Array.blit s.sctrs 0 a 0 (Array.length s.sctrs);
    s.sctrs <- a

  let add c by =
    if enabled () then begin
      let s = my_shard () in
      if Array.length s.sctrs <= c then grow_ctrs s c;
      s.sctrs.(c) <- s.sctrs.(c) + by
    end

  let hist_shard s h =
    if Array.length s.shists <= h then begin
      let a = Array.make (max 8 ((h + 1) * 2)) None in
      Array.blit s.shists 0 a 0 (Array.length s.shists);
      s.shists <- a
    end;
    match s.shists.(h) with
    | Some hs -> hs
    | None ->
      let hs =
        {
          hcounts = Array.make n_buckets 0;
          hsum = 0.0;
          hmn = infinity;
          hmx = neg_infinity;
        }
      in
      s.shists.(h) <- Some hs;
      hs

  let record h v =
    if enabled () then begin
      let s = my_shard () in
      let hs = hist_shard s h in
      let b = bucket_of_value v in
      hs.hcounts.(b) <- hs.hcounts.(b) + 1;
      hs.hsum <- hs.hsum +. v;
      if v < hs.hmn then hs.hmn <- v;
      if v > hs.hmx then hs.hmx <- v
    end

  let incr ?(by = 1) name = if enabled () then add (counter name) by
  let observe name v = if enabled () then record (histogram name) v

  (* ---- gauges ----
     Settable gauges are plain cells; callback gauges sample live state
     (pool depth, cache occupancy) at snapshot time. Callbacks run
     *outside* the registry mutex — they may take their owner's lock
     (pool, cache), and holding ours across that would order locks both
     ways round. [register_gauge] replaces by name so a restarted server
     in one process re-points the gauge at its live instance. *)
  let gauge_fns : (string, string * (unit -> float)) Hashtbl.t = Hashtbl.create 16
  let gauge_vals : (string, string * float ref) Hashtbl.t = Hashtbl.create 16

  let register_gauge ?(help = "") name fn =
    locked (fun () -> Hashtbl.replace gauge_fns name (help, fn))

  let set_gauge ?(help = "") name v =
    if enabled () then
      locked (fun () ->
          match Hashtbl.find_opt gauge_vals name with
          | Some (_, r) -> r := v
          | None -> Hashtbl.replace gauge_vals name (help, ref v))

  let reset () =
    locked (fun () ->
        Hashtbl.reset cmetas;
        Hashtbl.reset hmetas;
        Hashtbl.reset gauge_fns;
        Hashtbl.reset gauge_vals;
        Vec.iter
          (fun s ->
            Array.fill s.sctrs 0 (Array.length s.sctrs) 0;
            Array.iteri
              (fun i hs ->
                ignore hs;
                s.shists.(i) <- None)
              s.shists)
          shards)

  (* ---- snapshots ---- *)

  type hist_snapshot = {
    hname : string;
    hhelp : string;
    count : int;
    sum : float;
    minv : float;
    maxv : float;
    buckets : (int * int) array;  (** (bucket index, count), non-empty only *)
  }

  let sum_counter_locked m =
    Vec.fold_left
      (fun acc s -> acc + (if Array.length s.sctrs > m.id then s.sctrs.(m.id) else 0))
      0 shards

  let get name =
    locked (fun () ->
        match Hashtbl.find_opt cmetas name with
        | None -> 0
        | Some m -> sum_counter_locked m)

  let counters () =
    locked (fun () ->
        Hashtbl.fold (fun n m acc -> (n, m.help, sum_counter_locked m) :: acc) cmetas [])
    |> List.sort compare

  let merge_hist_locked name help m =
    let counts = Array.make n_buckets 0 in
    let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
    Vec.iter
      (fun s ->
        if Array.length s.shists > m.id then
          match s.shists.(m.id) with
          | None -> ()
          | Some hs ->
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) hs.hcounts;
            sum := !sum +. hs.hsum;
            if hs.hmn < !mn then mn := hs.hmn;
            if hs.hmx > !mx then mx := hs.hmx)
      shards;
    let nonempty = ref [] in
    let total = ref 0 in
    for i = n_buckets - 1 downto 0 do
      if counts.(i) > 0 then begin
        nonempty := (i, counts.(i)) :: !nonempty;
        total := !total + counts.(i)
      end
    done;
    {
      hname = name;
      hhelp = help;
      count = !total;
      sum = !sum;
      minv = !mn;
      maxv = !mx;
      buckets = Array.of_list !nonempty;
    }

  let histograms () =
    locked (fun () ->
        Hashtbl.fold (fun n m acc -> merge_hist_locked n m.help m :: acc) hmetas [])
    |> List.sort (fun a b -> compare a.hname b.hname)

  let histogram_snapshot name =
    locked (fun () ->
        Option.map
          (fun m -> merge_hist_locked name m.help m)
          (Hashtbl.find_opt hmetas name))

  let gauges () =
    let fns, vals =
      locked (fun () ->
          ( Hashtbl.fold (fun n (h, f) acc -> (n, h, f) :: acc) gauge_fns [],
            Hashtbl.fold (fun n (h, r) acc -> (n, h, !r) :: acc) gauge_vals [] ))
    in
    (* callbacks sampled outside the lock; a dead callback reads as NaN *)
    List.map (fun (n, h, f) -> (n, h, try f () with _ -> nan)) fns @ vals
    |> List.sort compare

  (* Bucket-resolution quantile: the upper bound of the bucket holding
     the rank-th observation, clamped into [minv, maxv] so q=1 returns
     the exact max and a single-observation histogram returns the exact
     value. Error is bounded by one bucket width (~4.4%). *)
  let quantile snap q =
    if snap.count = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (q *. float_of_int snap.count)) in
      let rank = max 1 (min snap.count rank) in
      let n = Array.length snap.buckets in
      let rec go i cum =
        if i >= n then snap.maxv
        else begin
          let b, c = snap.buckets.(i) in
          let cum = cum + c in
          if cum >= rank then Float.min snap.maxv (Float.max snap.minv (bucket_upper b))
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  let dump () =
    let lines =
      List.map (fun (n, _, v) -> Printf.sprintf "counter %s %d" n v) (counters ())
      @ List.filter_map
          (fun s ->
            if s.count = 0 then None
            else
              Some
                (Printf.sprintf "histogram %s n=%d sum=%.6g min=%.6g max=%.6g"
                   s.hname s.count s.sum s.minv s.maxv))
          (histograms ())
    in
    String.concat "" (List.map (fun l -> l ^ "\n") (List.sort compare lines))

  (* ---- Prometheus text exposition ---- *)

  let prom_escape_help s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let prom_escape_label s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Registry names are free-form ("pass.cinm-to-cnm.wall_ms"); the
     exposition must emit [a-zA-Z0-9_:] names, so anything else becomes
     '_' (families that collide after sanitization merge — acceptable
     for dotted debug metrics, and the serve metrics are already
     clean). *)
  let prom_name s =
    let sane =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        s
    in
    if sane <> "" && sane.[0] >= '0' && sane.[0] <= '9' then "_" ^ sane
    else sane

  (* "family{a="b"}" -> family, {a="b"}; labels must already be escaped
     by whoever minted the metric name. *)
  let split_labels name =
    match String.index_opt name '{' with
    | None -> (name, "")
    | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))

  let with_extra_label labels key value =
    let kv = Printf.sprintf "%s=\"%s\"" key value in
    if labels = "" then "{" ^ kv ^ "}"
    else String.sub labels 0 (String.length labels - 1) ^ "," ^ kv ^ "}"

  let prom_float f =
    if Float.is_nan f then "NaN"
    else if f = infinity then "+Inf"
    else if f = neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" f

  let le_string ub = if ub = infinity then "+Inf" else Printf.sprintf "%.9g" ub

  let to_prometheus () =
    (* one entry per family: (family, type, help, series lines) — series
       within a family keep snapshot (name-sorted) order, families are
       then sorted, so output is stable run to run *)
    let fams : (string, string * string ref * string list ref) Hashtbl.t =
      Hashtbl.create 32
    in
    let order : string Vec.t = Vec.create () in
    let family_slot fam ty help =
      match Hashtbl.find_opt fams fam with
      | Some (_, h, lines) ->
        if help <> "" && !h = "" then h := help;
        lines
      | None ->
        let lines = ref [] in
        Hashtbl.replace fams fam (ty, ref help, lines);
        Vec.push order fam;
        lines
    in
    List.iter
      (fun (name, help, v) ->
        let fam, labels = split_labels name in
        let fam = prom_name fam in
        let lines = family_slot fam "counter" help in
        lines := Printf.sprintf "%s%s %d" fam labels v :: !lines)
      (counters ());
    List.iter
      (fun (name, help, v) ->
        let fam, labels = split_labels name in
        let fam = prom_name fam in
        let lines = family_slot fam "gauge" help in
        lines := Printf.sprintf "%s%s %s" fam labels (prom_float v) :: !lines)
      (gauges ());
    List.iter
      (fun s ->
        let fam, labels = split_labels s.hname in
        let fam = prom_name fam in
        let lines = family_slot fam "histogram" s.hhelp in
        let cum = ref 0 in
        Array.iter
          (fun (b, c) ->
            cum := !cum + c;
            lines :=
              Printf.sprintf "%s_bucket%s %d" fam
                (with_extra_label labels "le" (le_string (bucket_upper b)))
                !cum
              :: !lines)
          s.buckets;
        lines :=
          Printf.sprintf "%s_bucket%s %d" fam
            (with_extra_label labels "le" "+Inf")
            s.count
          :: !lines;
        lines := Printf.sprintf "%s_sum%s %s" fam labels (prom_float s.sum) :: !lines;
        lines := Printf.sprintf "%s_count%s %d" fam labels s.count :: !lines)
      (histograms ());
    let b = Buffer.create 4096 in
    let fam_names = List.sort compare (Vec.to_list order) in
    List.iter
      (fun fam ->
        let ty, help, lines = Hashtbl.find fams fam in
        if !help <> "" then
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" fam (prom_escape_help !help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" fam ty);
        List.iter (fun l -> Buffer.add_string b (l ^ "\n")) (List.rev !lines))
      fam_names;
    Buffer.contents b
end

(* CINM_TRACE=FILE: enable at startup, export at exit. *)
let () =
  match Sys.getenv_opt "CINM_TRACE" with
  | None | Some "" -> ()
  | Some file ->
    enable ();
    at_exit (fun () -> write file)
