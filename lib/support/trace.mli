(** Unified tracing & metrics for the CINM stack.

    A domain-safe structured tracer with named spans, instants and
    counters on {e two clocks}:

    - {b Host}: monotonic-ish wall-clock seconds since process start —
      where compile-time goes (pass pipeline, driver, bench harness);
    - {b Device}: simulated seconds on a device simulator's own event
      clock — where modelled time goes (DPU lanes, crossbar tiles).

    Each simulated machine registers itself as its own trace process
    ({!new_device}), so several machines in one run do not overlap.
    The whole buffer exports as Chrome trace-event JSON, loadable in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing].

    Tracing is off by default and every emission is guarded: call sites
    must test {!enabled} before building args, so a disabled tracer costs
    one atomic load and no allocation. [CINM_TRACE=FILE] in the
    environment enables tracing at startup and writes [FILE] at exit;
    [bench --trace FILE] and [cinm_opt --trace FILE] do the same
    explicitly.

    {!with_capture} opens a {e per-domain} capture: every event the
    calling domain emits inside the callback is also collected into a
    private buffer, independent of the global flag — this is how the
    serve daemon traces a single request in isolation. *)

type clock = Host | Device

type arg = Str of string | Int of int | Float of float

type event = {
  ev_name : string;
  cat : string;  (** category: "pass", "kernel", "xfer-in", "mvm", ... *)
  ph : char;  (** 'X' complete span, 'i' instant *)
  clock : clock;
  pid : int;  (** {!host_pid} or a {!new_device} pid *)
  track : string;  (** timeline within the process, e.g. "dpu3", "tile0" *)
  ts : float;  (** seconds on the event's clock *)
  dur : float;  (** span length in seconds; 0 for instants *)
  args : (string * arg) list;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Drop all collected events (device registrations survive). *)
val clear : unit -> unit

(** Host clock: wall seconds since process start. *)
val now_host : unit -> float

(** The trace process id of host wall-clock tracks. *)
val host_pid : int

(** Register a simulated device as its own trace process; the returned
    pid scopes its device-clock tracks (and {!device_total} queries). *)
val new_device : string -> int

(** Emit a complete span ([ph = 'X']). No-op when tracing is disabled,
    but callers should still guard with {!enabled} to avoid building
    [args]. *)
val complete :
  ?cat:string ->
  ?args:(string * arg) list ->
  clock:clock ->
  pid:int ->
  track:string ->
  ts:float ->
  dur:float ->
  string ->
  unit

(** Emit an instant event ([ph = 'i']). *)
val instant :
  ?cat:string ->
  ?args:(string * arg) list ->
  clock:clock ->
  pid:int ->
  track:string ->
  ts:float ->
  string ->
  unit

(** Snapshot of all events in emission order. *)
val events : unit -> event list

(** Only the simulated-time events, in emission order. Device events are
    emitted exclusively from the host thread of a simulation, so this
    list is bit-identical for any domain-pool size. *)
val device_events : unit -> event list

(** Sum of the durations of device-clock spans in a category (optionally
    restricted to one device pid), folded in emission order — the same
    additions, in the same order, as the simulator stats buckets, so the
    result is bit-identical to them. Reports read the stats; this fold
    is the view tests assert against them. Inside a capture (with global tracing
    off) the fold runs over the capture's private buffer, which holds
    the same spans in the same order. *)
val device_total : ?pid:int -> string -> float

(** {2 Per-request capture} *)

(** Events and device registrations collected by one {!with_capture}. *)
type capture = { cap_events : event list; cap_devices : (int * string) list }

(** Run the callback with a domain-local capture open: every event this
    domain emits lands in the returned capture, whether or not global
    tracing is on (events are duplicated into the global buffer when it
    is). Captures on different domains are fully isolated; nested
    captures shadow the outer one for their extent. The capture is
    closed even if the callback raises. *)
val with_capture : (unit -> 'a) -> 'a * capture

(** Render a capture as a standalone Chrome trace-event JSON document. *)
val capture_to_json : capture -> string

(** Chrome trace-event JSON (the object form, with process/thread
    metadata) — loadable in Perfetto. Host timestamps are wall
    microseconds, device timestamps simulated microseconds. *)
val to_json_string : unit -> string

val write : string -> unit

(** In-process metrics registry: monotonic counters, gauges and
    log-bucketed histograms with per-domain shards. Names are interned
    once into dense ids; every observation then writes only the calling
    domain's shard — no mutex, no CAS on the hot path. Readers merge
    the shards exactly (bucket counts are summed) under the registry
    lock. Collection is on whenever tracing is, or independently via
    {!Metrics.enable}. *)
module Metrics : sig
  val enabled : unit -> bool
  val enable : unit -> unit
  val disable : unit -> unit

  (** Clear every metric (names, help text, gauges, shard contents).
      Typed handles created before a reset keep writing into zeroed
      slots but drop out of snapshots until re-created — intended for
      tests and CLI teardown, not for live servers. *)
  val reset : unit -> unit

  (** {2 Dynamic (name-keyed) interface}

      Convenient for printf-style names ([pass.<name>.wall_ms]); each
      call interns the name under the registry lock. Hot paths that own
      their names should intern a typed handle once instead. *)

  (** Add to a monotonic counter (created at zero on first use).
      No-op when collection is off. *)
  val incr : ?by:int -> string -> unit

  (** Record one observation into a histogram. No-op when off. *)
  val observe : string -> float -> unit

  (** Current counter value, 0 when absent. *)
  val get : string -> int

  (** Set a gauge to an absolute value. No-op when collection is off. *)
  val set_gauge : ?help:string -> string -> float -> unit

  (** Register a callback gauge sampled at snapshot time (outside the
      registry lock, so it may take its owner's lock). Replaces any
      previous registration under the same name. *)
  val register_gauge : ?help:string -> string -> (unit -> float) -> unit

  val unregister_gauge : string -> unit

  (** {2 Typed handles}

      Interned once; {!add}/{!record} are lock-free single-domain
      writes. A metric name may carry Prometheus-style labels inline,
      e.g. [requests_total{code="ok"}] — the exposition groups series
      by the family before ['{']. *)

  type counter
  type histogram

  val counter : ?help:string -> string -> counter
  val histogram : ?help:string -> string -> histogram
  val add : counter -> int -> unit
  val record : histogram -> float -> unit

  (** {2 Histogram bucket geometry} (exposed for tests and clients)

      Bucket [i] covers [(bucket_upper (i-1), bucket_upper i]]; the
      last bucket's upper bound is [infinity]. 16 sub-buckets per power
      of two bound the relative quantile error by [2^(1/16) - 1]
      (~4.4%). *)

  val n_buckets : int
  val bucket_of_value : float -> int
  val bucket_upper : int -> float

  (** Escape a string for use as a Prometheus label value (['\\'], ['"']
      and newlines), e.g. when minting [family{code="<v>"}] names. *)
  val prom_escape_label : string -> string

  (** {2 Snapshots}

      Merged across shards at call time. [counters]/[gauges] return
      [(name, help, value)] sorted by name. *)

  type hist_snapshot = {
    hname : string;
    hhelp : string;
    count : int;
    sum : float;
    minv : float;  (** exact observed minimum ([infinity] when empty) *)
    maxv : float;  (** exact observed maximum *)
    buckets : (int * int) array;
        (** (bucket index, count) pairs, ascending, non-empty buckets only *)
  }

  val counters : unit -> (string * string * int) list
  val gauges : unit -> (string * string * float) list
  val histograms : unit -> hist_snapshot list
  val histogram_snapshot : string -> hist_snapshot option

  (** Bucket-resolution quantile (q in [0,1]): the upper bound of the
      bucket holding the rank-ceil(q*n) observation, clamped into
      [[minv, maxv]] so [quantile s 1.0 = maxv] exactly. 0 when empty. *)
  val quantile : hist_snapshot -> float -> float

  (** Stable dump: one line per metric, sorted by name —
      [counter <name> <value>] and
      [histogram <name> n=<n> sum=<s> min=<m> max=<M>] (empty
      histograms are omitted). *)
  val dump : unit -> string

  (** Prometheus text exposition format 0.0.4: [# HELP]/[# TYPE] per
      family, histogram [_bucket]/[_sum]/[_count] series with cumulative
      counts over non-empty buckets plus [+Inf], families sorted by
      name. *)
  val to_prometheus : unit -> string
end
