(* In-memory span recorder for traced runs.

   The benchmark opens a span around each call it makes into a layer of
   the program (parse, one pass, a simulator hook, a socket round trip);
   nothing inside the program under test is instrumented. Every span
   knows its parent and the item it belongs to, so a layer's self time
   is its span minus its children and an item's own remainder is the
   time no layer claimed ("unattributed").

   A recorder belongs to one thread; the serve workload gives each
   client thread its own and merges them when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for an item root *)
  item : int;
  tid : int;
  t0 : float;
  t1 : float;
}

type t = {
  tid : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable item : int;
  mutable spans : span list;  (** closed spans, newest first *)
}

let next_id = Atomic.make 1
let create ~tid = { tid; stack = []; item = 0; spans = [] }

(* [with_ r name f] runs [f] inside a span; [None] records nothing, so
   the untraced code paths share the traced ones at the cost of one
   match. *)
let with_ r name f =
  match r with
  | None -> f ()
  | Some r ->
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match r.stack with p :: _ -> p | [] -> 0 in
    r.stack <- id :: r.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        r.stack <- List.tl r.stack;
        r.spans <- { id; name; parent; item = r.item; tid = r.tid; t0; t1 } :: r.spans)
      f

(* An item root: a span named "item" whose descendants carry its id. *)
let item r ~id f =
  match r with
  | None -> f ()
  | Some rr ->
    rr.item <- id;
    with_ r "item" f

let dur s = s.t1 -. s.t0

(* Self time per span name, summed over [spans]; an item root's self
   time is reported under "item". Also returns the worst relative gap
   between an item's wall time and the sum of the self times beneath it,
   which is 0 up to rounding when children nest inside their parents. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 and by_item = Hashtbl.create 4096 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      add by_name s.name self;
      add by_item (s.tid, s.item) self)
    spans;
  let worst =
    List.fold_left
      (fun acc s ->
        if s.parent <> 0 then acc
        else
          let sum = Hashtbl.find by_item (s.tid, s.item) in
          Float.max acc (Float.abs (sum -. dur s) /. Float.max (dur s) 1e-9))
      0.0 spans
  in
  (by_name, worst)

(* Chrome trace-event JSON (loads in ui.perfetto.dev): one complete
   event per span, microseconds from [t_origin]. At most [limit] spans
   are written, oldest first; the layer totals always cover them all. *)
let write_chrome ?(limit = 200_000) path ~t_origin spans =
  let spans = List.sort (fun a b -> compare a.t0 b.t0) spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i < limit then
            Printf.fprintf oc
              "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
               \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"item\":%d}}\n"
              (if i = 0 then "" else ",")
              (Cinm_serve_lib.Json.to_string (Cinm_serve_lib.Json.String s.name))
              (Cinm_serve_lib.Json.to_string
                 (Cinm_serve_lib.Json.String
                    (match String.index_opt s.name '.' with
                    | Some k -> String.sub s.name 0 k
                    | None -> s.name)))
              s.tid
              (1e6 *. (s.t0 -. t_origin))
              (1e6 *. dur s) s.id s.parent s.item)
        spans;
      output_string oc "]}\n")
