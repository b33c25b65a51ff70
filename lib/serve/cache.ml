(* Cross-request pipeline cache.

   Compiling a benchmark is deterministic in (benchmark, backend, strict):
   the descriptor builds identical fresh IR every time and the pass
   pipeline is a pure function of the backend config (strict is in the
   key because a strict compile proves more — serving a strict request
   from a non-strict artifact would skip the per-pass verification the
   request asked for). So the daemon caches the compiled module and reuses
   it read-only across requests: execution binds values in per-request
   interpreter contexts and never mutates the module's IR.

   Reusing the module also reuses the compiled code stored on its blocks
   ([Compile] keeps a region's unit on its entry block), so a request
   that hits this cache runs without recompiling, while a fresh compile
   builds fresh blocks and compiles again. Evicting a module frees its
   code with it.

   Only clean compiles are cached: a CPU-fallback artifact encodes a
   failure that may be config-dependent (pass budgets are wall-clock), so
   degraded compiles are rebuilt per request. Eviction is FIFO under a
   size cap. *)

type key = { benchmark : string; backend : string; strict : bool }

type t = {
  mutex : Mutex.t;
  entries : (key, Cinm_core.Driver.compiled) Hashtbl.t;
  order : key Queue.t;  (* insertion order, for FIFO eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?(capacity = 256) () =
  {
    mutex = Mutex.create ();
    entries = Hashtbl.create 64;
    order = Queue.create ();
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.entries key in
  (match r with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.mutex;
  r

(* Insert a clean compile. Concurrent compiles of the same key both run
   (wasted work, not wrong results); first insert wins so later requests
   share one module object. *)
let add t key compiled =
  if compiled.Cinm_core.Driver.fallback = None then begin
    Mutex.lock t.mutex;
    if not (Hashtbl.mem t.entries key) then begin
      while Hashtbl.length t.entries >= t.capacity do
        let victim = Queue.pop t.order in
        Hashtbl.remove t.entries victim;
        t.evictions <- t.evictions + 1
      done;
      Hashtbl.add t.entries key compiled;
      Queue.push key t.order
    end;
    Mutex.unlock t.mutex
  end

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Hashtbl.length t.entries;
    }
  in
  Mutex.unlock t.mutex;
  s
