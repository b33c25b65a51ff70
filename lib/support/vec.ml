(* Growable array, used pervasively by the IR and the simulators.
   OCaml 5.1's stdlib has no [Dynarray]; this is a minimal substitute. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make n x; len = n }

let length v = v.len

let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let ensure_capacity v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let new_cap = max n (max 8 (2 * cap)) in
    (* Safe: we only read initialized slots below [len]. *)
    let fresh = Array.make new_cap v.data.(0) in
    Array.blit v.data 0 fresh 0 v.len;
    v.data <- fresh
  end

let push v x =
  if Array.length v.data = 0 then begin
    v.data <- Array.make 8 x;
    v.len <- 1
  end
  else begin
    ensure_capacity v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1
  end

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  v.data.(v.len)

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let to_array v = Array.init v.len (fun i -> v.data.(i))

let of_list l =
  match l with
  | [] -> create ()
  | x :: _ ->
    let v = { data = Array.make (max 8 (List.length l)) x; len = 0 } in
    List.iter (fun y -> push v y) l;
    v

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let map f v = of_list (List.map f (to_list v))

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

(* Keep only elements satisfying [p], preserving order. O(n). *)
let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!j) <- x;
      incr j
    end
  done;
  v.len <- !j
