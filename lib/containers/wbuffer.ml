(* Anonymous walker buffer (QMCPACK's PooledData<T>).

   The Ref design reconstructs a walker's complete wavefunction state
   without recomputation by serializing every component's scalars into one
   flat buffer.  Usage is two-phase: a registration pass [extend]s the
   pool by each component's size; thereafter components [rewind] and move
   their slice at a running cursor, scalars with [get]/[put], blocks with
   [put_array]/[get_into] or straight into [pool] at a [block] offset.
   The Current design shrinks what goes in here — that shrinkage is the
   22.5 MB/walker message-size reduction the paper reports for NiO-64. *)

type t = { mutable data : float array; mutable size : int; mutable cursor : int }

let create ?(capacity = 64) () =
  { data = Array.make (max capacity 1) 0.; size = 0; cursor = 0 }

let size t = t.size
let cursor t = t.cursor
let bytes t = 8 * t.size

let clear t =
  t.size <- 0;
  t.cursor <- 0

let rewind t = t.cursor <- 0

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let data = Array.make !cap 0. in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let extend t n =
  if n < 0 then invalid_arg "Wbuffer.extend: negative size";
  ensure t (t.size + n);
  Array.fill t.data t.size n 0.;
  t.size <- t.size + n

(* The array becomes the pool as it is: no copy, no spare capacity.  An
   empty pool still gets one cell, since [ensure] grows by doubling. *)
let load t a =
  t.data <- (if Array.length a = 0 then [| 0. |] else a);
  t.size <- Array.length a;
  t.cursor <- 0

let pool t = t.data

let block t n =
  let at = t.cursor in
  if n < 0 || at + n > t.size then invalid_arg "Wbuffer.block: past end of pool";
  t.cursor <- at + n;
  at

let put t v =
  if t.cursor >= t.size then invalid_arg "Wbuffer.put: past end of pool";
  t.data.(t.cursor) <- v;
  t.cursor <- t.cursor + 1

let get t =
  if t.cursor >= t.size then invalid_arg "Wbuffer.get: past end of pool";
  let v = t.data.(t.cursor) in
  t.cursor <- t.cursor + 1;
  v

(* Whole arrays move as one blit: no float crosses a call boxed. *)
let put_array t a =
  let n = Array.length a in
  if t.cursor + n > t.size then invalid_arg "Wbuffer.put: past end of pool";
  Array.blit a 0 t.data t.cursor n;
  t.cursor <- t.cursor + n

let get_into t dst =
  let n = Array.length dst in
  if t.cursor + n > t.size then invalid_arg "Wbuffer.get: past end of pool";
  Array.blit t.data t.cursor dst 0 n;
  t.cursor <- t.cursor + n

(* The copy holds the pool only, not the spare capacity the doubling
   growth of the registration pass left behind. *)
let copy t =
  { data = Array.sub t.data 0 (max t.size 1); size = t.size; cursor = t.cursor }

let contents t = Array.sub t.data 0 t.size
