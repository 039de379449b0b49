open Oqmc_containers

(* A Monte Carlo walker: one electron configuration plus the bookkeeping
   needed by the DMC population (weight, multiplicity, age) and the
   anonymous buffer into which wavefunction components serialize their
   internal state.  Walkers are always stored in double precision — they
   are the units serialized for load balancing — while the compute engines
   (ParticleSet, TrialWaveFunction) hold precision-dependent copies.

   The one exception is [rows]: the determinants' orbital rows (φ, ∇φ,
   ∇²φ of every electron), kept at the inverse's storage precision so a
   restore needs no orbital evaluation.  They are a pure function of the
   positions, so they travel only in process: [copy] keeps them, the
   wire codec, the checkpoint and [message_bytes] leave them out, and an
   engine rebuilds them for a walker that arrives without. *)

module Aos = Pos_aos.Make (Precision.F64)

type rows =
  | No_rows
  | Rows_f32 of
      (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | Rows_f64 of
      (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  r : Aos.t;
  mutable weight : float;
  mutable multiplicity : int;
  mutable age : int;
  mutable log_psi : float;
  mutable e_local : float;
  buffer : Wbuffer.t;
  mutable rows : rows;
  id : int;
}

let counter = ref 0

let create n =
  incr counter;
  {
    r = Aos.create n;
    weight = 1.;
    multiplicity = 1;
    age = 0;
    log_psi = 0.;
    e_local = 0.;
    buffer = Wbuffer.create ();
    rows = No_rows;
    id = !counter;
  }

let n_particles t = Aos.length t.r

let copy_array a =
  let b =
    Bigarray.Array1.create (Bigarray.Array1.kind a) Bigarray.c_layout
      (Bigarray.Array1.dim a)
  in
  Bigarray.Array1.blit a b;
  b

let copy_rows = function
  | No_rows -> No_rows
  | Rows_f32 a -> Rows_f32 (copy_array a)
  | Rows_f64 a -> Rows_f64 (copy_array a)

let rows_of : type e.
    (float, e) Bigarray.kind ->
    t ->
    (float, e, Bigarray.c_layout) Bigarray.Array1.t option =
 fun kind t ->
  match (kind, t.rows) with
  | Bigarray.Float32, Rows_f32 a -> Some a
  | Bigarray.Float64, Rows_f64 a -> Some a
  | _ -> None

let rows_for : type e.
    (float, e) Bigarray.kind ->
    t ->
    int ->
    (float, e, Bigarray.c_layout) Bigarray.Array1.t =
 fun kind t len ->
  match rows_of kind t with
  | Some a when Bigarray.Array1.dim a = len -> a
  | _ ->
      let a = Bigarray.Array1.create kind Bigarray.c_layout len in
      (t.rows <-
         match kind with
         | Bigarray.Float32 -> Rows_f32 a
         | Bigarray.Float64 -> Rows_f64 a);
      a

let drop_rows t = t.rows <- No_rows

type f32s = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64s = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The entry-wise relative deviation |t - m| / (1 + |t|), maximized; a
   NaN entry yields infinity.  One loop per storage kind, so element
   reads stay unboxed and nothing is allocated. *)
let dev_f32 (t : f32s) (m : f32s) =
  let d = ref 0. in
  for i = 0 to Bigarray.Array1.dim t - 1 do
    let x = Bigarray.Array1.unsafe_get t i in
    let y = Bigarray.Array1.unsafe_get m i in
    let e = Float.abs (x -. y) /. (1. +. Float.abs x) in
    if not (e <= !d) then d := if Float.is_nan e then Float.infinity else e
  done;
  !d

let dev_f64 (t : f64s) (m : f64s) =
  let d = ref 0. in
  for i = 0 to Bigarray.Array1.dim t - 1 do
    let x = Bigarray.Array1.unsafe_get t i in
    let y = Bigarray.Array1.unsafe_get m i in
    let e = Float.abs (x -. y) /. (1. +. Float.abs x) in
    if not (e <= !d) then d := if Float.is_nan e then Float.infinity else e
  done;
  !d

let rows_deviation ~truth t =
  let same a b = Bigarray.Array1.dim a = Bigarray.Array1.dim b in
  match (truth.rows, t.rows) with
  | _, No_rows -> 0.
  | Rows_f32 a, Rows_f32 b when same a b -> dev_f32 a b
  | Rows_f64 a, Rows_f64 b when same a b -> dev_f64 a b
  | _ -> Float.infinity

let copy t =
  incr counter;
  {
    r = Aos.copy t.r;
    weight = t.weight;
    multiplicity = t.multiplicity;
    age = t.age;
    log_psi = t.log_psi;
    e_local = t.e_local;
    buffer = Wbuffer.copy t.buffer;
    rows = copy_rows t.rows;
    id = !counter;
  }

(* Size of the serialized walker (positions + scalars + buffer): the
   load-balancing message the paper's Jastrow memory optimization shrinks
   by 22.5 MB for NiO-64.  The carried rows are not part of it. *)
let message_bytes t = Aos.bytes t.r + (8 * 4) + Wbuffer.bytes t.buffer

(* ---------- binary wire codec ----------

   The serialized form a real rank exchange ships over a pipe or socket:
   big-endian, fixed layout, floats as raw IEEE-754 bits so a
   encode/decode roundtrip is bit-exact.  The walker [id] is *not*
   serialized — like [copy], decoding mints a fresh process-local id. *)

let put_i32 buf n = Buffer.add_int32_be buf (Int32.of_int n)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let get_i32 s pos =
  let v = Int32.to_int (String.get_int32_be s !pos) in
  pos := !pos + 4;
  v

let get_f64 s pos =
  let v = Int64.float_of_bits (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let encode buf t =
  let n = n_particles t in
  put_i32 buf n;
  put_f64 buf t.weight;
  put_i32 buf t.multiplicity;
  put_i32 buf t.age;
  put_f64 buf t.log_psi;
  put_f64 buf t.e_local;
  for i = 0 to n - 1 do
    let p = Aos.get t.r i in
    put_f64 buf p.Vec3.x;
    put_f64 buf p.Vec3.y;
    put_f64 buf p.Vec3.z
  done;
  let b = Wbuffer.contents t.buffer in
  put_i32 buf (Array.length b);
  Array.iter (fun v -> put_f64 buf v) b

let decode s pos =
  let guard what n lo =
    if n < lo then
      invalid_arg (Printf.sprintf "Walker.decode: bad %s %d" what n)
  in
  let n = get_i32 s pos in
  guard "particle count" n 1;
  let w = create n in
  w.weight <- get_f64 s pos;
  w.multiplicity <- get_i32 s pos;
  w.age <- get_i32 s pos;
  guard "age" w.age 0;
  w.log_psi <- get_f64 s pos;
  w.e_local <- get_f64 s pos;
  for i = 0 to n - 1 do
    let x = get_f64 s pos in
    let y = get_f64 s pos in
    let z = get_f64 s pos in
    Aos.set w.r i (Vec3.make x y z)
  done;
  let nbuf = get_i32 s pos in
  guard "buffer length" nbuf 0;
  if nbuf > (String.length s - !pos) / 8 then
    invalid_arg (Printf.sprintf "Walker.decode: bad buffer length %d" nbuf);
  let b = Array.make nbuf 0. in
  for i = 0 to nbuf - 1 do
    b.(i) <- get_f64 s pos
  done;
  Wbuffer.load w.buffer b;
  w
