(* Precision selection for kernel storage.

   The paper's mixed-precision scheme stores bulk per-walker state (distance
   tables, Jastrow values, inverse matrices, B-spline coefficients) in single
   precision while keeping per-walker and ensemble accumulators in double
   precision.  We model that by functorizing storage-heavy kernels over a
   [REAL] module: [F64] for the reference build, [F32] for the
   mixed-precision builds.  Computations always happen in OCaml [float]
   (IEEE double); [F32] rounds through 32-bit storage on every write, which
   reproduces both the memory-footprint/bandwidth savings (bigarray storage
   is genuinely 4 bytes wide) and the rounding behaviour of the paper. *)

type f64_elt = Bigarray.float64_elt
type f32_elt = Bigarray.float32_elt

module type REAL = sig
  (** Element kind of the backing bigarrays. *)
  type elt

  val kind : (float, elt) Bigarray.kind

  val name : string
  (** ["f64"] or ["f32"]; used in reports and benchmark labels. *)

  val bytes : int
  (** Storage width in bytes (8 or 4). *)

  val simd_lanes : int
  (** Number of elements per 512-bit SIMD vector at this width; used for
      padding so that each row of a SoA container starts on a vector
      boundary, as the paper's cache-aligned allocators guarantee. *)

  val eps : float
  (** Machine epsilon of the storage format. *)

  val round : float -> float
  (** Round a double to this storage precision ([Fun.id] for f64). *)

  val get :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t -> int -> float

  val set :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t -> int -> float -> unit
  (** Unchecked element access, defined where the bigarray kind is
      statically known so the compiler emits direct loads/stores.  Going
      through [Bigarray.Array1.unsafe_get] inside a functor body (where
      the kind is abstract) falls back to the generic C path and is an
      order of magnitude slower — these accessors are the difference
      between abstraction and abstraction penalty in the hot loops.

      Caveat: without flambda, even these accessors box their float when
      CALLED through the functor parameter (a non-inlined call returns /
      receives floats boxed).  The bulk row primitives below move whole
      loops to where the kind is concrete, so batched kernels can stage
      rows in plain [float array] scratch — whose element access is
      monomorphic and allocation-free even inside a functor body — and
      cross the functor boundary once per row instead of once per
      element.  No [float] crosses these calls, so they allocate
      nothing. *)

  val read_row :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> float array -> dpos:int -> n:int -> unit
  (** [read_row a ~pos dst ~dpos ~n]: [dst.(dpos + i) <- a.(pos + i)] for
      [i < n]; unchecked. *)

  val write_row :
    float array ->
    spos:int ->
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> n:int -> unit
  (** [write_row src ~spos a ~pos ~n]: [a.(pos + i) <- src.(spos + i)] for
      [i < n]; unchecked, rounding through the storage width exactly like
      a per-element store. *)

  val copy_row :
    src:(float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    spos:int ->
    dst:(float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    dpos:int -> n:int -> unit
  (** [copy_row ~src ~spos ~dst ~dpos ~n]: contiguous element copy with
      no slice proxies (and no widening round-trip: both sides share the
      storage format). *)

  val copy_strided :
    src:(float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    spos:int ->
    stride:int ->
    dst:(float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    dpos:int -> n:int -> unit
  (** [copy_strided ~src ~spos ~stride ~dst ~dpos ~n]:
      [dst.(dpos + i) <- src.(spos + i·stride)] for [i < n] — one
      component of an interleaved (AoS) array gathered into a contiguous
      row, storage to storage. *)

  val get_into :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    int -> float array -> int -> unit
  (** [get_into a i dst j]: [dst.(j) <- a.(i)] — a single-element read
      that lands in unboxed scratch instead of a boxed return value. *)

  val dot_rows :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    apos:int ->
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    bpos:int -> n:int -> float array -> int -> unit
  (** [dot_rows a ~apos b ~bpos ~n dst j]:
      [dst.(j) <- Σᵢ a.(apos+i)·b.(bpos+i)] with double accumulation —
      the determinant-ratio row dot, one functor crossing per row and no
      boxed intermediate (the result lands in unboxed scratch). *)

  val dot_row :
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> float array -> n:int -> float array -> int -> unit
  (** [dot_row a ~pos x ~n dst j]: [dst.(j) <- Σᵢ a.(pos+i)·x.(i)] —
      storage row against plain-[float array] scratch, double
      accumulation, result into unboxed scratch. *)

  val axpy_row :
    float array ->
    ci:int ->
    float array ->
    (float, elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> n:int -> unit
  (** [axpy_row c ~ci src a ~pos ~n]:
      [a.(pos+i) <- a.(pos+i) + c.(ci)·src.(i)] — a rank-1 row update
      whose coefficient is read from scratch at index [ci] so that no
      boxed float crosses the functor boundary; each store narrows
      through the storage width. *)
end

module F64 : REAL with type elt = f64_elt = struct
  type elt = f64_elt

  let kind = Bigarray.float64
  let name = "f64"
  let bytes = 8
  let simd_lanes = 8
  let eps = epsilon_float
  let round x = x

  let get (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i =
    Bigarray.Array1.unsafe_get a i

  let set (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i v =
    Bigarray.Array1.unsafe_set a i v

  let read_row (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos
      (dst : float array) ~dpos ~n =
    for i = 0 to n - 1 do
      Array.unsafe_set dst (dpos + i) (Bigarray.Array1.unsafe_get a (pos + i))
    done

  let write_row (src : float array) ~spos
      (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set a (pos + i) (Array.unsafe_get src (spos + i))
    done

  let copy_row ~(src : (float, elt, Bigarray.c_layout) Bigarray.Array1.t)
      ~spos ~(dst : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~dpos
      ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst (dpos + i)
        (Bigarray.Array1.unsafe_get src (spos + i))
    done

  let copy_strided
      ~(src : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~spos ~stride
      ~(dst : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~dpos ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst (dpos + i)
        (Bigarray.Array1.unsafe_get src (spos + (i * stride)))
    done

  let get_into (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i
      (dst : float array) j =
    Array.unsafe_set dst j (Bigarray.Array1.unsafe_get a i)

  let dot_rows (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~apos
      (b : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~bpos ~n
      (dst : float array) j =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. Bigarray.Array1.unsafe_get a (apos + i)
           *. Bigarray.Array1.unsafe_get b (bpos + i)
    done;
    Array.unsafe_set dst j !acc

  let dot_row (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos
      (x : float array) ~n (dst : float array) j =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. Bigarray.Array1.unsafe_get a (pos + i) *. Array.unsafe_get x i
    done;
    Array.unsafe_set dst j !acc

  let axpy_row (c : float array) ~ci (src : float array)
      (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos ~n =
    let f = Array.unsafe_get c ci in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set a (pos + i)
        (Bigarray.Array1.unsafe_get a (pos + i) +. (f *. Array.unsafe_get src i))
    done
end

module F32 : REAL with type elt = f32_elt = struct
  type elt = f32_elt

  let kind = Bigarray.float32
  let name = "f32"
  let bytes = 4
  let simd_lanes = 16
  let eps = 1.1920928955078125e-07
  let round x = Int32.float_of_bits (Int32.bits_of_float x)

  let get (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i =
    Bigarray.Array1.unsafe_get a i

  let set (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i v =
    Bigarray.Array1.unsafe_set a i v

  let read_row (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos
      (dst : float array) ~dpos ~n =
    for i = 0 to n - 1 do
      Array.unsafe_set dst (dpos + i) (Bigarray.Array1.unsafe_get a (pos + i))
    done

  let write_row (src : float array) ~spos
      (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set a (pos + i) (Array.unsafe_get src (spos + i))
    done

  let copy_row ~(src : (float, elt, Bigarray.c_layout) Bigarray.Array1.t)
      ~spos ~(dst : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~dpos
      ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst (dpos + i)
        (Bigarray.Array1.unsafe_get src (spos + i))
    done

  let copy_strided
      ~(src : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~spos ~stride
      ~(dst : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~dpos ~n =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst (dpos + i)
        (Bigarray.Array1.unsafe_get src (spos + (i * stride)))
    done

  let get_into (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) i
      (dst : float array) j =
    Array.unsafe_set dst j (Bigarray.Array1.unsafe_get a i)

  let dot_rows (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~apos
      (b : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~bpos ~n
      (dst : float array) j =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. Bigarray.Array1.unsafe_get a (apos + i)
           *. Bigarray.Array1.unsafe_get b (bpos + i)
    done;
    Array.unsafe_set dst j !acc

  let dot_row (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos
      (x : float array) ~n (dst : float array) j =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. Bigarray.Array1.unsafe_get a (pos + i) *. Array.unsafe_get x i
    done;
    Array.unsafe_set dst j !acc

  let axpy_row (c : float array) ~ci (src : float array)
      (a : (float, elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos ~n =
    let f = Array.unsafe_get c ci in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set a (pos + i)
        (Bigarray.Array1.unsafe_get a (pos + i) +. (f *. Array.unsafe_get src i))
    done
end
