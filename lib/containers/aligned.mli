(** Contiguous, unboxed, padded arrays of reals backing every
    storage-heavy kernel.  The functor fixes the storage precision; values
    are plain C-layout bigarrays so kernels written against a concrete
    precision get monomorphic (fast) element access. *)

val round_up : int -> int -> int
(** [round_up n m] is the smallest multiple of [m] that is [>= n] ([m] for
    [n <= 0]).  @raise Invalid_argument if [m <= 0]. *)

module Make (R : Precision.REAL) : sig
  type t = (float, R.elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  (** Zero-initialized array of [n] elements. *)

  val padded_len : int -> int
  (** Logical length rounded up to a whole number of SIMD vectors at this
      precision, matching the paper's cache-aligned row stride [Nᵖ]. *)

  val create_padded : int -> t
  val length : t -> int

  val get : t -> int -> float
  val set : t -> int -> float -> unit
  (** [set] rounds through the storage precision. *)

  val unsafe_get : t -> int -> float
  val unsafe_set : t -> int -> float -> unit
  (** Unchecked access for inner loops.  [unsafe_set] relies on the bigarray
      write itself to narrow to storage precision. *)

  val read_into : t -> pos:int -> float array -> n:int -> unit
  (** [read_into a ~pos dst ~n]: [dst.(i) <- a.(pos + i)], unchecked.
      Bulk row staging for the crowd-batched kernels: one call per row
      crosses the precision functor instead of one boxed float per
      element, so inner loops over the [float array] mirror allocate
      nothing. *)

  val write_from : float array -> t -> pos:int -> n:int -> unit
  (** [write_from src a ~pos ~n]: [a.(pos + i) <- src.(i)], unchecked,
      narrowing through the storage width exactly like a per-element
      store. *)

  val to_buffer : t -> pos:int -> n:int -> Wbuffer.t -> unit
  (** [to_buffer a ~pos ~n buf] writes [a.(pos) .. a.(pos + n - 1)] into
      [buf] at its cursor and advances it: one bulk row straight into the
      pool, no staging copy and no boxed float.  Reading [a] is
      unchecked.  @raise Invalid_argument past the end of the pool. *)

  val of_buffer : Wbuffer.t -> t -> pos:int -> n:int -> unit
  (** [of_buffer buf a ~pos ~n] is the inverse of {!to_buffer}: the [n]
      entries at the cursor into [a.(pos ..)], narrowing through the
      storage width like a per-element store.
      @raise Invalid_argument past the end of the pool. *)

  val copy_within : src:t -> spos:int -> dst:t -> dpos:int -> n:int -> unit
  (** Contiguous unchecked element copy without slice proxies; both sides
      stay in the storage format (no widening round-trip). *)

  val copy_strided :
    src:t -> spos:int -> stride:int -> dst:t -> dpos:int -> n:int -> unit
  (** [copy_strided ~src ~spos ~stride ~dst ~dpos ~n]:
      [dst.(dpos + i) <- src.(spos + i·stride)], unchecked — one
      component of an interleaved array gathered into a contiguous row in
      a single functor crossing. *)

  val get_into : t -> int -> float array -> int -> unit
  (** [get_into a i dst j]: [dst.(j) <- a.(i)] — a one-element read landing
      in unboxed scratch rather than a boxed return value. *)

  val dot_into :
    a:t -> apos:int -> b:t -> bpos:int -> n:int -> float array -> int -> unit
  (** [dot_into ~a ~apos ~b ~bpos ~n dst j]:
      [dst.(j) <- Σᵢ a.(apos+i)·b.(bpos+i)] with double accumulation —
      one functor crossing per row-dot, result in unboxed scratch. *)

  val dot_arr_into :
    t -> pos:int -> float array -> n:int -> float array -> int -> unit
  (** [dot_arr_into a ~pos x ~n dst j]: [dst.(j) <- Σᵢ a.(pos+i)·x.(i)] —
      storage row dotted against plain scratch. *)

  val axpy_from :
    float array -> ci:int -> float array -> t -> pos:int -> n:int -> unit
  (** [axpy_from c ~ci src a ~pos ~n]:
      [a.(pos+i) <- a.(pos+i) + c.(ci)·src.(i)] — rank-1 row update whose
      coefficient is read from scratch so no boxed float crosses the
      functor boundary. *)

  val fill : t -> float -> unit
  val blit : src:t -> dst:t -> unit
  val sub : t -> pos:int -> len:int -> t
  (** Shared-storage slice. *)

  val copy : t -> t
  val of_array : float array -> t
  val to_array : t -> float array
  val iteri : (int -> float -> unit) -> t -> unit
  val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

  val bytes : t -> int
  (** Allocated storage in bytes; feeds the memory-footprint accounting. *)
end
