(** Anonymous walker buffer — QMCPACK's [PooledData<T>].  A flat pool of
    scalars into which wavefunction components serialize the internal state
    needed to resume particle-by-particle updates on a stored walker.

    Two-phase protocol: a registration pass sizes the pool with {!extend};
    later passes {!rewind} and then stream through it in the same
    component order, scalars with {!get}/{!put}, whole blocks with
    {!put_array}/{!get_into} or directly in {!pool} at a {!block}. *)

type t

val create : ?capacity:int -> unit -> t
val size : t -> int
val cursor : t -> int

val bytes : t -> int
(** Pool footprint in bytes (doubles); the walker message size of the
    paper's load-balancing step. *)

val clear : t -> unit
val rewind : t -> unit

val extend : t -> int -> unit
(** [extend t n] appends [n] zeros during the registration pass (grows
    the pool).  @raise Invalid_argument if [n < 0]. *)

val load : t -> float array -> unit
(** [load t a] makes [a] the whole pool, cursor at 0: no copy and no
    spare capacity.  [a] is owned by [t] afterwards. *)

val pool : t -> float array
(** The backing array; entries [[0, size)] are the pool.  Valid until the
    next {!extend} or {!load}. *)

val block : t -> int -> int
(** [block t n] is the index in {!pool} of the [n] entries at the cursor,
    and advances the cursor past them: a component reads or writes that
    range in place, with no staging copy.
    @raise Invalid_argument past the end of the pool. *)

val put : t -> float -> unit
(** Overwrite at the cursor and advance.
    @raise Invalid_argument past the end of the pool. *)

val get : t -> float
(** Read at the cursor and advance.
    @raise Invalid_argument past the end of the pool. *)

val put_array : t -> float array -> unit
(** Overwrite [Array.length a] entries at the cursor in one blit and
    advance.  @raise Invalid_argument past the end of the pool. *)

val get_into : t -> float array -> unit
(** Read [Array.length dst] entries at the cursor into [dst] in one blit
    and advance.  @raise Invalid_argument past the end of the pool. *)

val copy : t -> t
(** The pool only, at its exact size. *)

val contents : t -> float array
