(** Anonymous walker buffer — QMCPACK's [PooledData<T>].  A flat pool of
    scalars into which wavefunction components serialize the internal state
    needed to resume particle-by-particle updates on a stored walker.

    Two-phase protocol: a registration pass sizes the pool with {!add};
    later passes {!rewind} and then stream through it with {!get}/{!put} in
    the same component order. *)

type t

val create : ?capacity:int -> unit -> t
val size : t -> int
val cursor : t -> int

val bytes : t -> int
(** Pool footprint in bytes (doubles); the walker message size of the
    paper's load-balancing step. *)

val clear : t -> unit
val rewind : t -> unit

val add : t -> float -> unit
(** Append during the registration pass (grows the pool). *)

val put : t -> float -> unit
(** Overwrite at the cursor and advance.
    @raise Invalid_argument past the end of the pool. *)

val get : t -> float
(** Read at the cursor and advance.
    @raise Invalid_argument past the end of the pool. *)

val add_vec3 : t -> Vec3.t -> unit
val put_vec3 : t -> Vec3.t -> unit
val get_vec3 : t -> Vec3.t
val add_array : t -> float array -> unit
val put_array : t -> float array -> unit
(** Overwrite [Array.length a] entries at the cursor in one blit and
    advance.  @raise Invalid_argument past the end of the pool. *)

val get_into : t -> float array -> unit
(** Read [Array.length dst] entries at the cursor into [dst] in one blit
    and advance.  @raise Invalid_argument past the end of the pool. *)

val get_array : t -> int -> float array

val copy : t -> t
val contents : t -> float array
