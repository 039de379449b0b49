open Oqmc_containers

(** ParticleSet — the central physics abstraction.  Positions are held in
    both layouts: the AoS container used by the high-level physics and Ref
    kernels, and its SoA companion used by the optimized kernels.  The
    particle-by-particle move protocol is {!Make.propose} /
    {!Make.accept} / {!Make.reject}. *)

type species = { name : string; charge : float; count : int }

module Make (R : Precision.REAL) : sig
  module Aos : module type of Pos_aos.Make (R)
  module Vs : module type of Vsc.Make (R)

  type t

  val create : lattice:Lattice.t -> species list -> t
  (** Particles grouped by species, in declaration order.
      @raise Invalid_argument if empty or a count is negative. *)

  val n : t -> int
  val lattice : t -> Lattice.t
  val species : t -> species array
  val n_species : t -> int
  val species_index : t -> int -> int
  val species_of : t -> int -> species
  val charge : t -> int -> float
  val first_of_species : t -> int -> int option

  val aos : t -> Aos.t
  (** The AoS position container [R] (shared storage). *)

  val soa : t -> Vs.t
  (** The SoA companion [Rsoa] (shared storage). *)

  val get : t -> int -> Vec3.t

  val set : t -> int -> Vec3.t -> unit
  (** Write-through to both containers. *)

  val set_all : t -> Vec3.t array -> unit

  val randomize : ?spread:float -> t -> (unit -> float) -> unit
  (** Uniform positions in the cell from a [0,1) uniform supplier. *)

  val load_walker : t -> Walker.t -> unit
  (** [loadWalker]: AoS copy plus the AoS-to-SoA assignment. *)

  val store_walker : t -> Walker.t -> unit

  val propose : t -> int -> Vec3.t -> unit
  (** Stage a single-particle move; containers are untouched.  The staged
      position is rounded to [R] (a no-op at f64), the value an accepted
      move stores: read it back with {!active_pos}. *)

  val active : t -> int
  (** Index of the staged move, or [-1]. *)

  val active_pos : t -> Vec3.t
  (** The staged position, rounded to [R]. *)

  val accept : t -> unit
  (** Commit the staged move (6 scalar writes across R and Rsoa).
      @raise Invalid_argument without a staged move. *)

  val reject : t -> unit

  val bytes : t -> int
end
