open Oqmc_containers
open Oqmc_hamiltonian
open Oqmc_core

(** Turn a Table 1 spec into a runnable {!System.t}.

    The paper's proprietary DFT orbital tables and pseudopotentials are
    substituted with synthetic equivalents of the right shape
    (deterministic smooth coefficients; Gaussian-shell PP channels) —
    kernel cost depends on dimensions, tiling and precision, not on
    coefficient values.  [reduction] scales the problem down uniformly so
    the full machinery runs at laptop scale. *)

type scaled = {
  spec : Spec.t;
  reduction : int;
  n_el : int;
  n_ion : int;
  n_spo : int;
  grid : int * int * int;
  box : float * float * float;
}

val scale : Spec.t -> reduction:int -> scaled
(** @raise Invalid_argument if [reduction < 1]. *)

val ion_positions : float * float * float -> int -> Vec3.t array
(** Near-cubic grid placement of [n] ions inside the box. *)

val nlpp_channels : Spec.species list -> Nlpp.ion_species array
(** Synthetic Gaussian-shell channels; empty for all-electron species. *)

val system :
  ?seed:int ->
  ?with_nlpp:bool ->
  ?with_jastrow:bool ->
  ?precision:[ `F32 | `F64 ] ->
  ?tile:int ->
  scaled ->
  System.t
(** [precision] (default [`F32]) selects the storage precision of the
    synthetic B-spline orbital table — coefficient {e values} are
    identical either way ([`F32] rounds them once at store time), so
    f32-vs-f64 comparisons isolate storage/bandwidth effects.

    [tile] (default 0 = one tile of every orbital) sets the orbitals per
    block of the table ({!Oqmc_spline.Bspline3d.Make.create}).  Every
    tile holds the same coefficients, so f64 evaluations are
    bit-identical across tiles. *)

val make :
  ?seed:int ->
  ?with_nlpp:bool ->
  ?with_jastrow:bool ->
  ?reduction:int ->
  ?precision:[ `F32 | `F64 ] ->
  ?layout:[ `Flat | `Tiled ] ->
  ?tile:int ->
  Spec.t ->
  System.t
(** [scale] + [system]; default reduction 8.  [layout] has no effect: the
    orbital table has one layout, and the argument is kept only for the
    benchmark driver's existing call ([perfbench/src/driver.ml]).  Delete
    it with the next change to that driver. *)
