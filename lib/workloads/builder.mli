open Oqmc_containers
open Oqmc_hamiltonian
open Oqmc_core

(** Turn a Table 1 spec into a runnable {!System.t}.

    The paper's proprietary DFT orbital tables and pseudopotentials are
    substituted with synthetic equivalents of the right shape
    (deterministic smooth coefficients; Gaussian-shell PP channels) —
    kernel cost depends on dimensions and precision, not on
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
  scaled ->
  System.t
(** [precision] (default [`F32]) selects the storage precision of the
    synthetic B-spline orbital table — coefficient {e values} are
    identical either way ([`F32] rounds them once at store time), so
    f32-vs-f64 comparisons isolate storage/bandwidth effects. *)

val named :
  seed:int ->
  reduction:int ->
  with_nlpp:bool ->
  precision:[ `F32 | `F64 ] option ->
  string ->
  System.t
(** The system a deck's [workload] names: [harmonic], [hydrogen] and
    [heg] are the {!Validation} systems; anything else is a Table 1
    name ({!Spec.find}) built at [reduction], its orbital table stored
    at f64 only when the deck's [precision] override is [Some `F64].
    The production driver and the serve runner both build through this.
    @raise Invalid_argument for an unknown name. *)

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
(** [scale] + [system]; default reduction 8.  [layout] and [tile] have no
    effect: the orbital table is one coefficient array, and both arguments
    are shims kept only for the benchmark driver's existing call
    ([perfbench/src/driver.ml] passes [~tile:0]).  Delete them with the
    next change to that driver. *)
