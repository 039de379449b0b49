open Oqmc_containers
open Oqmc_particle

(** B-spline-backed SPO engine: maps Cartesian positions to fractional
    coordinates and pushes the table's fractional derivatives through the
    cell metric, so the determinant sees Cartesian gradients and
    laplacians.  The table is read-only and shared by every walker and
    thread. *)

module Make (R : Precision.REAL) : sig
  module B3 : module type of Oqmc_spline.Bspline3d.Make (R)

  val create : table:B3.t -> lattice:Lattice.t -> Spo.t
end
