(** Analytic per-kernel operation/byte counts for one DMC step of one
    walker, derived from the kernels in [lib/particle] and
    [lib/wavefunction].  Flops and bytes are machine-independent
    properties of the algorithms; [eff]/[stream]/[vectorized]/[level] are
    the model's calibration constants (see the implementation header). *)

type level_hint = Cache | Dram

type kernel_cost = {
  kernel : string;
  flops : float;
  bytes : float;
  eff : float;
  stream : float;
  vectorized : bool;
  single : bool;
  level : level_hint;
}

type params = {
  n : int;
  n_ion : int;
  n_spo : int;
  elt_bytes : int;  (** 4 (mixed precision) or 8 *)
  layout : [ `Store | `Otf ];
  acceptance : float;
  nlpp_evals : float;
  tile : int;
      (** orbitals per block of the B-spline table; 0 = one block *)
}

val default_acceptance : float
val dist_flops : float

val tile_stream_boost : int -> float
(** Effective-bandwidth factor of a tiled orbital table relative to one
    tile, applied to the B-spline kernels' [stream] constant; 1.0 at
    tile = 0 (one tile), peaking near tile = 32..64. *)

val step_costs : params -> kernel_cost list
(** One entry per kernel of the paper's profiles. *)

val arithmetic_intensity : kernel_cost -> float
val total_flops : kernel_cost list -> float
val total_bytes : kernel_cost list -> float

val nlpp_evals_estimate : n:int -> has_pp:bool -> float
(** Value-only SPO evaluations per sweep from the pseudopotential
    quadrature. *)
