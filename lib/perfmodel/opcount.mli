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
      (** ignored: the B-spline table is one array.  A shim kept only
          because [perfbench/src/driver.ml] builds this record with
          [tile = 0]; delete it with the next change to that driver. *)
}

val default_acceptance : float
val dist_flops : float

val step_costs : params -> kernel_cost list
(** One entry per kernel of the paper's profiles. *)

val arithmetic_intensity : kernel_cost -> float
val total_flops : kernel_cost list -> float
val total_bytes : kernel_cost list -> float

val nlpp_evals_estimate : n:int -> has_pp:bool -> float
(** Value-only SPO evaluations per sweep from the pseudopotential
    quadrature. *)
