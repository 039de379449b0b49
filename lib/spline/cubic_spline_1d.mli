(** One-dimensional cubic B-spline on a uniform grid over [\[0, cutoff\]] —
    the radial engine of the Jastrow functors.  Evaluations return 0 at and
    beyond the cutoff (the finite-range branch whose cost the paper notes in
    the Jastrow vectorization efficiency). *)

type t

val of_coefficients : cutoff:float -> float array -> t
(** Spline from [n + 3] control points over [n] intervals.
    @raise Invalid_argument for fewer than 4 coefficients or a
    non-positive cutoff. *)

val fit :
  f:(float -> float) ->
  ?deriv0:float option ->
  ?deriv_cut:float option ->
  cutoff:float ->
  intervals:int ->
  unit ->
  t
(** Interpolating spline through [f] at the grid points.  [deriv0] /
    [deriv_cut] prescribe end derivatives (e.g. the electron-electron cusp
    at 0); [None] selects a natural (zero-curvature) end.  Defaults:
    natural at 0, zero slope at the cutoff. *)

val narrow : t -> t
(** Round every control point through f32 storage (the
    [precision_jastrow] knob): evaluations run the same double-precision
    basis arithmetic over the narrowed coefficients.  Idempotent. *)

val is_narrowed : t -> bool

val cutoff : t -> float
val coefficients : t -> float array
val n_intervals : t -> int

val evaluate : t -> float -> float
(** u(r); 0 outside [\[0, cutoff)]. *)

val evaluate_vgl : t -> float -> float * float * float
(** (u, du/dr, d²u/dr²); zeros outside [\[0, cutoff)]. *)

val bytes : t -> int
