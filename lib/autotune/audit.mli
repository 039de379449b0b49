open Oqmc_core
open Oqmc_perfmodel

(** Efficiency audit: measured run performance vs the calibrated
    roofline projection for the same system and run shape.

    The projection is the performance model's analytic pipeline
    ({!Opcount.step_costs} → {!Roofline.project_all}); the measurement
    reads the global {!Oqmc_obs.Metrics} registry (the supervisor's
    [sup.generation_s] histogram and the [timer_us.*] kernel counters
    both executors feed).  {!observe} publishes [audit.efficiency],
    [audit.projected_gen_s], [audit.measured_gen_s] and per-kernel
    [audit.frac.*] gauges back into the registry — the supervisor's
    status snapshot echoes them, so a live Status query carries the
    current ratio. *)

type t
(** Projection context for one run shape (system × machine × walkers ×
    ranks × domains). *)

val create :
  ?machine:Machine.t ->
  ?walkers:int ->
  ?domains:int ->
  ?ranks:int ->
  variant:Variant.t ->
  precision:[ `F32 | `F64 ] ->
  sys:System.t ->
  unit ->
  t
(** Build the projection.  [machine] defaults to on-node calibration
    ({!Calibrate.machine}, quick mode — tens of milliseconds);
    [walkers] (default 8) is the GLOBAL walker count, spread over
    [ranks] × [domains] ideal lanes (both default 1). *)

(** Measured-vs-projected share of one kernel. *)
type kernel_verdict = {
  kernel : string;
  measured_s : float;  (** total seconds in this kernel, all lanes *)
  measured_frac : float;  (** share of total measured kernel time *)
  projected_frac : float;  (** share the roofline model predicts *)
}

type report = {
  machine_name : string;
  calibrated : bool;  (** machine came from on-node calibration *)
  projected_gen_s : float;
  measured_gen_s : float;
  efficiency : float;  (** projected / measured; 1.0 = at the model *)
  gens : int;  (** generations behind the measured mean (0 = override) *)
  kernels : kernel_verdict list;
}

val observe :
  ?measured_gen_s:float ->
  ?kernel_seconds:(string * float) list ->
  t ->
  report option
(** Compare the registry's current totals against the projection and set
    the [audit.*] gauges.  [measured_gen_s] overrides the
    [sup.generation_s] mean (for drivers outside the supervisor);
    [kernel_seconds] overrides the [timer_us.*] counters.  [None] when
    no generation time is available from either source.  Cheap enough to
    call per ledger window ({!Oqmc_dist.Supervisor} [on_window]). *)

val table : report -> string
(** Human-readable verdict table (multi-line, trailing newline). *)

val json : report -> Oqmc_obs.Jsonx.t
