open Oqmc_core
open Oqmc_perfmodel

(** Roofline-driven selection of the optimized pipeline's throughput
    knobs — crowd size, delayed-update rank and scheduler grain — from
    the analytic op/byte counts projected on a machine descriptor
    (published SKU or {!Calibrate} microbench), optionally refined by
    short measured sweeps of the delay rank on the node itself. *)

type knobs = { crowd : int; delay : int; grain : int }

type candidate = {
  cand : knobs;
  model_step_s : float;  (** modeled one-walker step time *)
  measured_det_ns : float option;
      (** measured det-component ns/move under [~refine:true] *)
}

type choice = {
  knobs : knobs;  (** the winner *)
  machine : Machine.t;
  calibrated : bool;  (** machine came from on-node calibration *)
  refined : bool;
  baseline_step_s : float;  (** modeled step time at crowd=1, delay=1 *)
  tuned_step_s : float;
  predicted_speedup : float;
  candidates : candidate list;  (** the full scored grid *)
}

val choose :
  ?machine:Machine.t ->
  ?refine:bool ->
  ?walkers:int ->
  ?domains:int ->
  variant:Variant.t ->
  precision:[ `F32 | `F64 ] ->
  sys:System.t ->
  unit ->
  choice
(** Pick knobs for running [sys] with [walkers] walkers over [domains]
    domains.  Without [?machine] the node is calibrated first
    ({!Calibrate.machine}, tens of milliseconds).  [refine] (default
    [false]) additionally measures the determinant component at each
    delay rank and ranks that knob by measurement instead of the
    model. *)

val choice_json : choice -> Oqmc_obs.Jsonx.t
(** The choice, machine projection and scored candidate grid as a JSON
    object — the ["autotune"] section of [BENCH_autotune.json]. *)

val publish : choice -> unit
(** Record the chosen knobs and model projections as [autotune.*] gauges
    in the {!Oqmc_obs.Metrics} registry. *)

val describe : choice -> string
(** One-line human summary for run logs. *)
