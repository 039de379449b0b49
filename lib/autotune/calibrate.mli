open Oqmc_perfmodel

(** On-node calibration microbenchmarks: measure the sustained scalar
    flop rate and the streaming bandwidth at a cache-resident and a
    DRAM-sized footprint, packaged as a single-core {!Machine.t} whose
    roofline reproduces the measured rates.  {!Audit.create} projects a
    run shape on it. *)

val measure_gflops : reps:int -> float
(** Sustained scalar multiply–add rate (GFLOP/s), 4 independent
    accumulator chains over an L1-resident array. *)

val measure_triad : n:int -> reps:int -> float
(** STREAM-triad bandwidth (GB/s) over [n]-element arrays. *)

val machine : ?quick:bool -> unit -> Machine.t
(** Calibrate this node.  [quick] (default [true]) keeps the whole run
    in the low tens of milliseconds; [quick:false] runs 8× longer for
    steadier numbers. *)
