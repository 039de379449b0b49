open Oqmc_containers
open Oqmc_perfmodel

(* On-node machine calibration for the efficiency audit.

   The roofline/memory models normally run against published SKU
   constants ({!Machine.knl} etc.) — hardware this repository cannot run
   on.  When projecting a run on the node we are actually executing on,
   those constants are wrong; this module measures the two numbers the
   models need (sustained scalar flop rate; streaming bandwidth at a
   cache-resident and a DRAM-sized footprint) with microbenchmarks built
   from the same monomorphic float-array loops the kernels use, and
   packages them as a single-core {!Machine.t}.

   The encoding: with [simd_bits = 64], [fma_units = 1] and [cores = 1],
   {!Machine.flops_per_cycle_dp} is exactly 2, so setting
   [freq_ghz = gflops / 2] makes {!Machine.peak_gflops} reproduce the
   measured rate at either precision ([sp_vector = false]: OCaml scalar
   code gains no width from f32 — f32 wins come from bandwidth, which the
   level table carries). *)

let kib = 1024

(* Sustained scalar FMA-shaped rate: 4 independent accumulator chains
   over an L1-resident array, 2 flops per element.  The sink defeats
   dead-code elimination. *)
let sink = ref 0.

let measure_gflops ~reps =
  let n = 4 * kib in
  let a = Array.init n (fun i -> 1. +. (float_of_int i *. 1e-9)) in
  let run () =
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
    let i = ref 0 in
    while !i + 3 < n do
      s0 := !s0 +. (Array.unsafe_get a !i *. 1.0000001);
      s1 := !s1 +. (Array.unsafe_get a (!i + 1) *. 0.9999999);
      s2 := !s2 +. (Array.unsafe_get a (!i + 2) *. 1.0000002);
      s3 := !s3 +. (Array.unsafe_get a (!i + 3) *. 0.9999998);
      i := !i + 4
    done;
    sink := !sink +. !s0 +. !s1 +. !s2 +. !s3
  in
  run ();
  (* warmup *)
  let t0 = Timers.now () in
  for _ = 1 to reps do
    run ()
  done;
  let dt = Timers.now () -. t0 in
  let flops = 2. *. float_of_int n *. float_of_int reps in
  if dt <= 0. then 1. else flops /. dt /. 1e9

(* STREAM-triad bandwidth over a given per-array element count:
   a(i) = b(i) + s·c(i) moves 24 bytes per element (one write allocate
   counted with the write). *)
let measure_triad ~n ~reps =
  let a = Array.make n 0. in
  let b = Array.init n (fun i -> float_of_int i) in
  let c = Array.init n (fun i -> float_of_int (n - i)) in
  let run () =
    for i = 0 to n - 1 do
      Array.unsafe_set a i
        (Array.unsafe_get b i +. (0.5 *. Array.unsafe_get c i))
    done
  in
  run ();
  let t0 = Timers.now () in
  for _ = 1 to reps do
    run ()
  done;
  let dt = Timers.now () -. t0 in
  sink := !sink +. a.(n / 2);
  let bytes = 24. *. float_of_int n *. float_of_int reps in
  if dt <= 0. then 1. else bytes /. dt /. 1e9

let machine ?(quick = true) () =
  let scale r = if quick then r else r * 8 in
  (* Best-of-3 defends against scheduler noise on a shared node. *)
  let best f = max (f ()) (max (f ()) (f ())) in
  let gflops = best (fun () -> measure_gflops ~reps:(scale 2_000)) in
  (* 48 KiB/array: L1/L2-resident.  16 MiB/array: past any private
     cache, so the triad streams from DRAM. *)
  let bw_cache =
    best (fun () -> measure_triad ~n:(6 * kib) ~reps:(scale 2_000))
  in
  let bw_dram =
    best (fun () -> measure_triad ~n:(2048 * kib) ~reps:(scale 2))
  in
  (* Caches never make streaming slower than DRAM; clamp the rare noisy
     inversion so the projection's level choice stays monotone. *)
  let bw_cache = Float.max bw_cache bw_dram in
  {
    Machine.mname = "calibrated";
    cores = 1;
    threads_per_core = 1;
    freq_ghz = gflops /. 2.;
    simd_bits = 64;
    fma_units = 1;
    levels =
      [
        { Machine.level = "CACHE"; bandwidth = bw_cache; capacity_gb = 0.002 };
        { Machine.level = "DRAM"; bandwidth = bw_dram; capacity_gb = 4. };
      ];
    package_watts = 65.;
    dram_watts = 5.;
    smt_uplift = 1.0;
    scalar_factor = 1.0;
    stream_factor = 1.0;
    sp_vector = false;
  }
