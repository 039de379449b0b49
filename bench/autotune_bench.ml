open Oqmc_containers
open Oqmc_rng
open Oqmc_core
module J = Oqmc_obs.Jsonx

(* BENCH_autotune: the two acceptance measurements of the
   mixed-precision + blocked-delayed-update work, recorded as one JSON
   document:

   1. delayed updates at NiO-32's real determinant order (192 per spin):
      the blocked flush must make the best rank *faster* than rank-1
      Sherman-Morrison — asserted, not just reported;
   2. mixed precision: f32 B-spline coefficient storage vs f64 on the
      same synthetic NiO-32 table, SPO-vgl ns/eval, plus a short f32 DMC
      under the integrity watchdog whose sampled full-recompute drift
      audit must pass — asserted.

   The header's [delay] is the measured best rank of (1). *)

(* ---- 1. delayed updates at NiO-32 determinant order ---- *)

let bench_delay_nio () =
  let pts =
    Crowd_bench.bench_delay ~n:192 ~sweeps:6 ~delays:[ 1; 4; 8; 16 ] ()
  in
  let t1 =
    List.find (fun p -> p.Crowd_bench.delay = 1) pts
    |> fun p -> p.Crowd_bench.det_ns_per_move
  in
  let bk, bt =
    List.fold_left
      (fun (bk, bt) p ->
        if p.Crowd_bench.det_ns_per_move < bt then
          (p.Crowd_bench.delay, p.Crowd_bench.det_ns_per_move)
        else (bk, bt))
      (1, infinity) pts
  in
  Printf.printf "  NiO-32 det order 192:\n";
  List.iter
    (fun p ->
      Printf.printf "    delay %2d: %.1f ns/move\n" p.Crowd_bench.delay
        p.Crowd_bench.det_ns_per_move)
    pts;
  Printf.printf "    best delay %d  (%.2fx vs rank-1)\n" bk (t1 /. bt);
  if bk = 1 || bt >= t1 then
    failwith
      "autotune_bench: blocked delayed updates no faster than rank-1 at \
       NiO-32 order";
  (pts, bk, t1 /. bt)

(* ---- 2. mixed precision: spline kernel + drift audit ---- *)

(* Spline kernel timing with a long non-repeating position stream, so
   the stencil gathers stream from the table instead of replaying a
   cache-resident handful of neighborhoods — the regime where f32
   coefficient storage halves the bytes per eval. *)
let n_pos = 4096

let spo_positions () =
  let rng = Xoshiro.create 41 in
  Array.init n_pos (fun _ ->
      Vec3.make
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 7.))

(* Value-only evaluation as the NLPP quadrature runs it (one position
   per call) and the crowd-batched vgl evaluation (the pipeline's hot
   path): the f32 table moves half the bytes of the f64 one per eval,
   and neither entry point allocates, so the ratio isolates storage
   width. *)
let spo_ns ~kernel (sys : System.t) ~reps =
  let spo = sys.System.spo in
  let pos = spo_positions () in
  let mask = n_pos - 1 in
  let crowd = 16 in
  let window = Array.make crowd pos.(0) in
  let fill i =
    let base = i * crowd in
    for s = 0 to crowd - 1 do
      window.(s) <- pos.((base + s) land mask)
    done
  in
  let run =
    match kernel with
    | `V ->
        let row = Array.make spo.Oqmc_wavefunction.Spo.n_orb 0. in
        fun i ->
          fill i;
          for s = 0 to crowd - 1 do
            spo.Oqmc_wavefunction.Spo.eval_v window.(s) row
          done
    | `Vgl ->
        let b = spo.Oqmc_wavefunction.Spo.make_vgl_batch crowd in
        fun i ->
          fill i;
          b.Oqmc_wavefunction.Spo.run window crowd
  in
  let calls = max 1 (reps / crowd) in
  for i = 0 to (calls / 4) - 1 do
    run i
  done;
  (* warmup *)
  let t0 = Timers.now () in
  for i = 0 to calls - 1 do
    run i
  done;
  (Timers.now () -. t0) *. 1e9 /. float_of_int (calls * crowd)

type mp_result = {
  v64 : float;
  v32 : float;
  n64 : float;
  n32 : float;
  it : Integrity.stats;
}

let bench_mixed_precision () =
  let mk precision =
    Oqmc_workloads.Builder.make ~reduction:4 ~with_nlpp:false ~precision
      Oqmc_workloads.Spec.nio32
  in
  let sys32 = mk `F32 and sys64 = mk `F64 in
  let reps = 20_000 in
  let v64 = spo_ns ~kernel:`V sys64 ~reps
  and v32 = spo_ns ~kernel:`V sys32 ~reps in
  let n64 = spo_ns ~kernel:`Vgl sys64 ~reps:(reps / 4)
  and n32 = spo_ns ~kernel:`Vgl sys32 ~reps:(reps / 4) in
  Printf.printf
    "  Bspline-v NiO-32/r4: f64 %.1f ns/eval, f32 %.1f ns/eval  \
     (%.2fx)\n"
    v64 v32 (v64 /. v32);
  (* Drift audit: short f32 DMC with the watchdog's sampled
     full-recompute audit on every 5th generation. *)
  let factory = Build.factory ~variant:Variant.Current ~seed:3 sys32 in
  let res =
    Dmc.run
      ~watchdog:{ Integrity.default_config with Integrity.check_every = 5 }
      ~crowd:4 ~factory
      {
        Dmc.target_walkers = 8;
        warmup = 4;
        generations = 20;
        tau = 0.02;
        seed = 11;
        n_domains = 1;
        ranks = 1;
      }
  in
  let it = res.Dmc.integrity in
  let drift_ok =
    it.Integrity.audits > 0 && it.Integrity.quarantined = 0
  in
  Printf.printf
    "  SPO-vgl batched NiO-32/r4: f64 %.1f ns/eval, f32 %.1f ns/eval  \
     (%.2fx)\n"
    n64 n32 (n64 /. n32);
  Printf.printf
    "  f32 drift audit: %d audits, %d quarantined, drift_max %.3g  (%s)\n"
    it.Integrity.audits it.Integrity.quarantined it.Integrity.drift_max
    (if drift_ok then "pass" else "FAIL");
  if not drift_ok then
    failwith "autotune_bench: f32 drift audit failed";
  let best = Float.max (v64 /. v32) (n64 /. n32) in
  if best <= 1. then
    Printf.printf
      "  WARNING: no f32 speedup on this run (noise or cache-resident \
       table)\n";
  { v64; v32; n64; n32; it }

(* ---- reporting ---- *)

let json_of ~delays ~best_k ~speedup_k ~mp =
  let { v64; v32; n64; n32; it } = mp in
  J.Obj
    [
      ( "header",
        J.Obj
          [
            ("schema", J.Num 1.);
            ("precision", J.Str "f32");
            ("delay", J.Num (float_of_int best_k));
          ] );
      ( "delayed_nio32",
        J.Obj
          [
            ("n", J.Num 192.);
            ( "points",
              J.Arr
                (List.map
                   (fun p ->
                     J.Obj
                       [
                         ( "delay",
                           J.Num (float_of_int p.Crowd_bench.delay) );
                         ( "det_ns_per_move",
                           J.Num p.Crowd_bench.det_ns_per_move );
                       ])
                   delays) );
            ("best_delay", J.Num (float_of_int best_k));
            ("speedup_vs_rank1", J.Num speedup_k);
          ] );
      ( "mixed_precision",
        J.Obj
          [
            ( "kernels",
              J.Arr
                [
                  J.Obj
                    [
                      ("kernel", J.Str "Bspline-v");
                      ("f64_ns_per_eval", J.Num v64);
                      ("f32_ns_per_eval", J.Num v32);
                      ("speedup", J.Num (v64 /. v32));
                    ];
                  J.Obj
                    [
                      ("kernel", J.Str "SPO-vgl-batch");
                      ("f64_ns_per_eval", J.Num n64);
                      ("f32_ns_per_eval", J.Num n32);
                      ("speedup", J.Num (n64 /. n32));
                    ];
                ] );
            ("speedup", J.Num (Float.max (v64 /. v32) (n64 /. n32)));
            ("drift_audits", J.Num (float_of_int it.Integrity.audits));
            ( "drift_quarantined",
              J.Num (float_of_int it.Integrity.quarantined) );
            ("drift_max", J.Num it.Integrity.drift_max);
            ( "drift_ok",
              J.Bool
                (it.Integrity.audits > 0 && it.Integrity.quarantined = 0) );
          ] );
    ]

let run ?json () =
  Printf.printf "== delayed determinant updates at NiO-32 order ==\n%!";
  let delays, best_k, speedup_k = bench_delay_nio () in
  Printf.printf "== mixed precision: f32 vs f64 spline storage ==\n%!";
  let mp = bench_mixed_precision () in
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string (json_of ~delays ~best_k ~speedup_k ~mp));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" path
