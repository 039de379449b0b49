open Oqmc_containers
open Oqmc_particle
open Oqmc_wavefunction
open Oqmc_rng
open Oqmc_core
open Oqmc_perfmodel

(* Roofline-driven knob selection.

   Given a system and a machine descriptor (published SKU or on-node
   calibration), pick the three throughput knobs of the optimized
   pipeline — crowd size, delayed-update rank and scheduler grain — by
   minimizing a modeled one-walker step time, optionally refined for the
   delay rank by short measured sweeps on the node itself.

   The model starts from the repo's analytic per-kernel op/byte counts
   ({!Opcount.step_costs}) projected through the cache-aware roofline
   ({!Roofline.project}), then adjusts the two knob-sensitive parts:

   - crowd batching amortizes per-call overhead and table traversal
     across [c] lockstep walkers.  Each kernel class approaches a
     saturating speedup [s] (calibrated against BENCH_crowd on this
     code: distance tables ≈ 4×, Jastrows ≈ 3×, spline/SPO ≈ 2×):
     t(c) = t(1) · (1/s + (1 − 1/s)/c).  A crowd whose combined walker
     state falls out of the first memory level pays a spill penalty.

   - the delayed determinant update trades the per-accept O(N²)
     Sherman–Morrison stream for O(kN) ratio corrections plus a blocked
     O(kN²) flush every k accepts.  In the flush kernels one inverse
     element load/store serves up to 4 rank corrections (the 4-way rank
     unroll in {!Oqmc_linalg.Blas.rank_update}), so the effective
     compute rate rises with k while the per-accept memory traffic falls
     as 1/k; the ratio corrections grow linearly with k and eventually
     win.  k = 2 is never chosen: it pays the correction tax with no
     register reuse.  When the two spin inverses fit in cache the
     traffic term is already cheap and k = 1 wins — matching the
     measured crossover (k1 fastest at N = 32, k8 ≈ 1.6× faster at
     N = 192). *)

module Ps64 = Particle_set.Make (Precision.F64)
module Det64 = Slater_det.Make (Precision.F64) (Precision.F64)
module W64 = Wfc.Make (Precision.F64)

type knobs = { crowd : int; delay : int; grain : int }

type candidate = {
  cand : knobs;
  model_step_s : float;
  measured_det_ns : float option;
}

type choice = {
  knobs : knobs;
  machine : Machine.t;
  calibrated : bool;
  refined : bool;
  baseline_step_s : float;
  tuned_step_s : float;
  predicted_speedup : float;
  candidates : candidate list;
}

let crowd_candidates = [ 1; 2; 4; 8; 16; 32 ]
let delay_candidates = [ 1; 4; 8; 16 ]

(* Saturating crowd-batching speedup per kernel class. *)
let batch_saturation = function
  | "DistTable" -> 4.0
  | "J2" | "J1" -> 3.0
  | "Bspline-v" | "Bspline-vgh" | "SPO-vgl" -> 2.0
  | _ -> 1.0

(* Rank-direction register reuse of the blocked flush kernels: one
   scratch load/store serves min(k,4) corrections; sustained gain
   saturates near 2 (loads of T rows and the fused-chain latency cap
   it below the 4× naive bound). *)
let rank_reuse k = if k >= 8 then 2.0 else if k >= 4 then 1.7 else 1.0

(* First memory level whose capacity holds [bytes]. *)
let level_for (m : Machine.t) bytes =
  let n_levels = List.length m.Machine.levels in
  let rec go i = function
    | [] -> n_levels - 1
    | l :: rest ->
        if bytes <= l.Machine.capacity_gb *. 1e9 then i else go (i + 1) rest
  in
  go 0 m.Machine.levels

(* Modeled determinant-update time for one walker step (n one-particle
   moves against two per-spin inverses of order [m]) at delay rank k.
   eff/stream constants are inherited from the DetUpdate entry of
   {!Opcount.step_costs} so the k = 1 point stays anchored to the
   repo's calibrated roofline. *)
let det_time (mach : Machine.t) (det_cost : Opcount.kernel_cost) ~m ~n
    ~elt_bytes ~acceptance k =
  let fm = float_of_int m in
  let moves = float_of_int n in
  let accepts = acceptance *. moves in
  let flush_flops = 4. *. fm *. fm *. accepts in
  (* Every move's ratio carries O(k·m) queue corrections (average queue
     depth k/2) plus the O(k²) Schur solve. *)
  let ratio_flops =
    moves *. ((2. *. float_of_int (k - 1) *. fm) +. float_of_int (k * k))
  in
  let rate = Roofline.compute_rate mach det_cost *. 1e9 in
  let t_compute =
    (flush_flops /. (rate *. rank_reuse k)) +. (ratio_flops /. rate)
  in
  let elt = float_of_int elt_bytes in
  (* Flush streams the inverse 3× (read for the panel, read+write for
     the rank update) once per k accepts; staging moves O(k·m) rows. *)
  let bytes =
    accepts
    *. ((3. *. fm *. fm *. elt /. float_of_int k)
       +. (32. *. float_of_int k *. fm))
  in
  let ws = 2. *. fm *. fm *. elt in
  let lvl = level_for mach ws in
  let bw =
    Machine.bandwidth ~level:lvl mach *. mach.Machine.stream_factor
    *. det_cost.Opcount.stream *. 1e9
  in
  Float.max t_compute (bytes /. bw)

(* Modeled one-walker step time at the given knobs. *)
let model_step_time (mach : Machine.t) ~costs ~points ~m ~n ~elt_bytes
    ~acceptance ~walker_bytes { crowd = c; delay = k; grain = _ } =
  let det_cost =
    List.find (fun q -> q.Opcount.kernel = "DetUpdate") costs
  in
  let spill =
    let ws = float_of_int (c * walker_bytes) in
    if level_for mach ws > 0 then 1.25 else 1.0
  in
  List.fold_left2
    (fun acc (q : Opcount.kernel_cost) (p : Roofline.point) ->
      if q.Opcount.kernel = "DetUpdate" then
        acc +. det_time mach det_cost ~m ~n ~elt_bytes ~acceptance k
      else begin
        let s = batch_saturation q.Opcount.kernel in
        let fc = float_of_int c in
        acc +. (p.Roofline.time_s *. ((1. /. s) +. ((1. -. (1. /. s)) /. fc)) *. spill)
      end)
    0. costs points

(* Measured delay refinement: ns/move of the real determinant component
   (plane-wave orbitals, per-spin order [m]) at rank [kd] — the same
   micro-workload as the BENCH_crowd delay sweep, at a fraction of the
   reps.  Best-of-2 against scheduler noise. *)
let measure_det_ns ~m ~sweeps kd =
  let once () =
    let lattice = Lattice.cubic 8. in
    let ps =
      Ps64.create ~lattice
        [ { Particle_set.name = "e"; charge = -1.; count = m } ]
    in
    let r = Xoshiro.create 23 in
    Ps64.randomize ps (fun () -> Xoshiro.uniform r);
    let spo = Spo_analytic.plane_waves ~lattice ~n_orb:m in
    let scheme =
      if kd = 1 then Det64.Sherman_morrison else Det64.Delayed kd
    in
    let d = Det64.create ~scheme ~spo ~first:0 ~count:m ps in
    ignore (d.W64.evaluate_log ps);
    let rng = Xoshiro.create 29 in
    let t0 = Timers.now () in
    for _ = 1 to sweeps do
      for k = 0 to m - 1 do
        let np =
          Vec3.add (Ps64.get ps k)
            (Vec3.make
               (Xoshiro.gaussian rng *. 0.05)
               (Xoshiro.gaussian rng *. 0.05)
               (Xoshiro.gaussian rng *. 0.05))
        in
        Ps64.propose ps k np;
        ignore (d.W64.ratio ps k);
        d.W64.accept ps k;
        Ps64.accept ps
      done
    done;
    (Timers.now () -. t0) *. 1e9 /. float_of_int (sweeps * m)
  in
  Float.min (once ()) (once ())

let choose ?machine ?(refine = false) ?(walkers = 8) ?(domains = 1)
    ~variant ~precision ~(sys : System.t) () =
  let calibrated = machine = None in
  let mach =
    match machine with Some m -> m | None -> Calibrate.machine ()
  in
  let n = System.n_electrons sys in
  let n_ion = System.n_ions sys in
  let n_spo = sys.System.spo.Spo.n_orb in
  let m = max 1 (max sys.System.n_up sys.System.n_down) in
  let elt_bytes = match precision with `F32 -> 4 | `F64 -> 8 in
  let layout =
    match Variant.layout variant with
    | Variant.Store -> `Store
    | Variant.Otf -> `Otf
  in
  let has_pp = sys.System.ham.System.nlpp <> None in
  let acceptance = Opcount.default_acceptance in
  let costs =
    Opcount.step_costs
      {
        Opcount.n;
        n_ion;
        n_spo;
        elt_bytes;
        layout;
        acceptance;
        nlpp_evals = Opcount.nlpp_evals_estimate ~n ~has_pp;
        tile = 0;
      }
  in
  let points = Roofline.project_all mach costs in
  let kind =
    match variant with
    | Variant.Ref -> `Ref
    | Variant.Ref_mp -> `Ref_mp
    | Variant.Current | Variant.Current_f64 -> `Current
  in
  let walker_bytes = Memory_model.walker_bytes kind ~n ~n_ion ~n_spo in
  (* Store engines (Ref / Ref+MP) sweep one walker at a time: crowd 1
     is their only candidate. *)
  let max_crowd = Runner.max_crowd ~variant ~walkers:(walkers / domains) in
  let grain_of c =
    max (Runner.grain_for ~n:walkers ~n_domains:domains) c
  in
  let time_of knobs =
    model_step_time mach ~costs ~points ~m ~n ~elt_bytes ~acceptance
      ~walker_bytes knobs
  in
  let baseline_step_s = time_of { crowd = 1; delay = 1; grain = 1 } in
  (* Measured refinement replaces the modeled delay ranking with real
     measurements — ns/move of the determinant component at this
     system's per-spin order — the knob whose crossover is too close to
     call from counts alone. *)
  let measured_det =
    if not refine then fun _ -> None
    else begin
      let mm = max 8 (min m 128) in
      let sweeps = max 2 (min 20 (2_000_000 / (mm * mm))) in
      let tbl =
        List.map (fun k -> (k, measure_det_ns ~m:mm ~sweeps k)) delay_candidates
      in
      fun k -> List.assoc_opt k tbl
    end
  in
  let candidates =
    List.concat_map
      (fun c ->
        if c > max_crowd then []
        else
          List.map
            (fun k ->
              let cand = { crowd = c; delay = k; grain = grain_of c } in
              {
                cand;
                model_step_s = time_of cand;
                measured_det_ns = measured_det k;
              })
            delay_candidates)
      crowd_candidates
  in
  (* Rank by model time; under refinement the delay dimension is ranked
     by its measured component instead, scaled into the model's share
     and anchored at the delay = 1 point (so a candidate's score stays
     the plain model time when no measurement covers it). *)
  let det_cost = List.find (fun q -> q.Opcount.kernel = "DetUpdate") costs in
  let det1 = det_time mach det_cost ~m ~n ~elt_bytes ~acceptance 1 in
  let score cd =
    let det_term =
      match (cd.measured_det_ns, measured_det 1) with
      | Some ns, Some ns1 when ns1 > 0. -> det1 *. ns /. ns1
      | _ -> det_time mach det_cost ~m ~n ~elt_bytes ~acceptance cd.cand.delay
    in
    let base = time_of { cd.cand with delay = 1 } in
    base -. det1 +. det_term
  in
  let best =
    List.fold_left
      (fun acc cd ->
        match acc with
        | None -> Some cd
        | Some b -> if score cd < score b then Some cd else Some b)
      None candidates
  in
  let best =
    match best with
    | Some b -> b
    | None -> { cand = { crowd = 1; delay = 1; grain = 1 };
                model_step_s = baseline_step_s; measured_det_ns = None }
  in
  {
    knobs = best.cand;
    machine = mach;
    calibrated;
    refined = refine;
    baseline_step_s;
    tuned_step_s = best.model_step_s;
    predicted_speedup =
      (if best.model_step_s > 0. then baseline_step_s /. best.model_step_s
       else 1.);
    candidates;
  }

let publish (c : choice) =
  let module Mx = Oqmc_obs.Metrics in
  Mx.set (Mx.gauge "autotune.crowd") (float_of_int c.knobs.crowd);
  Mx.set (Mx.gauge "autotune.delay") (float_of_int c.knobs.delay);
  Mx.set (Mx.gauge "autotune.grain") (float_of_int c.knobs.grain);
  Mx.set (Mx.gauge "autotune.predicted_speedup") c.predicted_speedup;
  Mx.set
    (Mx.gauge "autotune.machine_gflops")
    (Machine.peak_gflops c.machine ~single:false);
  Mx.set
    (Mx.gauge "autotune.machine_bw_gbs")
    (Machine.bandwidth c.machine)

let knobs_json (k : knobs) =
  let module J = Oqmc_obs.Jsonx in
  J.Obj
    [
      ("crowd", J.Num (float_of_int k.crowd));
      ("delay", J.Num (float_of_int k.delay));
      ("grain", J.Num (float_of_int k.grain));
    ]

let choice_json (c : choice) =
  let module J = Oqmc_obs.Jsonx in
  J.Obj
    [
      ("knobs", knobs_json c.knobs);
      ( "machine",
        J.Obj
          [
            ("name", J.Str c.machine.Machine.mname);
            ("calibrated", J.Bool c.calibrated);
            ( "gflops",
              J.Num (Machine.peak_gflops c.machine ~single:false) );
            ("bandwidth_gbs", J.Num (Machine.bandwidth c.machine));
          ] );
      ("refined", J.Bool c.refined);
      ("baseline_us_per_step", J.Num (c.baseline_step_s *. 1e6));
      ("tuned_us_per_step", J.Num (c.tuned_step_s *. 1e6));
      ("predicted_speedup", J.Num c.predicted_speedup);
      ( "candidates",
        J.Arr
          (List.map
             (fun cd ->
               J.Obj
                 (("knobs", knobs_json cd.cand)
                 :: ("model_us_per_step", J.Num (cd.model_step_s *. 1e6))
                 ::
                 (match cd.measured_det_ns with
                 | None -> []
                 | Some ns -> [ ("measured_det_ns", J.Num ns) ])))
             c.candidates) );
    ]

let describe (c : choice) =
  Printf.sprintf
    "autotune[%s%s]: crowd=%d delay=%d grain=%d  (model %.1f -> %.1f \
     us/step/walker, x%.2f)"
    c.machine.Machine.mname
    (if c.refined then ", refined" else "")
    c.knobs.crowd c.knobs.delay c.knobs.grain
    (c.baseline_step_s *. 1e6)
    (c.tuned_step_s *. 1e6) c.predicted_speedup
