open Oqmc_containers
open Oqmc_core
open Oqmc_rng
open Oqmc_particle
open Oqmc_wavefunction

(* Full-pipeline crowd-batching benchmark: the machine-readable perf
   trajectory for the batched distance-table / Jastrow / delayed-
   determinant work.

   Four measurements, printed as a table and optionally written as JSON
   (BENCH_crowd.json) so regressions are diffable across PRs:

   1. full PbP sweep: scalar [Engine_api.sweep]s vs. the fused
      pipeline at crowd 1 (one one-slot crowd per walker) and at crowd 8,
      over the same walkers and streams, with the bit-identity of all
      three asserted on each walker's local energy;
   2. per-kernel ns/move: scalar per-slot calls vs. the batched kernel,
      for the AA distance table and the J1/J2 Jastrow stages;
   3. allocation per move: the batched DistTable, Jastrow and B-spline
      kernels, the determinant's ratio-gradient + accept (which stores
      the proposal's orbital row) and the scalar DistTable calls must
      not allocate — asserted, not just reported; walker save/restore
      time and allocation on NiO-32 r8 Current and Ref, with no row
      rebuild after restoring a saved walker and no per-element
      allocation in either call asserted;
   4. delayed determinant updates: ns/move across the delay-rank sweep
      (1 = Sherman-Morrison). *)

module Ps64 = Particle_set.Make (Precision.F64)
module AA64 = Dt_aa_soa.Make (Precision.F64) (Precision.F64)
module AB64 = Dt_ab_soa.Make (Precision.F64) (Precision.F64)
module J2_64 = Jastrow_two.Make (Precision.F64) (Precision.F64)
module J1_64 = Jastrow_one.Make (Precision.F64) (Precision.F64)
module Det64 = Slater_det.Make (Precision.F64) (Precision.F64)
module W64 = Wfc.Make (Precision.F64)
module B3_32 = Oqmc_spline.Bspline3d.Make (Precision.F32)
module Ps32 = Particle_set.Make (Precision.F32)
module AA32 = Dt_aa_soa.Make (Precision.F32) (Precision.F32)
module AB32 = Dt_ab_soa.Make (Precision.F32) (Precision.F32)
module AAref64 = Dt_aa_ref.Make (Precision.F64)
module ABref64 = Dt_ab_ref.Make (Precision.F64)
module J2_32 = Jastrow_two.Make (Precision.F32) (Precision.F32)
module J1_32 = Jastrow_one.Make (Precision.F32) (Precision.F32)
module Det32 = Slater_det.Make (Precision.F32) (Precision.F32)
module W32 = Wfc.Make (Precision.F32)

let time_per ~reps f =
  let t0 = Timers.now () in
  for _ = 1 to reps do
    f ()
  done;
  (Timers.now () -. t0) /. float_of_int reps

let minor_words_per ~reps f =
  f ();
  (* warmup: first-touch, lazy init *)
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* ---- 1. full PbP sweep: scalar vs pipeline at crowd 1 and 8 ---- *)

type sweep_point = {
  system : string;
  crowd : int;
  moves_per_sweep : int;
  scalar_ns_per_move : float;
  crowd1_ns_per_move : float;
  pipeline_ns_per_move : float;
  speedup : float; (* scalar / pipeline at [crowd] *)
}

let bench_sweep ~name ~sys ~crowd ~sweeps =
  let factory = Build.factory ~variant:Variant.Current ~seed:5 sys in
  (* [crowd] walkers, each on its own engine; [sweep ()] advances all of
     them once.  Returns seconds per call and the final local energies. *)
  let time_walkers engines sweep =
    let rngs = Xoshiro.streams ~seed:7 crowd in
    Array.iteri (fun s e -> e.Engine_api.randomize rngs.(s)) engines;
    sweep ();
    (* warmup *)
    let t = time_per ~reps:sweeps sweep in
    (t, Array.map (fun e -> e.Engine_api.measure ()) engines)
  in
  let scalar =
    let engines = Array.init crowd factory in
    let srngs = Xoshiro.streams ~seed:11 crowd in
    time_walkers engines (fun () ->
        Array.iteri
          (fun s e -> ignore (e.Engine_api.sweep srngs.(s) ~tau:0.1))
          engines)
  in
  let crowds size =
    let crs =
      Array.init (crowd / size) (fun c ->
          Crowd.create ~factory ~base:(c * size) ~size ())
    in
    let srngs = Xoshiro.streams ~seed:11 crowd in
    time_walkers
      (Array.init crowd (fun s -> Crowd.engine crs.(s / size) (s mod size)))
      (fun () ->
        Array.iteri
          (fun c cr ->
            ignore
              (Crowd.sweep cr ~active:size
                 ~rng:(fun s -> srngs.((c * size) + s))
                 ~tau:0.1))
          crs)
  in
  let one = crowds 1 and full = crowds crowd in
  (* same seeds, same draw order: every path must agree bit-for-bit *)
  let ts, es = scalar in
  List.iter
    (fun (_, fs) ->
      Array.iteri
        (fun i a ->
          if not (Float.equal a fs.(i)) then
            failwith "crowd_bench: pipeline sweep deviates from scalar sweeps")
        es)
    [ one; full ];
  let e0 = Build.engine ~variant:Variant.Current ~seed:5 sys in
  let moves = crowd * e0.Engine_api.n_electrons in
  let per_move t = t *. 1e9 /. float_of_int moves in
  {
    system = name;
    crowd;
    moves_per_sweep = moves;
    scalar_ns_per_move = per_move ts;
    crowd1_ns_per_move = per_move (fst one);
    pipeline_ns_per_move = per_move (fst full);
    speedup = ts /. fst full;
  }

let bench_sweeps () =
  [
    bench_sweep ~name:"harmonic-6"
      ~sys:(Oqmc_workloads.Validation.harmonic ~n:6 ~omega:1.0)
      ~crowd:8 ~sweeps:400;
    bench_sweep ~name:"NiO-32/r16"
      ~sys:(Oqmc_workloads.Builder.make ~reduction:16 ~with_nlpp:false
              Oqmc_workloads.Spec.nio32)
      ~crowd:8 ~sweeps:40;
  ]

(* ---- 2./3. per-kernel scalar vs batched, with alloc assertions ---- *)

type kernel_point = {
  kernel : string;
  kcrowd : int;
  scalar_ns_per_move : float;
  batch_ns_per_move : float;
  kernel_speedup : float;
  batch_words_per_move : float;
}

(* A crowd-sized fixture of independent electron sets with AA/AB tables
   and J1/J2 state, each slot staged mid-move (temp rows filled) so the
   ratio/accept kernels can be re-run in place. *)
let kernel_fixture ~crowd ~n =
  let lattice = Lattice.cubic 6. in
  let ions =
    let io =
      Ps64.create ~lattice
        [ { Particle_set.name = "ion"; charge = 4.; count = 4 } ]
    in
    let r = Xoshiro.create 3 in
    Ps64.randomize io (fun () -> Xoshiro.uniform r);
    io
  in
  let functors2 = Oqmc_workloads.Jastrow_sets.ee_set ~cutoff:2.9 in
  let functors1 = [| Oqmc_workloads.Jastrow_sets.one_body ~depth:0.4 ~range:0.9 ~cutoff:2.9 () |] in
  let slots =
    Array.init crowd (fun s ->
        let ps =
          Ps64.create ~lattice
            [
              { Particle_set.name = "u"; charge = -1.; count = n / 2 };
              { Particle_set.name = "d"; charge = -1.; count = n - (n / 2) };
            ]
        in
        let r = Xoshiro.create (100 + s) in
        Ps64.randomize ps (fun () -> Xoshiro.uniform r);
        let aa = AA64.create ps in
        AA64.evaluate aa ps;
        let ab = AB64.create ~sources:ions ps in
        AB64.evaluate ab ps;
        let j2 = J2_64.make_opt ~table:aa ~functors:functors2 ps in
        let j1 = J1_64.make_opt ~table:ab ~functors:functors1 ~ions ps in
        ignore ((J2_64.opt_component j2).W64.evaluate_log ps);
        ignore ((J1_64.opt_component j1).W64.evaluate_log ps);
        (ps, aa, ab, j2, j1))
  in
  let aab = AA64.make_batch (Array.map (fun (ps, aa, _, _, _) -> (aa, ps)) slots) in
  let abb = AB64.make_batch (Array.map (fun (_, _, ab, _, _) -> ab) slots) in
  (slots, aab, abb)

let stage_move ~slots ~k ~px ~py ~pz =
  let rng = Xoshiro.create 17 in
  Array.iteri
    (fun s (ps, aa, ab, _, _) ->
      let np =
        Vec3.add (Ps64.get ps k)
          (Vec3.make
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3))
      in
      px.(s) <- np.Vec3.x;
      py.(s) <- np.Vec3.y;
      pz.(s) <- np.Vec3.z;
      AA64.prepare aa ps k;
      Ps64.propose ps k np;
      AA64.move aa ps k np;
      AB64.move ab np)
    slots

(* One kernel line: [scalar] and [batch] each run one move per crowd
   slot.  The batched side may not allocate: more than one minor word per
   move fails the run. *)
let kernel_point ~reps ~crowd ~kernel ~scalar ~batch =
  let st = time_per ~reps scalar in
  let bt = time_per ~reps batch in
  let bw = minor_words_per ~reps:2000 batch /. float_of_int crowd in
  (* the whole point of the batched path: zero allocation per move *)
  if bw > 1. then
    failwith
      (Printf.sprintf "crowd_bench: %s batch allocates %.1f words/move" kernel
         bw);
  {
    kernel;
    kcrowd = crowd;
    scalar_ns_per_move = st *. 1e9 /. float_of_int crowd;
    batch_ns_per_move = bt *. 1e9 /. float_of_int crowd;
    kernel_speedup = st /. bt;
    batch_words_per_move = bw;
  }

(* The move kernels at NiO-32 r8's shape, as nio32-current-dmc runs
   them: 48 electrons (24 + 24) and 8 ions, f32 positions, tables and
   inverse, crowd 8.  J2 and J1: one ratio-gradient and one accept per
   slot.  DetUpdate: the delayed update at delay 4 over a 24-electron
   determinant, one gradient, ratio-gradient and accept per slot, the
   moving electron cycling through four rows so each ratio sees 0, 1, 2
   then 3 pending rows (the fourth accept flushes).  Every proposal is
   the electron's current orbital row, so the ratio is 1 and the state
   stays put however many moves are timed. *)
let bench_r8_kernels ~reps () =
  let crowd = 8 and n = 48 and n_up = 24 in
  let lattice = Lattice.orthorhombic 7. 7.5 8. in
  let ions =
    let io =
      Ps32.create ~lattice
        [ { Particle_set.name = "ion"; charge = 2.; count = 8 } ]
    in
    let r = Xoshiro.create 41 in
    Ps32.randomize io (fun () -> Xoshiro.uniform r);
    io
  in
  let functors2 = Oqmc_workloads.Jastrow_sets.ee_set ~cutoff:3.4 in
  let functors1 =
    [| Oqmc_workloads.Jastrow_sets.one_body ~depth:0.4 ~range:0.9 ~cutoff:3.4 () |]
  in
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:n_up in
  let k = n_up / 2 in
  let slots =
    Array.init crowd (fun s ->
        let ps =
          Ps32.create ~lattice
            [
              { Particle_set.name = "u"; charge = -1.; count = n_up };
              { Particle_set.name = "d"; charge = -1.; count = n - n_up };
            ]
        in
        let r = Xoshiro.create (200 + s) in
        Ps32.randomize ps (fun () -> Xoshiro.uniform r);
        let aa = AA32.create ps and ab = AB32.create ~sources:ions ps in
        AA32.evaluate aa ps;
        AB32.evaluate ab ps;
        let j2 = J2_32.make_opt ~table:aa ~functors:functors2 ps in
        let j1 = J1_32.make_opt ~table:ab ~functors:functors1 ~ions ps in
        ignore ((J2_32.opt_component j2).W32.evaluate_log ps);
        ignore ((J1_32.opt_component j1).W32.evaluate_log ps);
        let np = Vec3.add (Ps32.get ps k) (Vec3.make 0.1 (-0.2) 0.15) in
        AA32.prepare aa ps k;
        Ps32.propose ps k np;
        AA32.move aa ps k (Ps32.active_pos ps);
        AB32.move ab (Ps32.active_pos ps);
        let det =
          Det32.make ~scheme:(Det32.Delayed 4) ~spo ~first:0 ~count:n_up ps
        in
        ignore ((Det32.component det).W32.evaluate_log ps);
        (* Electron r's current orbital row, for r < 4. *)
        let vgls =
          Array.init 4 (fun r ->
              let vgl = Spo.make_vgl n_up in
              spo.Spo.eval_vgl (Ps32.get ps r) vgl;
              vgl)
        in
        (ps, j2, j1, det, vgls))
  in
  let j2s = Array.map (fun (_, j2, _, _, _) -> j2) slots in
  let j1s = Array.map (fun (_, _, j1, _, _) -> j1) slots in
  let j2c = Array.map J2_32.opt_component j2s in
  let j1c = Array.map J1_32.opt_component j1s in
  let detc = Array.map (fun (_, _, _, d, _) -> Det32.component d) slots in
  let ratio = Array.make crowd 1. and gx = Array.make crowd 0. in
  let gy = Array.make crowd 0. and gz = Array.make crowd 0. in
  let acc = Array.make crowd true in
  let reset () =
    Array.fill ratio 0 crowd 1.;
    Array.fill gx 0 crowd 0.;
    Array.fill gy 0 crowd 0.;
    Array.fill gz 0 crowd 0.
  in
  let row = ref 0 in
  let point = kernel_point ~reps ~crowd in
  [
    point ~kernel:"j2_r8"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) ->
            ignore (j2c.(s).W32.ratio_grad ps k);
            j2c.(s).W32.accept ps k)
          slots)
      ~batch:(fun () ->
        reset ();
        J2_32.ratio_grad_batch j2s ~k ~m:crowd ~ratio ~gx ~gy ~gz;
        J2_32.accept_batch j2s ~k ~m:crowd ~acc);
    point ~kernel:"j1_r8"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) ->
            ignore (j1c.(s).W32.ratio_grad ps k);
            j1c.(s).W32.accept ps k)
          slots)
      ~batch:(fun () ->
        reset ();
        J1_32.ratio_grad_batch j1s ~k ~m:crowd ~ratio ~gx ~gy ~gz;
        J1_32.accept_batch j1s ~k ~m:crowd ~acc);
    (* The scalar side is the component closures, which evaluate the
       orbitals themselves (at a proposal of the electron's own
       position); the crowd stages get them from one batched SPO call. *)
    point ~kernel:"det_delayed_r8"
      ~scalar:(fun () ->
        let r = !row in
        row := (r + 1) land 3;
        Array.iteri
          (fun s (ps, _, _, _, _) ->
            Ps32.propose ps r (Ps32.get ps r);
            ignore (detc.(s).W32.grad ps r);
            ignore (detc.(s).W32.ratio_grad ps r);
            detc.(s).W32.accept ps r;
            Ps32.reject ps)
          slots)
      ~batch:(fun () ->
        let r = !row in
        row := (r + 1) land 3;
        reset ();
        for s = 0 to crowd - 1 do
          let _, _, _, det, vgls = slots.(s) in
          Det32.grad_into det r ~s ~gx ~gy ~gz;
          Det32.ratio_grad_into det vgls.(r) r ~s ~ratio ~gx ~gy ~gz;
          Det32.accept_move det r
        done);
  ]

let bench_kernels ?(reps = 20_000) () =
  let crowd = 8 and n = 16 in
  let slots, aab, abb = kernel_fixture ~crowd ~n in
  let j2s = Array.map (fun (_, _, _, j2, _) -> j2) slots in
  let j1s = Array.map (fun (_, _, _, _, j1) -> j1) slots in
  let j2c = Array.map J2_64.opt_component j2s in
  let j1c = Array.map J1_64.opt_component j1s in
  let px = Array.make crowd 0.
  and py = Array.make crowd 0.
  and pz = Array.make crowd 0. in
  let ratio = Array.make crowd 1.
  and gx = Array.make crowd 0.
  and gy = Array.make crowd 0.
  and gz = Array.make crowd 0.
  and acc = Array.make crowd true in
  let k = n / 2 in
  stage_move ~slots ~k ~px ~py ~pz;
  (* Determinants over the down group (electron k is its first), each
     with the orbitals at its proposed position and its stored rows
     built, so [accept_move] takes the row-copy path. *)
  let spo =
    Spo_analytic.plane_waves ~lattice:(Lattice.cubic 6.) ~n_orb:(n - k)
  in
  let dets =
    Array.map
      (fun (ps, _, _, _, _) ->
        let st = Det64.make ~spo ~first:k ~count:(n - k) ps in
        ignore ((Det64.component st).W64.evaluate_log ps);
        Det64.grad_into st k ~s:0 ~gx ~gy ~gz;
        st)
      slots
  in
  let detc = Array.map Det64.component dets in
  let vgls =
    Array.map
      (fun (ps, _, _, _, _) ->
        let vgl = Spo.make_vgl (n - k) in
        spo.Spo.eval_vgl (Ps64.active_pos ps) vgl;
        vgl)
      slots
  in
  (* The orbital table of NiO-32/r8 (40³ grid, 24 orbitals, f32) at the
     crowd's fractional positions. *)
  let table = B3_32.create ~nx:40 ~ny:40 ~nz:40 ~n_orb:24 () in
  let trng = Xoshiro.create 31 in
  B3_32.fill table (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Xoshiro.uniform_range trng ~lo:(-1.) ~hi:1.);
  let frac = Array.map (fun x -> Float.rem (Float.abs x) 6. /. 6.) in
  let su0 = frac px and su1 = frac py and su2 = frac pz in
  let vb = B3_32.make_v_batch table ~cap:crowd in
  let hb = B3_32.make_vgh_batch table ~cap:crowd in
  let vrows = B3_32.vouts vb and hbufs = B3_32.outs hb in
  let point = kernel_point ~reps ~crowd in
  [
    point ~kernel:"dt_aa_prepare"
      ~scalar:(fun () ->
        Array.iter (fun (ps, aa, _, _, _) -> AA64.prepare aa ps k) slots)
      ~batch:(fun () -> AA64.prepare_batch aab ~k ~m:crowd);
    point ~kernel:"dt_aa_move"
      ~scalar:(fun () ->
        Array.iter
          (fun (ps, aa, _, _, _) ->
            AA64.move aa ps k (Ps64.active_pos ps))
          slots)
      ~batch:(fun () -> AA64.move_batch aab ~k ~px ~py ~pz ~m:crowd);
    point ~kernel:"dt_aa_accept"
      ~scalar:(fun () ->
        Array.iter (fun (_, aa, _, _, _) -> AA64.accept aa k) slots)
      ~batch:(fun () -> AA64.accept_batch aab ~k ~acc ~m:crowd);
    point ~kernel:"dt_ab_move"
      ~scalar:(fun () ->
        Array.iter
          (fun (ps, _, ab, _, _) -> AB64.move ab (Ps64.active_pos ps))
          slots)
      ~batch:(fun () -> AB64.move_batch abb ~px ~py ~pz ~m:crowd);
    point ~kernel:"j2_ratio_grad"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> ignore (j2c.(s).W64.ratio_grad ps k))
          slots)
      ~batch:(fun () ->
        Array.fill ratio 0 crowd 1.;
        Array.fill gx 0 crowd 0.;
        Array.fill gy 0 crowd 0.;
        Array.fill gz 0 crowd 0.;
        J2_64.ratio_grad_batch j2s ~k ~m:crowd ~ratio ~gx ~gy ~gz);
    point ~kernel:"j2_accept"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> j2c.(s).W64.accept ps k)
          slots)
      ~batch:(fun () -> J2_64.accept_batch j2s ~k ~m:crowd ~acc);
    point ~kernel:"j1_ratio_grad"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> ignore (j1c.(s).W64.ratio_grad ps k))
          slots)
      ~batch:(fun () ->
        Array.fill ratio 0 crowd 1.;
        Array.fill gx 0 crowd 0.;
        Array.fill gy 0 crowd 0.;
        Array.fill gz 0 crowd 0.;
        J1_64.ratio_grad_batch j1s ~k ~m:crowd ~ratio ~gx ~gy ~gz);
    point ~kernel:"j1_accept"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> j1c.(s).W64.accept ps k)
          slots)
      ~batch:(fun () -> J1_64.accept_batch j1s ~k ~m:crowd ~acc);
    (* The scalar side is the component closures, which evaluate the
       orbitals themselves; the crowd stages get them from one batched
       SPO call. *)
    point ~kernel:"det_ratio_grad_accept"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) ->
            ignore (detc.(s).W64.ratio_grad ps k);
            detc.(s).W64.accept ps k)
          slots)
      ~batch:(fun () ->
        Array.fill ratio 0 crowd 1.;
        Array.fill gx 0 crowd 0.;
        Array.fill gy 0 crowd 0.;
        Array.fill gz 0 crowd 0.;
        for s = 0 to crowd - 1 do
          Det64.ratio_grad_into dets.(s) vgls.(s) k ~s ~ratio ~gx ~gy ~gz;
          Det64.accept_move dets.(s) k
        done);
    point ~kernel:"bspline_v"
      ~scalar:(fun () ->
        for s = 0 to crowd - 1 do
          B3_32.eval_v table ~u0:su0.(s) ~u1:su1.(s) ~u2:su2.(s) vrows.(s)
        done)
      ~batch:(fun () ->
        B3_32.eval_v_batch table vb ~n:crowd ~u0:su0 ~u1:su1 ~u2:su2);
    point ~kernel:"bspline_vgh"
      ~scalar:(fun () ->
        for s = 0 to crowd - 1 do
          B3_32.eval_vgh table ~u0:su0.(s) ~u1:su1.(s) ~u2:su2.(s) hbufs.(s)
        done)
      ~batch:(fun () ->
        B3_32.eval_vgh_batch table hb ~n:crowd ~u0:su0 ~u1:su1 ~u2:su2);
  ]
  @ bench_r8_kernels ~reps ()

(* ---- 3b. scalar DistTable calls: time and allocation per call ---- *)

type scalar_point = { call : string; ns_per_call : float; words_per_call : float }

(* The scalar table API at NiO-32 r8's shape (48 electrons, 8 ions,
   orthorhombic cell): for Current (f32 positions and tables) one AA
   [evaluate] (all 48 rows), one AA [move] and one AB [move], which share
   the batched calls' SoA kernel; for Ref (f64, the nio32-ref-dmc
   engine's precision) one AA and one AB [move], the AA table's accept
   scatter into its packed triangle ([update]) and the rebuild of both
   Store tables a Ref restore runs, through the AoS kernel.  None may
   allocate. *)
let bench_scalar_dt ?(reps = 20_000) () =
  let n = 48 and lattice = Lattice.orthorhombic 7. 7.5 8. in
  let u = let r = Xoshiro.create 37 in fun () -> Xoshiro.uniform r in
  let ps =
    Ps32.create ~lattice [ { Particle_set.name = "e"; charge = -1.; count = n } ]
  in
  Ps32.randomize ps u;
  let ions =
    Ps32.create ~lattice [ { Particle_set.name = "ion"; charge = 2.; count = 8 } ]
  in
  Ps32.randomize ions u;
  let aa = AA32.create ps and ab = AB32.create ~sources:ions ps in
  AA32.evaluate aa ps;
  AB32.evaluate ab ps;
  let ps64 =
    Ps64.create ~lattice
      [ { Particle_set.name = "e"; charge = -1.; count = n } ]
  in
  Ps64.randomize ps64 u;
  let ions64 =
    Ps64.create ~lattice
      [ { Particle_set.name = "ion"; charge = 2.; count = 8 } ]
  in
  Ps64.randomize ions64 u;
  let aref = AAref64.create ps64 in
  let bref = ABref64.create ~sources:ions64 ps64 in
  let k = n / 2 in
  let np = Vec3.add (Ps32.get ps k) (Vec3.make 0.1 (-0.2) 0.3) in
  let np64 = Vec3.add (Ps64.get ps64 k) (Vec3.make 0.1 (-0.2) 0.3) in
  let point call f =
    let ns = time_per ~reps f *. 1e9 in
    let w = minor_words_per ~reps:2000 f in
    if w > 1. then
      failwith
        (Printf.sprintf "crowd_bench: scalar %s allocates %.1f words/call" call
           w);
    { call; ns_per_call = ns; words_per_call = w }
  in
  [
    point "dt_aa_evaluate" (fun () -> AA32.evaluate aa ps);
    point "dt_aa_move" (fun () -> AA32.move aa ps k np);
    point "dt_ab_move" (fun () -> AB32.move ab np);
    point "dt_aa_ref_move" (fun () -> AAref64.move aref ps64 k np64);
    point "dt_aa_ref_update" (fun () -> AAref64.update aref k);
    point "dt_ab_ref_move" (fun () -> ABref64.move bref np64);
    point "dt_ref_evaluate" (fun () ->
        AAref64.evaluate aref ps64;
        ABref64.evaluate bref ps64);
  ]

(* ---- 3c. walker save / restore ---- *)

(* [save_walker] and [restore_walker] of the two NiO-32 r8 engines the
   benchmark runs: Current (f32, delay 4: the nio32-current-dmc engine)
   and Ref (f64, delay 1: the nio32-ref-dmc engine), on a walker that
   carries its orbital rows.  Restoring a saved walker needs no orbital
   evaluation: a restore and the sweep after it must record no SPO-vgl
   call, the timer key of a row rebuild.  Walker state moves in whole
   blocks, so neither call may allocate per element: more than
   [max_walker_io_words] minor words per call fails the run (Ref's Store
   matrices alone are 5·48² + 5·48·8 entries; one boxed float each was
   25k words per save and 73k per restore).  Ref's restore also rebuilds
   its Store distance tables, through the AoS row kernel, which
   allocates nothing; the bound is the same for both engines. *)
let max_walker_io_words = 64.

let bench_walker_io ?(reps = 2_000) () =
  let sys =
    Oqmc_workloads.Builder.named ~seed:11 ~reduction:8 ~with_nlpp:false
      ~precision:None "NiO-32"
  in
  let io variant ~delay =
    let name = Variant.to_string variant in
    let timers = Timers.create () in
    let e = Build.engine ~timers ~delay ~variant ~seed:3 sys in
    let w = Walker.create e.Engine_api.n_electrons in
    e.Engine_api.register_walker w;
    let rebuilds () = Timers.count timers "SPO-vgl" in
    let before = rebuilds () in
    e.Engine_api.restore_walker w;
    ignore (e.Engine_api.sweep (Xoshiro.create 5) ~tau:0.001);
    e.Engine_api.save_walker w;
    e.Engine_api.restore_walker w;
    ignore (e.Engine_api.measure ());
    if rebuilds () > before then
      failwith
        (Printf.sprintf
           "crowd_bench: restoring a saved %s walker recorded %d SPO-vgl calls"
           name (rebuilds () - before));
    let point call f =
      let call = name ^ " " ^ call in
      let words = minor_words_per ~reps:(max 1 (reps / 10)) f in
      if words > max_walker_io_words then
        failwith
          (Printf.sprintf
             "crowd_bench: %s allocates %.1f words/call (bound %.0f)" call
             words max_walker_io_words);
      { call; ns_per_call = time_per ~reps f *. 1e9; words_per_call = words }
    in
    [
      point "save_walker" (fun () -> e.Engine_api.save_walker w);
      point "restore_walker" (fun () -> e.Engine_api.restore_walker w);
    ]
  in
  io Variant.Current ~delay:4 @ io Variant.Ref ~delay:1

(* ---- 4. delayed determinant updates: delay-rank sweep ---- *)

type delay_point = { dn : int; delay : int; det_ns_per_move : float }

let bench_delay ?(n = 32) ?(sweeps = 100) ?(delays = [ 1; 2; 4; 8 ]) () =
  let lattice = Lattice.cubic 8. in
  List.map
    (fun kd ->
      let ps =
        Ps64.create ~lattice
          [ { Particle_set.name = "e"; charge = -1.; count = n } ]
      in
      let r = Xoshiro.create 23 in
      Ps64.randomize ps (fun () -> Xoshiro.uniform r);
      let spo = Spo_analytic.plane_waves ~lattice ~n_orb:n in
      let scheme =
        if kd = 1 then Det64.Sherman_morrison else Det64.Delayed kd
      in
      let d = Det64.create ~scheme ~spo ~first:0 ~count:n ps in
      ignore (d.W64.evaluate_log ps);
      let rng = Xoshiro.create 29 in
      let t =
        time_per ~reps:sweeps (fun () ->
            for k = 0 to n - 1 do
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
            done)
      in
      { dn = n; delay = kd; det_ns_per_move = t *. 1e9 /. float_of_int n })
    delays

(* ---- reporting ---- *)

(* The best measured rank at the largest determinant order swept — the
   [delay] to give a run of that system. *)
let best_delay delays =
  match delays with
  | [] -> 1
  | d0 :: _ ->
      let nmax = List.fold_left (fun a p -> max a p.dn) d0.dn delays in
      List.fold_left
        (fun (bk, bt) p ->
          if p.dn = nmax && p.det_ns_per_move < bt then
            (p.delay, p.det_ns_per_move)
          else (bk, bt))
        (1, infinity) delays
      |> fst

let json_of ~sweeps ~kernels ~delays =
  let b = Buffer.create 2048 in
  let f = Printf.bprintf in
  f b "{\n";
  f b "%s"
    (Report.bench_header ~precision:"f32" ~delay:(best_delay delays));
  f b "  \"full_sweep\": [\n";
  List.iteri
    (fun i p ->
      f b
        "    {\"system\": %S, \"crowd\": %d, \"moves_per_sweep\": %d, \
         \"scalar_ns_per_move\": %.1f, \"crowd1_ns_per_move\": %.1f, \
         \"pipeline_ns_per_move\": %.1f, \"speedup\": %.3f}%s\n"
        p.system p.crowd p.moves_per_sweep p.scalar_ns_per_move
        p.crowd1_ns_per_move p.pipeline_ns_per_move p.speedup
        (if i = List.length sweeps - 1 then "" else ","))
    sweeps;
  f b "  ],\n";
  f b "  \"kernels\": [\n";
  List.iteri
    (fun i p ->
      f b
        "    {\"kernel\": %S, \"crowd\": %d, \"scalar_ns_per_move\": %.1f, \
         \"batch_ns_per_move\": %.1f, \"speedup\": %.3f, \
         \"batch_words_per_move\": %.2f}%s\n"
        p.kernel p.kcrowd p.scalar_ns_per_move p.batch_ns_per_move
        p.kernel_speedup p.batch_words_per_move
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  f b "  ],\n";
  f b "  \"delayed_updates\": [\n";
  List.iteri
    (fun i p ->
      f b "    {\"n\": %d, \"delay\": %d, \"det_ns_per_move\": %.1f}%s\n"
        p.dn p.delay p.det_ns_per_move
        (if i = List.length delays - 1 then "" else ","))
    delays;
  f b "  ]\n";
  f b "}\n";
  Buffer.contents b

let run ?json () =
  Printf.printf "== full PbP sweep: scalar vs pipeline ==\n%!";
  let sweeps = bench_sweeps () in
  (* ns/move always %.1f, words/move always %.2f — same precisions as
     the JSON record, so console and BENCH file never disagree. *)
  List.iter
    (fun p ->
      Printf.printf
        "  %-12s scalar %.1f ns/move, crowd 1 %.1f ns/move, crowd %d %.1f \
         ns/move  (%.2fx)\n"
        p.system p.scalar_ns_per_move p.crowd1_ns_per_move p.crowd
        p.pipeline_ns_per_move p.speedup)
    sweeps;
  Printf.printf "== per-kernel scalar vs batched ==\n%!";
  let kernels = bench_kernels () in
  List.iter
    (fun p ->
      Printf.printf
        "  %-21s crowd %2d: scalar %.1f ns/move, batch %.1f ns/move  \
         (%.2fx, %.2f words/move)\n"
        p.kernel p.kcrowd p.scalar_ns_per_move p.batch_ns_per_move
        p.kernel_speedup p.batch_words_per_move)
    kernels;
  Printf.printf
    "== scalar DistTable calls (n = 48; Current f32, Ref f64) ==\n%!";
  List.iter
    (fun p ->
      Printf.printf "  %-21s %.1f ns/call, %.2f words/call\n" p.call
        p.ns_per_call p.words_per_call)
    (bench_scalar_dt ~reps:2_000 ());
  Printf.printf "== walker save/restore (NiO-32 r8 Current f32, Ref f64) ==\n%!";
  List.iter
    (fun p ->
      Printf.printf "  %-21s %.1f ns/call, %.1f words/call\n" p.call
        p.ns_per_call p.words_per_call)
    (bench_walker_io ());
  Printf.printf "== delayed determinant updates ==\n%!";
  let delays =
    bench_delay ~n:32 () @ bench_delay ~n:96 ~sweeps:40 ()
  in
  List.iter
    (fun p ->
      Printf.printf "  n %3d delay %2d: %.1f ns/move\n" p.dn p.delay
        p.det_ns_per_move)
    delays;
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of ~sweeps ~kernels ~delays);
      close_out oc;
      Printf.printf "wrote %s\n%!" path

(* Reduced run for the @bench-smoke alias: keeps every assertion — the
   pipeline-vs-scalar trajectory identity of [bench_sweep], the
   per-kernel zero-allocation failwiths of [bench_kernels], the
   no-rebuild-at-restore check of [bench_walker_io], and the
   delayed-update regression guard — at a fraction of the reps, and
   skips the NiO sweep table.  Timing numbers from this mode are noise
   except the k1/k8 ratio the guard checks. *)
let smoke () =
  let p =
    bench_sweep ~name:"harmonic-6"
      ~sys:(Oqmc_workloads.Validation.harmonic ~n:6 ~omega:1.0)
      ~crowd:8 ~sweeps:40
  in
  Printf.printf
    "crowd smoke: %s pipeline at crowd 1 and %d bit-identical to scalar \
     sweeps\n"
    p.system p.crowd;
  let kernels = bench_kernels ~reps:2_000 () in
  List.iter
    (fun q ->
      Printf.printf "crowd smoke: %-21s %.2f words/move\n" q.kernel
        q.batch_words_per_move)
    kernels;
  List.iter
    (fun q ->
      Printf.printf "crowd smoke: scalar %-16s %.2f words/call\n" q.call
        q.words_per_call)
    (bench_scalar_dt ~reps:200 ());
  List.iter
    (fun q ->
      Printf.printf
        "crowd smoke: NiO-32 r8 %-22s %.0f ns/call, %.1f words/call\n" q.call
        q.ns_per_call q.words_per_call)
    (bench_walker_io ~reps:200 ());
  Printf.printf
    "crowd smoke: restoring a saved Current or Ref walker records no SPO-vgl call\n";
  (* Delayed-update regression guard: at an order where the inverse no
     longer fits in L1 the blocked rank-8 flush must beat rank-1
     Sherman-Morrison.  Best-of-2 per rank; the tolerance absorbs
     single-core scheduler noise, not a real regression (the healthy
     ratio is ~0.7). *)
  let guard_n = 96 in
  let best k =
    let one () =
      match bench_delay ~n:guard_n ~sweeps:15 ~delays:[ k ] () with
      | [ p ] -> p.det_ns_per_move
      | _ -> assert false
    in
    Float.min (one ()) (one ())
  in
  let t1 = best 1 and t8 = best 8 in
  Printf.printf
    "crowd smoke: delayed n=%d  k1 %.1f ns/move, k8 %.1f ns/move (ratio \
     %.2f)\n"
    guard_n t1 t8 (t8 /. t1);
  if t8 > t1 *. 1.05 then
    failwith
      (Printf.sprintf
         "crowd_bench: delayed updates regressed: k=8 %.1f ns/move vs k=1 \
          %.1f ns/move at n=%d"
         t8 t1 guard_n);
  Printf.printf "crowd smoke: ok\n%!"
