open Oqmc_particle
open Oqmc_core
open Oqmc_workloads
open Oqmc_rng

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let factory ~variant ~sys ~seed = Build.factory ~variant ~seed sys

(* ---------- exact systems: the end-to-end correctness anchor ---------- *)

let test_harmonic_zero_variance () =
  (* Ψ_T is the exact eigenfunction: E_L must equal the exact eigenvalue
     at every sampled configuration, i.e. zero variance. *)
  let n = 5 and omega = 1.3 in
  let sys = Validation.harmonic ~n ~omega in
  let exact = Validation.harmonic_exact_energy ~n ~omega in
  let res =
    Vmc.run
      ~factory:(factory ~variant:Variant.Current_f64 ~sys ~seed:1)
      {
        Vmc.default_params with
        Vmc.n_walkers = 2;
        warmup = 10;
        blocks = 4;
        steps_per_block = 10;
        tau = 0.2;
        seed = 2;
      }
  in
  checkf 1e-7 "energy exact" exact res.Vmc.energy;
  check_bool "zero variance" true (res.Vmc.variance < 1e-10);
  check_bool "moves accepted" true (res.Vmc.acceptance > 0.5)

let test_harmonic_all_variants_agree () =
  let n = 4 and omega = 0.9 in
  let sys = Validation.harmonic ~n ~omega in
  let exact = Validation.harmonic_exact_energy ~n ~omega in
  List.iter
    (fun variant ->
      let res =
        Vmc.run
          ~factory:(factory ~variant ~sys ~seed:3)
          {
            Vmc.default_params with
            Vmc.n_walkers = 1;
            warmup = 5;
            blocks = 2;
            steps_per_block = 5;
            tau = 0.2;
            seed = 4;
          }
      in
      (* Mixed precision loosens the tolerance but not the physics. *)
      let tol = 1e-3 in
      check_bool
        (Printf.sprintf "%s energy" (Variant.to_string variant))
        true
        (abs_float (res.Vmc.energy -. exact) < tol))
    Variant.all

let test_free_fermions_exact () =
  let n = 7 and box = 6.0 in
  let sys = Validation.free_fermions ~n ~box in
  let exact = Validation.free_fermions_exact_energy ~n ~box in
  let res =
    Vmc.run
      ~factory:(factory ~variant:Variant.Current_f64 ~sys ~seed:5)
      {
        Vmc.default_params with
        Vmc.n_walkers = 2;
        warmup = 10;
        blocks = 3;
        steps_per_block = 8;
        tau = 0.1;
        seed = 6;
      }
  in
  checkf 1e-7 "plane-wave kinetic energy" exact res.Vmc.energy;
  check_bool "zero variance" true (res.Vmc.variance < 1e-10)

let test_hydrogen_zero_variance () =
  (* Exact 1s orbital: E_L = -1/2 everywhere, exercising the e-ion
     Coulomb path end to end, for every variant. *)
  let sys = Validation.hydrogen () in
  List.iter
    (fun variant ->
      let res =
        Vmc.run
          ~factory:(factory ~variant ~sys ~seed:70)
          {
            Vmc.n_walkers = 2;
            warmup = 20;
            blocks = 4;
            steps_per_block = 10;
            tau = 0.3;
            seed = 71;
            n_domains = 1;
          }
      in
      let name = Variant.to_string variant in
      (* f32 positions and e-ion distances leave |E + 1/2| at about
         1.3e-9 and a variance of about 8e-16 on this seed; f64 is
         exact *)
      checkf 1e-8 (name ^ ": hydrogen ground state") (-0.5) res.Vmc.energy;
      check_bool (name ^ ": zero variance") true (res.Vmc.variance < 1e-12))
    Variant.all

let test_hydrogen_variational () =
  (* At zeta <> Z the energy must match E(zeta) = zeta^2/2 - Z zeta within
     4 block-error bars, for every variant, and stay above the exact
     -1/2. *)
  let zeta = 0.8 in
  let sys = Validation.hydrogen ~zeta () in
  let exact = Validation.hydrogen_variational_energy ~zeta ~z:1.0 in
  List.iter
    (fun variant ->
      let res =
        Vmc.run
          ~factory:(factory ~variant ~sys ~seed:72)
          {
            Vmc.n_walkers = 6;
            warmup = 100;
            blocks = 12;
            steps_per_block = 25;
            tau = 0.4;
            seed = 73;
            n_domains = 1;
          }
      in
      let name = Variant.to_string variant in
      check_bool (name ^ ": matches analytic <H>(zeta)") true
        (abs_float (res.Vmc.energy -. exact) < 4. *. res.Vmc.energy_error);
      check_bool (name ^ ": variational bound") true (res.Vmc.energy > -0.5))
    Variant.all

(* ---------- observables ---------- *)

let test_gofr_correlation_hole () =
  (* The J2 factor digs a correlation hole: g(r) suppressed at contact,
     ~1 at large separation; the histogram must also be fed. *)
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let gofr =
    Observables.Gofr.create ~bins:10
      ~lattice:(Oqmc_particle.Lattice.cubic 5.0) ()
  in
  let _ =
    Vmc.run
      ~observe:(Observables.Gofr.accumulate gofr)
      ~factory:(factory ~variant:Variant.Current_f64 ~sys ~seed:74)
      {
        Vmc.n_walkers = 4;
        warmup = 30;
        blocks = 20;
        steps_per_block = 10;
        tau = 0.3;
        seed = 75;
        n_domains = 1;
      }
  in
  let g = Observables.Gofr.result gofr in
  check_bool "fed" true (Observables.Gofr.samples gofr = 80);
  let _, g_contact = g.(0) in
  let outer =
    (* average of the outer third of the bins *)
    let vals = Array.sub g 7 3 in
    Array.fold_left (fun a (_, v) -> a +. v) 0. vals /. 3.
  in
  check_bool "correlation hole at contact" true (g_contact < outer);
  check_bool "uncorrelated at distance" true (outer > 0.5 && outer < 1.6)

let test_density_profile_trap () =
  (* Harmonic trap: density peaks at the center and integrates to N. *)
  let n = 3 and omega = 1.0 in
  let sys = Validation.harmonic ~n ~omega in
  let dens = Observables.Density.create ~bins:20 ~r_max:6.0 () in
  let _ =
    Vmc.run
      ~observe:(Observables.Density.accumulate dens)
      ~factory:(factory ~variant:Variant.Current_f64 ~sys ~seed:76)
      {
        Vmc.n_walkers = 4;
        warmup = 50;
        blocks = 25;
        steps_per_block = 10;
        tau = 0.4;
        seed = 77;
        n_domains = 1;
      }
  in
  let prof = Observables.Density.result dens in
  checkf 0.05 "captures all particles" (float_of_int n)
    (Observables.Density.total dens);
  let _, n_center = prof.(0) in
  let _, n_edge = prof.(19) in
  check_bool "peaked at center" true (n_center > 10. *. (n_edge +. 1e-9))

(* ---------- cross-variant consistency on an interacting system -------- *)

let el_of_walker ~variant ~sys (w : Walker.t) =
  let e = Build.engine ~variant ~seed:42 sys in
  e.Engine_api.load_walker w;
  (e.Engine_api.log_psi (), e.Engine_api.measure ())

let test_variants_same_energy () =
  (* Same configuration → same log Ψ and E_L across all four variants
     (within storage precision). *)
  let sys = Validation.electron_gas ~n_up:6 ~n_down:6 ~box:5.5 () in
  let rng = Xoshiro.create 7 in
  let w = Walker.create 12 in
  for i = 0 to 11 do
    Walker.Aos.set w.Walker.r i
      (Oqmc_containers.Vec3.make
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.5)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.5)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.5))
  done;
  let log_ref, el_ref = el_of_walker ~variant:Variant.Ref ~sys w in
  List.iter
    (fun variant ->
      let log_v, el_v = el_of_walker ~variant ~sys w in
      let tol =
        match variant with
        | Variant.Ref | Variant.Current_f64 -> 1e-8
        | Variant.Ref_mp | Variant.Current -> 5e-3
      in
      check_bool
        (Printf.sprintf "%s log psi" (Variant.to_string variant))
        true
        (abs_float (log_v -. log_ref) < tol);
      check_bool
        (Printf.sprintf "%s E_L" (Variant.to_string variant))
        true
        (abs_float (el_v -. el_ref) < tol *. 100.))
    Variant.all

let test_layout_ablation_identical_physics () =
  (* Ref vs Current at the SAME precision must agree to near machine
     epsilon: the layout/algorithm changes are exact rewrites. *)
  let sys = Validation.electron_gas ~n_up:5 ~n_down:5 ~box:5.0 () in
  let rng = Xoshiro.create 8 in
  let w = Walker.create 10 in
  for i = 0 to 9 do
    Walker.Aos.set w.Walker.r i
      (Oqmc_containers.Vec3.make
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:5.))
  done;
  let log_a, el_a = el_of_walker ~variant:Variant.Ref ~sys w in
  let log_b, el_b = el_of_walker ~variant:Variant.Current_f64 ~sys w in
  checkf 1e-9 "log psi" log_a log_b;
  checkf 1e-7 "E_L" el_a el_b

(* ---------- sweeps, buffers, determinism ---------- *)

let test_sweep_updates_consistent () =
  (* After a sweep, the incrementally-updated log Ψ must match a from-
     scratch recompute. *)
  let sys = Validation.electron_gas ~n_up:5 ~n_down:5 ~box:5.0 () in
  List.iter
    (fun variant ->
      let e = Build.engine ~variant ~seed:9 sys in
      let rng = Xoshiro.create 10 in
      for _ = 1 to 5 do
        ignore (e.Engine_api.sweep rng ~tau:0.2)
      done;
      let incremental = e.Engine_api.log_psi () in
      let fresh = e.Engine_api.refresh () in
      let tol =
        match variant with
        | Variant.Ref | Variant.Current_f64 -> 1e-7
        | Variant.Ref_mp | Variant.Current -> 2e-2
      in
      check_bool
        (Printf.sprintf "%s log psi tracks" (Variant.to_string variant))
        true
        (abs_float (incremental -. fresh) < tol))
    Variant.all

let test_walker_buffer_roundtrip () =
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let e = Build.engine ~variant:Variant.Current ~seed:11 sys in
  let w = Walker.create 8 in
  e.Engine_api.register_walker w;
  let el0 = e.Engine_api.measure () in
  (* Scramble the engine with another configuration, then restore. *)
  e.Engine_api.randomize (Xoshiro.create 12);
  e.Engine_api.restore_walker w;
  let el1 = e.Engine_api.measure () in
  checkf 1e-6 "E_L restored from buffer" el0 el1

let test_sweep_deterministic () =
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let run () =
    let e = Build.engine ~variant:Variant.Current ~seed:13 sys in
    let rng = Xoshiro.create 14 in
    let acc = ref 0 in
    for _ = 1 to 5 do
      let r = e.Engine_api.sweep rng ~tau:0.25 in
      acc := !acc + r.Engine_api.accepted
    done;
    (!acc, e.Engine_api.log_psi ())
  in
  let a1, l1 = run () in
  let a2, l2 = run () in
  Alcotest.(check int) "same accepts" a1 a2;
  checkf 0. "same log psi" l1 l2

(* ---------- DMC ---------- *)

let test_dmc_harmonic () =
  let n = 3 and omega = 1.0 in
  let sys = Validation.harmonic ~n ~omega in
  let exact = Validation.harmonic_exact_energy ~n ~omega in
  let res =
    Dmc.run
      ~factory:(factory ~variant:Variant.Current_f64 ~sys ~seed:15)
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 10;
        generations = 30;
        tau = 0.02;
        seed = 16;
      }
  in
  (* Exact trial wavefunction → DMC converges to the exact energy with
     zero branching noise. *)
  checkf 1e-6 "DMC energy" exact res.Dmc.energy;
  check_bool "population stable" true
    (res.Dmc.mean_population > 4. && res.Dmc.mean_population < 16.)

let test_dmc_population_control () =
  (* With an interacting system the population must stay near target. *)
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let res =
    Dmc.run
      ~factory:(factory ~variant:Variant.Current ~sys ~seed:17)
      {
        Dmc.default_params with
        Dmc.target_walkers = 12;
        warmup = 10;
        generations = 40;
        tau = 0.01;
        seed = 18;
        ranks = 4;
      }
  in
  check_bool "population near target" true
    (res.Dmc.mean_population > 6. && res.Dmc.mean_population < 24.);
  check_bool "acceptance high at small tau" true (res.Dmc.acceptance > 0.8);
  check_bool "comm accounting active" true (res.Dmc.comm_messages >= 0)

let test_tiled_nlpp_domains_deterministic () =
  (* Two domains share one orbital table through the scalar
     kernels — the drift-diffusion sweeps and NLPP quadrature — so a run
     must not depend on how the domains interleave: the same deck twice
     gives a bit-identical energy series. *)
  let cfg =
    Input.parse_string
      "method = dmc\nworkload = NiO-32\nreduction = 16\nvariant = Current\n\
       nlpp = true\ndomains = 2\nwalkers = 8\ntau = 0.001\n\
       seed = 3\n"
  in
  let run () =
    let sys =
      Builder.make ~seed:cfg.Input.seed ~with_nlpp:cfg.Input.nlpp
        ~reduction:cfg.Input.reduction (Spec.find cfg.Input.workload)
    in
    Dmc.run
      ~factory:
        (Build.factory ~variant:cfg.Input.variant ~seed:cfg.Input.seed sys)
      {
        Dmc.default_params with
        Dmc.target_walkers = cfg.Input.walkers;
        warmup = 1;
        generations = 4;
        tau = cfg.Input.tau;
        seed = cfg.Input.seed;
        n_domains = cfg.Input.domains;
      }
  in
  let a = run () and b = run () in
  check_bool "energy series bit-identical" true
    (a.Dmc.energy_series = b.Dmc.energy_series)

let test_dmc_f32_vs_f64_agree () =
  (* Mixed precision is a storage knob, not a physics knob: a short DMC
     with f32 tables and walker state must land on the f64 energy within
     the runs' combined statistical error (plus a small absolute floor —
     tiny runs underestimate their own error bars). *)
  let run precision variant =
    let sys =
      Builder.make ~seed:7 ~with_nlpp:false ~reduction:32 ~precision
        Spec.nio32
    in
    Dmc.run
      ~factory:(Build.factory ~variant ~precision ~seed:21 sys)
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 6;
        generations = 24;
        tau = 0.02;
        seed = 22;
      }
  in
  let r64 = run `F64 Variant.Current_f64 in
  let r32 = run `F32 Variant.Current in
  let sigma = r64.Dmc.energy_error +. r32.Dmc.energy_error in
  let tol = (4. *. sigma) +. (0.02 *. abs_float r64.Dmc.energy) +. 0.01 in
  check_bool
    (Printf.sprintf "f32 %.4f vs f64 %.4f within %.4f" r32.Dmc.energy
       r64.Dmc.energy tol)
    true
    (abs_float (r32.Dmc.energy -. r64.Dmc.energy) < tol);
  check_bool "f32 population stable" true
    (r32.Dmc.mean_population > 4. && r32.Dmc.mean_population < 16.)

(* ---------- workload smoke tests ---------- *)

let test_workload_builds_and_runs () =
  List.iter
    (fun spec ->
      let sys = Builder.make ~reduction:16 ~with_nlpp:false spec in
      let e = Build.engine ~variant:Variant.Current ~seed:19 sys in
      let rng = Xoshiro.create 20 in
      let r = e.Engine_api.sweep rng ~tau:0.05 in
      check_bool
        (Printf.sprintf "%s sweeps" spec.Spec.wname)
        true
        (r.Engine_api.accepted >= 0);
      let el = e.Engine_api.measure () in
      check_bool
        (Printf.sprintf "%s finite E_L" spec.Spec.wname)
        true (Float.is_finite el))
    Spec.all

let test_workload_nlpp_runs () =
  let sys = Builder.make ~reduction:16 ~with_nlpp:true Spec.nio32 in
  let e = Build.engine ~variant:Variant.Current ~seed:21 sys in
  let el = e.Engine_api.measure () in
  check_bool "NLPP E_L finite" true (Float.is_finite el)

let test_workload_variants_agree () =
  let sys = Builder.make ~reduction:16 ~with_nlpp:true Spec.nio32 in
  let w = Walker.create (System.n_electrons sys) in
  let e1 = Build.engine ~variant:Variant.Ref ~seed:22 sys in
  e1.Engine_api.register_walker w;
  let l1 = e1.Engine_api.log_psi () and el1 = e1.Engine_api.measure () in
  let e2 = Build.engine ~variant:Variant.Current_f64 ~seed:23 sys in
  e2.Engine_api.load_walker w;
  let l2 = e2.Engine_api.log_psi () and el2 = e2.Engine_api.measure () in
  checkf 1e-6 "NiO log psi" l1 l2;
  check_bool "NiO E_L agree" true (abs_float (el1 -. el2) < 1e-4)

let test_ewald_engine_integration () =
  (* Ewald electrostatics: finite, variant-consistent, and different from
     the minimum-image shortcut by a smooth offset. *)
  let sys_mi = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let sys_ew = Validation.electron_gas ~ewald:true ~n_up:4 ~n_down:4 ~box:5.0 () in
  let w = Walker.create 8 in
  let e0 = Build.engine ~variant:Variant.Ref ~seed:30 sys_mi in
  e0.Engine_api.register_walker w;
  let measure sys variant =
    let e = Build.engine ~variant ~seed:31 sys in
    e.Engine_api.load_walker w;
    e.Engine_api.measure ()
  in
  let mi = measure sys_mi Variant.Ref in
  let ew_ref = measure sys_ew Variant.Ref in
  let ew_cur = measure sys_ew Variant.Current_f64 in
  check_bool "ewald finite" true (Float.is_finite ew_ref);
  checkf 1e-7 "ewald variant-independent" ew_ref ew_cur;
  check_bool "differs from minimum image" true (abs_float (ew_ref -. mi) > 1e-6)

let test_multidomain_matches_serial_counts () =
  (* Domain-parallel VMC must produce sane results and merged timers. *)
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let res =
    Vmc.run
      ~factory:(factory ~variant:Variant.Current ~sys ~seed:24)
      {
        Vmc.n_walkers = 4;
        warmup = 5;
        blocks = 3;
        steps_per_block = 5;
        tau = 0.2;
        seed = 25;
        n_domains = 2;
      }
  in
  check_bool "parallel run finite" true (Float.is_finite res.Vmc.energy);
  Alcotest.(check int) "all samples measured" (4 * 3 * 5) res.Vmc.samples

let test_delayed_update_engine () =
  (* Full engine with the delayed DetUpdate scheme: identical physics to
     Sherman-Morrison within double precision. *)
  let sys = Validation.electron_gas ~n_up:5 ~n_down:5 ~box:5.0 () in
  let w = Walker.create 10 in
  let e_sm = Build.engine ~variant:Variant.Current_f64 ~seed:60 sys in
  e_sm.Engine_api.register_walker w;
  let e_du = Build.engine ~delay:4 ~variant:Variant.Current_f64 ~seed:61 sys in
  e_du.Engine_api.load_walker w;
  checkf 1e-8 "log psi" (e_sm.Engine_api.log_psi ()) (e_du.Engine_api.log_psi ());
  (* identical sweeps under a shared RNG stream *)
  let r1 = e_sm.Engine_api.sweep (Xoshiro.create 62) ~tau:0.2 in
  e_du.Engine_api.load_walker w;
  let r2 = e_du.Engine_api.sweep (Xoshiro.create 62) ~tau:0.2 in
  Alcotest.(check int) "same acceptances" r1.Engine_api.accepted
    r2.Engine_api.accepted;
  checkf 1e-6 "same log psi after sweep" (e_sm.Engine_api.log_psi ())
    (e_du.Engine_api.log_psi ());
  checkf 1e-5 "same E_L" (e_sm.Engine_api.measure ()) (e_du.Engine_api.measure ())

(* ---------- checkpoint ---------- *)

let test_checkpoint_roundtrip () =
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let e = Build.engine ~variant:Variant.Current ~seed:40 sys in
  let rng = Xoshiro.create 41 in
  let walkers =
    List.init 3 (fun _ ->
        let w = Walker.create 8 in
        e.Engine_api.randomize rng;
        e.Engine_api.register_walker w;
        w.Walker.weight <- Xoshiro.uniform rng;
        w.Walker.e_local <- e.Engine_api.measure ();
        w)
  in
  let path = Filename.temp_file "oqmc" ".chk" in
  Checkpoint.save ~path ~e_trial:(-1.25) walkers;
  let e_trial, restored = Checkpoint.load ~path in
  Sys.remove path;
  checkf 0. "e_trial" (-1.25) e_trial;
  Alcotest.(check int) "count" 3 (List.length restored);
  List.iter2
    (fun (a : Walker.t) (b : Walker.t) ->
      checkf 0. "weight" a.Walker.weight b.Walker.weight;
      checkf 0. "log_psi" a.Walker.log_psi b.Walker.log_psi;
      checkf 0. "e_local" a.Walker.e_local b.Walker.e_local;
      for i = 0 to 7 do
        check_bool "positions bit-exact" true
          (Oqmc_containers.Vec3.equal
             (Walker.Aos.get a.Walker.r i)
             (Walker.Aos.get b.Walker.r i))
      done;
      (* restoring an engine from the checkpointed buffer reproduces E_L *)
      e.Engine_api.restore_walker b;
      checkf 1e-6 "E_L from restored buffer" a.Walker.e_local
        (e.Engine_api.measure ()))
    walkers restored

let test_checkpoint_corrupt () =
  let path = Filename.temp_file "oqmc" ".chk" in
  let oc = open_out path in
  output_string oc "NOT-A-CHECKPOINT\n";
  close_out oc;
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt"
   with Checkpoint.Corrupt _ -> ());
  (* A v1 file (no CRC) whose buffer header claims more entries than the
     file holds is refused before the pool is allocated. *)
  let oc = open_out path in
  output_string oc
    "OQMC-CHECKPOINT-1\ne_trial 0x0p+0\nwalkers 1\n\
     walker 1 0x1p+0 1 0 0x0p+0 0x0p+0\n0x0p+0 0x0p+0 0x0p+0\n\
     buffer 1000000000000\n0x1p+0\n";
  close_out oc;
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt"
   with Checkpoint.Corrupt m ->
     Alcotest.(check string)
       "inflated buffer" "unexpected end of file reading buffer value" m);
  Sys.remove path

let () =
  Alcotest.run "qmc"
    [
      ( "exact_systems",
        [
          Alcotest.test_case "harmonic zero variance" `Quick
            test_harmonic_zero_variance;
          Alcotest.test_case "harmonic all variants" `Quick
            test_harmonic_all_variants_agree;
          Alcotest.test_case "free fermions" `Quick test_free_fermions_exact;
          Alcotest.test_case "hydrogen zero variance" `Quick
            test_hydrogen_zero_variance;
          Alcotest.test_case "hydrogen variational" `Quick
            test_hydrogen_variational;
        ] );
      ( "observables",
        [
          Alcotest.test_case "g(r) correlation hole" `Quick
            test_gofr_correlation_hole;
          Alcotest.test_case "trap density" `Quick test_density_profile_trap;
        ] );
      ( "variants",
        [
          Alcotest.test_case "same energy" `Quick test_variants_same_energy;
          Alcotest.test_case "layout ablation" `Quick
            test_layout_ablation_identical_physics;
          Alcotest.test_case "sweep consistency" `Quick
            test_sweep_updates_consistent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "buffer roundtrip" `Quick
            test_walker_buffer_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
        ] );
      ( "dmc",
        [
          Alcotest.test_case "harmonic" `Quick test_dmc_harmonic;
          Alcotest.test_case "population control" `Quick
            test_dmc_population_control;
          Alcotest.test_case "f32 vs f64 energy" `Quick
            test_dmc_f32_vs_f64_agree;
          (* name predates the single orbital table; kept for history *)
          Alcotest.test_case "tiled nlpp 2 domains deterministic" `Quick
            test_tiled_nlpp_domains_deterministic;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "build and run" `Quick
            test_workload_builds_and_runs;
          Alcotest.test_case "nlpp" `Quick test_workload_nlpp_runs;
          Alcotest.test_case "variants agree" `Quick
            test_workload_variants_agree;
          Alcotest.test_case "multidomain" `Quick
            test_multidomain_matches_serial_counts;
          Alcotest.test_case "ewald integration" `Quick
            test_ewald_engine_integration;
        ] );
      ( "delayed",
        [
          Alcotest.test_case "engine parity" `Quick test_delayed_update_engine;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corrupt" `Quick test_checkpoint_corrupt;
        ] );
    ]
