open Oqmc_containers
open Oqmc_core
open Oqmc_perfmodel
open Oqmc_workloads

(* One reproduction function per table/figure of the paper's evaluation
   (see DESIGN.md's experiment index).  Each prints the paper's reference
   numbers next to ours.  Measured numbers come from the real OCaml
   engines on reduction-scaled workloads; machine-specific numbers come
   from the calibrated performance model on the full-size workloads (the
   documented substitution for hardware we do not have). *)

let reduction =
  match Sys.getenv_opt "OQMC_BENCH_REDUCTION" with
  | Some s -> (try max 2 (int_of_string s) with Failure _ -> 8)
  | None -> 8

let seed = 20170930

(* ---- model helpers ---- *)

let layout_of = function
  | Variant.Ref | Variant.Ref_mp -> `Store
  | Variant.Current | Variant.Current_f64 -> `Otf

let elt_of = function
  | Variant.Ref | Variant.Current_f64 -> 8
  | Variant.Ref_mp | Variant.Current -> 4

let model_costs ~variant (spec : Spec.t) =
  let has_pp =
    List.exists (fun s -> s.Spec.pseudopotential) spec.Spec.species
  in
  Opcount.step_costs
    {
      Opcount.n = spec.Spec.n;
      n_ion = spec.Spec.n_ion;
      n_spo = spec.Spec.n / 2;
      elt_bytes = elt_of variant;
      layout = layout_of variant;
      acceptance = 0.5;
      nlpp_evals = Opcount.nlpp_evals_estimate ~n:spec.Spec.n ~has_pp;
      tile = 0;
    }

let model_step_time machine ~variant spec =
  Roofline.total_time (Roofline.project_all machine (model_costs ~variant spec))

let model_speedup machine spec =
  Roofline.speedup machine
    ~ref_costs:(model_costs ~variant:Variant.Ref spec)
    ~cur_costs:(model_costs ~variant:Variant.Current spec)

(* ---- measured helpers ---- *)

let scaled_system ?(with_nlpp = false) spec =
  Builder.make ~seed ~with_nlpp ~reduction spec

let measured_runs ?with_nlpp ?sweeps spec variants =
  let sys = scaled_system ?with_nlpp spec in
  List.map
    (fun variant -> (variant, Measured.run_variant ?sweeps ~variant ~seed sys))
    variants

(* ================================================================== *)

let table1 () =
  Report.section
    "Table 1: workloads and key properties (paper values reproduced from \
     the workload definitions)";
  Printf.printf
    "%-9s %5s %5s %8s %8s  %-12s %6s  %-10s %6s\n"
    "workload" "N" "Nion" "ion/cell" "cells" "types(Z*)" "SPOs" "FFT grid"
    "B-spl GB";
  List.iter
    (fun s -> Format.printf "%a@." Spec.pp_row s)
    Spec.all;
  Printf.printf
    "\npaper B-spline column: Graphite 0.1, Be-64 1.4, NiO-32 1.3, NiO-64 \
     2.1 GB\n(complex double coefficients, 16 B per grid point per SPO)\n"

let fig3 () =
  Report.section
    "Figure 3: NiO Jastrow functors u(r) (B-spline radial functors with \
     cusp conditions)";
  let lattice_cut = 3.9 (* NiO-32 Wigner-Seitz-like cutoff, bohr *) in
  let uu = Jastrow_sets.two_body ~cusp:(-0.25) ~cutoff:lattice_cut () in
  let ud = Jastrow_sets.two_body ~cusp:(-0.5) ~cutoff:lattice_cut () in
  let ion = Jastrow_sets.ion_set ~cutoff:lattice_cut Spec.nio32.Spec.species in
  let ni_f = ion.(0) and o_f = ion.(1) in
  Printf.printf "%8s %10s %10s %10s %10s\n" "r(bohr)" "u_uu" "u_ud" "U_Ni"
    "U_O";
  let points = 16 in
  for i = 0 to points do
    let r = lattice_cut *. float_of_int i /. float_of_int points in
    let ev f = Oqmc_spline.Cubic_spline_1d.evaluate f r in
    Printf.printf "%8.3f %10.5f %10.5f %10.5f %10.5f\n" r (ev uu) (ev ud)
      (ev ni_f) (ev o_f)
  done;
  Printf.printf
    "\nshape checks: u_ud(0) > u_uu(0) (cusp -1/2 vs -1/4), all functors \
     -> 0 at the cutoff,\nion functors attractive and deeper/shorter for \
     Ni than O — as in the paper's figure.\n"

let fig2 () =
  Report.section
    "Figure 2: normalized hot-spot profiles, NiO benchmarks, Ref vs \
     Current (KNL)";
  List.iter
    (fun spec ->
      Report.subsection (spec.Spec.wname ^ " — measured (OCaml engines, scaled)");
      let runs =
        measured_runs ~with_nlpp:true spec [ Variant.Ref; Variant.Current ]
      in
      Report.print_profile_header ();
      List.iter
        (fun (v, r) ->
          Report.print_profile ~label:(Variant.to_string v) r.Measured.profile)
        runs;
      (match runs with
      | [ (_, rref); (_, rcur) ] ->
          Printf.printf "measured OCaml speedup (Current/Ref): %.2fx\n"
            (rcur.Measured.throughput /. rref.Measured.throughput)
      | _ -> ());
      Report.subsection (spec.Spec.wname ^ " — projected on KNL (full size)");
      Report.print_profile_header ();
      List.iter
        (fun variant ->
          let pts =
            Roofline.project_all Machine.knl (model_costs ~variant spec)
          in
          Report.print_profile
            ~label:(Variant.to_string variant)
            (Roofline.profile pts))
        [ Variant.Ref; Variant.Current ];
      Printf.printf "projected KNL speedup: %.2fx  (paper: %s)\n"
        (model_speedup Machine.knl spec)
        (match spec.Spec.wname with
        | "NiO-32" -> "2.4x"
        | "NiO-64" -> "2.4x"
        | _ -> "-"))
    [ Spec.nio32; Spec.nio64 ];
  Printf.printf
    "\npaper: Ref profiles are dominated by DistTable+J2 (close to 50%%); \
     Current shrinks them\nand DetUpdate's share grows (7%% -> 10%% on \
     NiO-64).\n"

let fig7 () =
  Report.section
    "Figure 7: hot-spot profile and roofline of NiO-32 on BDW";
  let spec = Spec.nio32 in
  Report.subsection "roofline points (model, full size)";
  Printf.printf "%-10s %-12s %8s %10s %12s %12s\n" "variant" "kernel" "AI"
    "GFLOPS" "roof@AI" "time(ms)";
  List.iter
    (fun variant ->
      let pts = Roofline.project_all Machine.bdw (model_costs ~variant spec) in
      List.iter
        (fun p ->
          if p.Roofline.time_s > 0. then
            Printf.printf "%-10s %-12s %8.2f %10.1f %12.1f %12.3f\n"
              (Variant.to_string variant)
              p.Roofline.kernel p.Roofline.ai p.Roofline.gflops
              p.Roofline.attainable
              (1e3 *. p.Roofline.time_s))
        pts)
    [ Variant.Ref; Variant.Current ];
  Report.subsection "measured OCaml profile (scaled)";
  let runs =
    measured_runs ~with_nlpp:true spec [ Variant.Ref; Variant.Current ]
  in
  Report.print_profile_header ();
  List.iter
    (fun (v, r) ->
      Report.print_profile ~label:(Variant.to_string v) r.Measured.profile)
    runs;
  Printf.printf
    "\npaper: Current moves every kernel up in both AI and GFLOPS; all \
     four kernels end above\nthe (DDR-referenced) roofline once they fit \
     L3.  Kernel speedups on BDW: 5x DistTable,\n8x Jastrow, 1.7x \
     Bspline-vgh, 1.3x Bspline-v.\n"

let kernels () =
  Report.section
    "Sec. 8.1 kernel speedups (NiO-32): measured OCaml ratios and \
     projected BDW ratios";
  let spec = Spec.nio32 in
  Report.subsection "measured (OCaml, scaled; Current vs Ref)";
  (match measured_runs ~with_nlpp:true spec [ Variant.Ref; Variant.Current ] with
  | [ (_, rref); (_, rcur) ] ->
      List.iter
        (fun (k, s) -> Printf.printf "  %-12s %6.2fx\n" k s)
        (Measured.kernel_speedups rref rcur)
  | _ -> ());
  Report.subsection "projected on BDW (full size)";
  let pr = Roofline.project_all Machine.bdw (model_costs ~variant:Variant.Ref spec) in
  let pc =
    Roofline.project_all Machine.bdw (model_costs ~variant:Variant.Current spec)
  in
  List.iter2
    (fun a b ->
      if a.Roofline.time_s > 0. && b.Roofline.time_s > 0. then
        Printf.printf "  %-12s %6.2fx\n" a.Roofline.kernel
          (a.Roofline.time_s /. b.Roofline.time_s))
    pr pc;
  Printf.printf
    "paper (BDW): DistTable 5x, Jastrow 8x, Bspline-vgh 1.7x, Bspline-v \
     1.3x, DetUpdate >2x\n"

let fig8 () =
  Report.section
    "Figure 8: speedup and memory of NiO benchmarks (Ref / Ref+MP / \
     Current)";
  List.iter
    (fun (spec : Spec.t) ->
      Report.subsection (spec.Spec.wname ^ " — measured (OCaml, scaled)");
      let runs =
        measured_runs ~with_nlpp:true spec
          [ Variant.Ref; Variant.Ref_mp; Variant.Current ]
      in
      (match runs with
      | (_, rref) :: _ ->
          List.iter
            (fun (v, r) ->
              Printf.printf
                "  %-12s throughput %5.2fx   engine memory %8.2f MB   \
                 walker %6.1f kB\n"
                (Variant.to_string v)
                (r.Measured.throughput /. rref.Measured.throughput)
                (float_of_int r.Measured.memory_bytes /. 1e6)
                (float_of_int r.Measured.walker_bytes /. 1024.))
            runs
      | [] -> ());
      Report.subsection (spec.Spec.wname ^ " — projected speedups (full size)");
      List.iter
        (fun machine ->
          List.iter
            (fun variant ->
              let s =
                Roofline.speedup machine
                  ~ref_costs:(model_costs ~variant:Variant.Ref spec)
                  ~cur_costs:(model_costs ~variant spec)
              in
              Printf.printf "  %-5s %-12s %5.2fx\n" machine.Machine.mname
                (Variant.to_string variant) s)
            [ Variant.Ref_mp; Variant.Current ])
        [ Machine.bdw; Machine.knl ];
      Report.subsection (spec.Spec.wname ^ " — modeled footprint (full size)");
      let bspline_bytes =
        int_of_float (Spec.bspline_gb spec *. 1e9)
      in
      List.iter
        (fun (mach, threads, walkers) ->
          List.iter
            (fun (kind, label) ->
              let f =
                Memory_model.footprint ~label kind ~n:spec.Spec.n
                  ~n_ion:spec.Spec.n_ion ~n_spo_total:spec.Spec.n_spos
                  ~bspline_bytes ~threads ~walkers
              in
              Printf.printf "  %-5s %-8s total %6.1f GB (B-spline %.2f, \
                             engines %.2f, walkers %.2f)\n"
                mach label f.Memory_model.total_gb f.Memory_model.bspline_gb
                (float_of_int threads *. f.Memory_model.per_thread_gb)
                (float_of_int walkers *. f.Memory_model.per_walker_gb))
            [ (`Ref, "Ref"); (`Ref_mp, "Ref+MP"); (`Current, "Current") ])
        [ ("BDW", 40, 1040); ("KNL", 128, 1024) ])
    [ Spec.nio32; Spec.nio64 ];
  Printf.printf
    "\npaper: Ref+MP gains 1.3x (NiO-32) / 2.5x (NiO-64) on BDW, 1.16x / \
     1.3x on KNL; Current\nmore than doubles Ref+MP on both machines.  \
     NiO-64 memory drops by 36 GB, fitting KNL's\n16 GB MCDRAM in flat \
     mode (Current gains ~3%% from cache->flat; not modeled separately).\n"

let fig9 () =
  Report.section "Figure 9: memory usage on KNL, all four workloads";
  Printf.printf "%-9s %12s %12s %12s\n" "workload" "Ref(GB)" "Current(GB)"
    "saved(GB)";
  List.iter
    (fun (spec : Spec.t) ->
      let bspline_bytes = int_of_float (Spec.bspline_gb spec *. 1e9) in
      let f kind label =
        Memory_model.footprint ~label kind ~n:spec.Spec.n
          ~n_ion:spec.Spec.n_ion ~n_spo_total:spec.Spec.n_spos ~bspline_bytes
          ~threads:128 ~walkers:1024
      in
      let r = f `Ref "Ref" and c = f `Current "Current" in
      Printf.printf "%-9s %12.1f %12.1f %12.1f\n" spec.Spec.wname
        r.Memory_model.total_gb c.Memory_model.total_gb
        (r.Memory_model.total_gb -. c.Memory_model.total_gb))
    Spec.all;
  Printf.printf
    "\npaper: 36 GB saved on NiO-64; Current totals fit a BG/Q node's 16 \
     GB.\nMeasured (scaled) engine footprints are in the Fig. 8 block.\n"

let fig1 () =
  Report.section
    "Figure 1: strong scaling of NiO-64 (model over projected single-node \
     step times)";
  let spec = Spec.nio64 in
  let pop = 131072 in
  let msg kind =
    Memory_model.walker_bytes kind ~n:spec.Spec.n ~n_ion:spec.Spec.n_ion
      ~n_spo:(spec.Spec.n / 2)
  in
  let series =
    [
      ("KNL-Current", Machine.knl, Variant.Current, Scaling.aries, 128, `Current);
      ("KNL-Ref", Machine.knl, Variant.Ref, Scaling.aries, 128, `Ref);
      ("BDW-Current", Machine.bdw, Variant.Current, Scaling.omnipath, 36, `Current);
      ("BDW-Ref", Machine.bdw, Variant.Ref, Scaling.omnipath, 36, `Ref);
    ]
  in
  let node_counts = [ 16; 32; 64; 128; 256; 512; 1024 ] in
  let results =
    List.map
      (fun (label, machine, variant, net, threads, kind) ->
        let step = model_step_time machine ~variant spec in
        let pts =
          Scaling.strong_scaling ~threads_per_node:threads ~net
            ~target_population:pop ~step_time_1walker:step
            ~walker_message_bytes:(msg kind) ~node_counts ()
        in
        (label, pts))
      series
  in
  (* Normalize by Ref on BDW with 64 sockets, as in the paper. *)
  let norm =
    match List.assoc_opt "BDW-Ref" results with
    | Some pts ->
        (List.find (fun p -> p.Scaling.nodes = 64) pts).Scaling.throughput
    | None -> 1.
  in
  Printf.printf "%-8s" "nodes";
  List.iter (fun (label, _) -> Printf.printf " %14s" label) results;
  print_newline ();
  List.iter
    (fun nodes ->
      Printf.printf "%-8d" nodes;
      List.iter
        (fun (_, pts) ->
          match List.find_opt (fun p -> p.Scaling.nodes = nodes) pts with
          | Some p -> Printf.printf " %14.2f" (p.Scaling.throughput /. norm)
          | None -> Printf.printf " %14s" "-")
        results;
      print_newline ())
    node_counts;
  List.iter
    (fun (label, pts) ->
      let last = List.nth pts (List.length pts - 1) in
      Printf.printf "%-14s parallel efficiency at 1024 nodes: %.1f%%\n" label
        (100. *. last.Scaling.efficiency))
    results;
  Printf.printf
    "\npaper: 90%% (KNL) and 98%% (BDW) at 1024 nodes/sockets; Current/Ref \
     gap of 2-4.5x\ncarries over from the single-node speedup with nearly \
     ideal slopes.\n"

let fig10 () =
  Report.section "Figure 10: energy usage of NiO-32 on KNL (power model)";
  let spec = Spec.nio32 in
  let speedup = model_speedup Machine.knl spec in
  (* Nominal Ref DMC phase of 1000 s; Current finishes 'speedup' faster. *)
  let ref_dmc = 1000. and init = 60. in
  let cur_dmc = ref_dmc /. speedup in
  let pr =
    Energy.profile ~label:"Ref" ~machine:Machine.knl ~init_time:init
      ~dmc_time:ref_dmc ()
  in
  let pc =
    Energy.profile ~label:"Current" ~machine:Machine.knl ~init_time:init
      ~dmc_time:cur_dmc ()
  in
  List.iter
    (fun (p : Energy.profile) ->
      let peek =
        List.filteri (fun i _ -> i mod 40 = 0) p.Energy.samples
      in
      Printf.printf "%-8s power trace (t[s], W):" p.Energy.label;
      List.iter
        (fun s -> Printf.printf " (%.0f, %.0f)" s.Energy.t_s s.Energy.watts)
        peek;
      Printf.printf "\n%-8s total energy %.2f MJ over %.0f s\n" p.Energy.label
        (p.Energy.total_joules /. 1e6)
        (p.Energy.dmc_seconds +. init))
    [ pr; pc ];
  Printf.printf
    "energy reduction Ref/Current: %.2fx (speedup %.2fx)\n"
    (Energy.energy_ratio ~ref_profile:pr ~cur_profile:pc)
    speedup;
  Printf.printf
    "\npaper: power is flat at 210-215 W during DMC for both versions, so \
     the energy\nreduction matches the speedup.  Model plateau: %.0f W.\n"
    (Energy.dmc_power Machine.knl)

let table2 () =
  Report.section
    "Table 2: speedup of Current over Ref on BG/Q, BDW and KNL";
  Printf.printf "%-7s %9s %9s %9s %9s\n" "" "Graphite" "Be-64" "NiO-32"
    "NiO-64";
  List.iter
    (fun machine ->
      Printf.printf "%-7s" machine.Machine.mname;
      List.iter
        (fun spec -> Printf.printf " %9.1f" (model_speedup machine spec))
        Spec.all;
      print_newline ())
    [ Machine.bgq; Machine.bdw; Machine.knl ];
  Printf.printf
    "paper:  BG/Q 1.6 1.3 1.3 2.4 | BDW 2.9 3.4 2.6 5.2 | KNL 2.2 2.9 2.4 \
     2.4\n";
  Report.subsection "measured OCaml speedups (scaled workloads, Current vs Ref)";
  List.iter
    (fun (spec : Spec.t) ->
      match
        measured_runs ~with_nlpp:false ~sweeps:15 spec
          [ Variant.Ref; Variant.Current ]
      with
      | [ (_, rref); (_, rcur) ] ->
          Printf.printf "  %-9s %5.2fx\n" spec.Spec.wname
            (rcur.Measured.throughput /. rref.Measured.throughput)
      | _ -> ())
    Spec.all;
  Printf.printf
    "(OCaml has no SIMD, so the measured column shows the \
     layout/precision/algorithm effects\nonly; the modeled matrix adds the \
     vectorization effects per machine.)\n"

let smt () =
  Report.section
    "Sec. 8.2 hyperthreading study (NiO-32, Current): throughput gain of 2 \
     threads/core";
  List.iter
    (fun machine ->
      Printf.printf "  %-5s +%.1f%%\n" machine.Machine.mname
        (100. *. (machine.Machine.smt_uplift -. 1.)))
    [ Machine.bdw; Machine.knl ];
  Printf.printf
    "paper: +10%% (BDW), +8.5%% (KNL); 3-4 threads/core on KNL bring no \
     further gain.\n"

let ddr () =
  Report.section
    "Sec. 8.2 DDR-only slowdown of Current on KNL (numactl -m 0)";
  let slowdown spec ~small =
    let costs = model_costs ~variant:Variant.Current spec in
    let t_mcdram =
      Roofline.total_time (Roofline.project_all Machine.knl costs)
    in
    (* DDR-only: Dram-level kernels (the B-spline streams) always drop to
       DDR; the compact Cache-hinted tables survive in the L2s for the
       smaller problem but spill for the larger one. *)
    let t_ddr =
      List.fold_left
        (fun acc c ->
          let level =
            match c.Opcount.level with
            | Opcount.Dram -> Some 1
            | Opcount.Cache -> if small then None else Some 1
          in
          acc +. (Roofline.project ?level Machine.knl c).Roofline.time_s)
        0. costs
    in
    t_ddr /. t_mcdram
  in
  Printf.printf "  NiO-32 slowdown: %.1fx (paper: 2.3x)\n"
    (slowdown Spec.nio32 ~small:true);
  Printf.printf "  NiO-64 slowdown: %.1fx (paper: 5.4x)\n"
    (slowdown Spec.nio64 ~small:false)

let delayed () =
  Report.section
    "Sec. 8.4 delayed-update DetUpdate ablation (measured, OCaml)";
  let module M = Oqmc_containers.Matrix.Make (Precision.F64) in
  let module A = Oqmc_containers.Aligned.Make (Precision.F64) in
  let module L = Oqmc_linalg.Lu.Make (Precision.F64) in
  let module Sm = Oqmc_linalg.Sherman_morrison.Make (Precision.F64) in
  let module Du = Oqmc_linalg.Delayed_update.Make (Precision.F64) in
  let rng = Oqmc_rng.Xoshiro.create 99 in
  let bench n delay =
    let mat =
      M.init n n (fun i j ->
          Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.
          +. if i = j then 4. else 0.)
    in
    let binv = M.create n n in
    ignore (L.invert_transpose ~src:mat ~dst:binv);
    let v = A.create n in
    let fill_v () =
      for j = 0 to n - 1 do
        A.set v j
          (Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.
          +. if j = 0 then 2. else 0.)
      done
    in
    let sweeps = max 1 (2000 / n) in
    let t0 = Timers.now () in
    (match delay with
    | None ->
        let ws = Sm.make_workspace n in
        for _ = 1 to sweeps do
          for k = 0 to n - 1 do
            fill_v ();
            let r = Sm.ratio binv k v in
            if abs_float r > 0.05 then Sm.update_row binv k v ~ratio:r ~ws
          done
        done
    | Some d ->
        let du = Du.create ~delay:d binv in
        for _ = 1 to sweeps do
          for k = 0 to n - 1 do
            fill_v ();
            let r = Du.ratio du k v in
            if abs_float r > 0.05 then Du.accept du k v
          done;
          Du.flush du
        done);
    (Timers.now () -. t0) /. float_of_int (sweeps * n)
  in
  Printf.printf "%6s %14s" "N" "SM(us/move)";
  List.iter (fun d -> Printf.printf " %10s" (Printf.sprintf "k=%d" d))
    [ 4; 8; 16; 32 ];
  print_newline ();
  List.iter
    (fun n ->
      let t_sm = bench n None in
      Printf.printf "%6d %14.2f" n (1e6 *. t_sm);
      List.iter
        (fun d ->
          let t = bench n (Some d) in
          Printf.printf " %10.2f" (1e6 *. t))
        [ 4; 8; 16; 32 ];
      print_newline ())
    [ 64; 128; 256; 512 ];
  Printf.printf
    "\nanalysis: per accepted move, Sherman-Morrison streams the N^2 \
     inverse twice (gemv + ger);\nthe delayed scheme streams it 2/k times \
     plus O(kN) ratio corrections -- the flop counts are\nequal, so the \
     benefit is memory traffic and BLAS3 vectorization.  On this host the \
     inverse\nfits in cache at these N (and OCaml has no SIMD), so the \
     measured numbers show only the\nscheme's bookkeeping overhead; on \
     the paper's machines the blocked flush is what keeps\nDetUpdate from \
     dominating at large N (Sec. 8.4, McDaniel 2016).  Memory-traffic \
     model:\nSM moves 2N^2 elements/accept, delayed 2N^2/k + 2kN -- a \
     %.0fx traffic reduction at N=512, k=16.\n"
    (let n = 512. and k = 16. in
     (2. *. n *. n) /. ((2. *. n *. n /. k) +. (2. *. k *. n)))

let ewald () =
  Report.section
    "Ablation: minimum-image vs Ewald electrostatics (measured, OCaml)";
  let module L = Oqmc_particle.Lattice in
  Printf.printf "%6s %16s %16s %10s\n" "N" "min-image(us)" "ewald(us)"
    "G-vecs";
  List.iter
    (fun n ->
      let lattice = L.cubic 8. in
      let rng = Oqmc_rng.Xoshiro.create 5 in
      let pos =
        Array.init n (fun _ ->
            Vec3.make
              (Oqmc_rng.Xoshiro.uniform_range rng ~lo:0. ~hi:8.)
              (Oqmc_rng.Xoshiro.uniform_range rng ~lo:0. ~hi:8.)
              (Oqmc_rng.Xoshiro.uniform_range rng ~lo:0. ~hi:8.))
      in
      let charges = Array.init n (fun i -> if i land 1 = 0 then 1. else -1.) in
      let ew = Oqmc_hamiltonian.Ewald.create ~lattice ~charges () in
      let reps = max 3 (3000 / n) in
      let t0 = Timers.now () in
      for _ = 1 to reps do
        ignore (Oqmc_hamiltonian.Ewald.energy ew ~position:(fun i -> pos.(i)))
      done;
      let t_ew = (Timers.now () -. t0) /. float_of_int reps in
      let t0 = Timers.now () in
      for _ = 1 to reps do
        let acc = ref 0. in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let d = L.min_image_dist lattice pos.(i) pos.(j) in
            if d > 0. then acc := !acc +. (charges.(i) *. charges.(j) /. d)
          done
        done;
        ignore !acc
      done;
      let t_mi = (Timers.now () -. t0) /. float_of_int reps in
      Printf.printf "%6d %16.1f %16.1f %10d\n" n (1e6 *. t_mi) (1e6 *. t_ew)
        (Oqmc_hamiltonian.Ewald.n_gvectors ew))
    [ 32; 64; 128; 256 ];
  print_newline ();
  print_endline
    "Full periodic electrostatics costs a constant-factor premium (the \
     reciprocal sum) over";
  print_endline
    "the minimum-image shortcut; production QMC amortizes it with \
     optimized-breakup tables.";
  print_endline
    "Correctness anchor: the Ewald module reproduces the NaCl Madelung \
     constant to 2e-4"

let all () =
  table1 ();
  fig1 ();
  fig2 ();
  fig3 ();
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  table2 ();
  kernels ();
  smt ();
  ddr ();
  delayed ();
  ewald ()

let by_name = function
  | "table1" -> table1
  | "fig1" -> fig1
  | "fig2" -> fig2
  | "fig3" -> fig3
  | "fig7" -> fig7
  | "fig8" -> fig8
  | "fig9" -> fig9
  | "fig10" -> fig10
  | "table2" -> table2
  | "kernels" -> kernels
  | "smt" -> smt
  | "ddr" -> ddr
  | "delayed" -> delayed
  | "ewald" -> ewald
  | "simd" -> Simd_bench.run
  | "all" -> all
  | s -> invalid_arg (Printf.sprintf "unknown experiment %S" s)
