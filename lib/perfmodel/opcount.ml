(* Analytic per-kernel operation and byte counts for one DMC step of one
   walker (a full particle-by-particle sweep plus measurement), derived by
   inspection of the kernels in lib/particle and lib/wavefunction.  These
   are properties of the algorithms — flops and bytes do not depend on the
   machine — and feed the roofline (Fig. 7) and the cross-platform
   projections (Table 2).

   Each kernel carries two efficiency constants — [eff], the fraction of
   the machine's (precision-appropriate) peak it reaches when
   compute-bound, and [stream], the fraction of a memory level's STREAM
   bandwidth it reaches when memory-bound — plus [vectorized], which
   controls whether the machine's scalar-issue penalty applies.  These
   are the model's only calibration constants; they are set so the BDW
   per-kernel speedups land near the paper's measured 5x / 8x / 1.7x /
   1.3x (Sec. 8.1), and are machine-independent. *)

type level_hint = Cache | Dram

type kernel_cost = {
  kernel : string;
  flops : float;
  bytes : float;
  eff : float;
      (* compute-bound efficiency: fraction of the precision peak for
         vectorized kernels, fraction of the scalar-issue peak otherwise *)
  stream : float; (* fraction of STREAM bandwidth when memory-bound *)
  vectorized : bool;
  single : bool; (* storage precision of the streamed data *)
  level : level_hint;
      (* which memory level bounds the kernel: [Cache] for compact
         working sets (Current tables, determinant inverses), [Dram] for
         ones that spill (Ref stored state, the shared B-spline table) *)
}

type params = {
  n : int; (* electrons *)
  n_ion : int;
  n_spo : int; (* orbitals per spin determinant *)
  elt_bytes : int; (* 4 (MP) or 8 (double) for the key structures *)
  layout : [ `Store | `Otf ];
  acceptance : float; (* fraction of accepted moves *)
  nlpp_evals : float; (* value-only SPO evaluations per sweep *)
  tile : int; (* ignored; kept for perfbench/src/driver.ml's record *)
}

let default_acceptance = 0.5

(* Per-element costs of a distance-row evaluation (subtract, minimum
   image, square, sqrt). *)
let dist_flops = 18.

let step_costs (p : params) =
  let n = float_of_int p.n in
  let ni = float_of_int p.n_ion in
  let m = float_of_int p.n_spo in
  let s = float_of_int p.elt_bytes in
  let single = p.elt_bytes = 4 in
  let acc = p.acceptance in
  let spline_flops = 14. in
  match p.layout with
  | `Otf ->
      [
        (* prepare + temp rows per move, full re-evaluate at measurement;
           contiguous SIMD rows. *)
        {
          kernel = "DistTable";
          flops = dist_flops *. ((n *. ((2. *. n) +. ni)) +. (n *. n));
          bytes = 7. *. s *. ((n *. ((2. *. n) +. ni)) +. (n *. n));
          eff = 0.35;
          stream = 0.3;
          vectorized = true;
          single;
          level = Cache;
        };
        (* two spline rows per move (old + new), 5N accumulator updates on
           acceptance. *)
        {
          kernel = "J2";
          flops = (spline_flops *. 2. *. n *. n) +. (acc *. 10. *. n *. n);
          bytes = (2. *. n *. n *. (s +. 8.)) +. (acc *. n *. 5. *. 8.);
          eff = 0.22;
          stream = 0.12;
          vectorized = true;
          single;
          level = Cache;
        };
        {
          kernel = "J1";
          flops = spline_flops *. 2. *. n *. ni;
          bytes = 2. *. n *. ni *. (s +. 8.);
          eff = 0.22;
          stream = 0.12;
          vectorized = true;
          single;
          level = Cache;
        };
        {
          kernel = "Bspline-v";
          flops = p.nlpp_evals *. 64. *. m *. 2.;
          bytes = p.nlpp_evals *. 64. *. m *. 4.;
          eff = 0.10;
          stream = 0.52;
          vectorized = true;
          single = true;
          level = Dram;
        };
        {
          kernel = "Bspline-vgh";
          flops = n *. 64. *. m *. 20.;
          bytes = n *. 64. *. m *. 4.;
          eff = 0.13;
          stream = 0.27;
          vectorized = true;
          single = true;
          level = Dram;
        };
        {
          kernel = "SPO-vgl";
          flops = (n *. 64. *. m *. 20.) +. (n *. 10. *. m);
          bytes = n *. ((64. *. m *. 4.) +. (m *. s));
          eff = 0.13;
          stream = 0.27;
          vectorized = true;
          single = true;
          level = Dram;
        };
        (* ratio dots for every move and NLPP evaluation; Sherman–Morrison
           rank-1 on acceptance. *)
        {
          kernel = "DetUpdate";
          flops =
            ((n +. p.nlpp_evals) *. 2. *. m) +. (acc *. n *. 4. *. m *. m);
          bytes = ((n +. p.nlpp_evals) *. m *. s) +. (acc *. n *. 3. *. m *. m *. s);
          eff = 0.25;
          stream = 0.7;
          vectorized = true;
          single;
          level = Cache;
        };
      ]
  | `Store ->
      [
        (* temp rows per move + scattered triangle copies on acceptance;
           strided AoS access defeats vectorization. *)
        {
          kernel = "DistTable";
          flops = dist_flops *. n *. (n +. ni);
          bytes =
            (7. *. s *. n *. (n +. ni)) +. (acc *. n *. n *. 8. *. s);
          eff = 0.045;
          stream = 0.15;
          vectorized = false;
          single;
          level = Dram;
        };
        (* new row computed, old values retrieved from the 5N² store; row
           and column rewritten on acceptance. *)
        {
          kernel = "J2";
          flops = spline_flops *. n *. n;
          bytes =
            (n *. n *. (s +. 8.)) +. (n *. n *. s)
            +. (acc *. n *. 10. *. n *. s)
            +. (5. *. n *. n *. s) (* measurement reads the matrices *);
          eff = 0.045;
          stream = 0.22;
          vectorized = false;
          single;
          level = Dram;
        };
        {
          kernel = "J1";
          flops = spline_flops *. n *. ni;
          bytes = (2. *. n *. ni *. (s +. 8.)) +. (acc *. n *. 5. *. ni *. s);
          eff = 0.045;
          stream = 0.22;
          vectorized = false;
          single;
          level = Dram;
        };
        {
          kernel = "Bspline-v";
          flops = p.nlpp_evals *. 64. *. m *. 2.;
          bytes = p.nlpp_evals *. 64. *. m *. 4.;
          eff = 0.08;
          stream = 0.4;
          vectorized = true;
          single = true;
          level = Dram;
        };
        {
          kernel = "Bspline-vgh";
          flops = n *. 64. *. m *. 20.;
          bytes = n *. 64. *. m *. 4. *. 2.5 (* AoS outputs spill *);
          eff = 0.08;
          stream = 0.4;
          vectorized = true;
          single = true;
          level = Dram;
        };
        {
          kernel = "SPO-vgl";
          flops = (n *. 64. *. m *. 20.) +. (n *. 10. *. m);
          bytes = n *. ((64. *. m *. 4. *. 2.5) +. (m *. s));
          eff = 0.08;
          stream = 0.4;
          vectorized = true;
          single = true;
          level = Dram;
        };
        {
          kernel = "DetUpdate";
          flops =
            ((n +. p.nlpp_evals) *. 2. *. m) +. (acc *. n *. 4. *. m *. m);
          bytes =
            ((n +. p.nlpp_evals) *. m *. s) +. (acc *. n *. 3. *. m *. m *. s);
          eff = 0.25;
          stream = 0.7;
          vectorized = true;
          single;
          level = Cache;
        };
      ]

let arithmetic_intensity c = if c.bytes > 0. then c.flops /. c.bytes else 0.

let total_flops costs = List.fold_left (fun a c -> a +. c.flops) 0. costs
let total_bytes costs = List.fold_left (fun a c -> a +. c.bytes) 0. costs

(* Estimated number of value-only SPO evaluations a pseudopotential
   workload performs per sweep: electrons within the PP cutoff of an ion
   each cost a 12-point quadrature shell. *)
let nlpp_evals_estimate ~n ~has_pp =
  if has_pp then 0.5 *. float_of_int n else 0.
