open Oqmc_containers
open Oqmc_particle
open Oqmc_spline

(* Two-body Jastrow factor, log ψ = −Σ_{i<j} u_{σᵢσⱼ}(r_ij), with a radial
   B-spline functor per spin pair.

   Two complete implementations (the heart of the paper's J2 story):

   [create_ref] — the store-over-compute baseline.  Keeps full N×N matrices
   of pair values, gradients (interleaved AoS) and laplacian terms — the
   5N² scalars per walker the paper calls out — reads old values back from
   the matrices during ratios, and updates both the row and the column of
   all three matrices on every accepted move.  Works off the packed
   triangular Ref distance table and serializes the whole 5N² block into
   the walker buffer.

   [create_opt] — the compute-on-the-fly design.  Keeps only the 5N
   per-electron accumulators U_k, ∇U_k, ∇²U_k; every ratio recomputes the
   old and new pair rows from the SoA distance table, and acceptance
   updates the accumulators incrementally.  The walker buffer shrinks to
   5N scalars.  Its rows and sums are C (jastrow_kernels_stubs.c, built
   like the distance-table rows): one call per crowd stage evaluates the
   spline rows of every slot (one run per species pair) and their sums,
   reading the table's rows in place; the scalar component closures call
   the same kernel on a one-slot array.  The OCaml loops it replaced are
   the bit-for-bit test oracles ([test/jastrow_oracle.ml]).

   [create_ref] is still OCaml. *)

module Make (R : Precision.REAL) (D : Precision.REAL) = struct
  module W = Wfc.Make (R)
  module Ps = W.Ps
  module A = Aligned.Make (R)
  module Dref = Dt_aa_ref.Make (R)
  module Dsoa = Dt_aa_soa.Make (R) (D)
  module Ad = Dsoa.A

  type functors = Cubic_spline_1d.t array array
  (* indexed by [species_i][species_j]; must be symmetric *)

  let check_functors (ps : Ps.t) (f : functors) =
    let ns = Ps.n_species ps in
    if Array.length f <> ns then
      invalid_arg "Jastrow_two: functor matrix does not match species";
    Array.iter
      (fun row ->
        if Array.length row <> ns then
          invalid_arg "Jastrow_two: functor matrix not square")
      f

  (* u, u'/r and the laplacian stencil u'' + 2u'/r at distance [r];
     all zero at/beyond the cutoff (including r = 0 padding entries,
     which consumers mask out). *)
  let eval_u (fn : Cubic_spline_1d.t) r =
    if r <= 0. || r >= Cubic_spline_1d.cutoff fn then (0., 0., 0.)
    else begin
      let u, du, d2u = Cubic_spline_1d.evaluate_vgl fn r in
      (u, du /. r, d2u +. (2. *. du /. r))
    end

  (* ------------------------------------------------------------------ *)
  (* Optimized implementation                                            *)
  (* ------------------------------------------------------------------ *)

  (* The compute-on-the-fly state, exposed as a record so the scalar
     component closures and the crowd batch kernels share one C kernel
     (shared code is what makes batch vs scalar bit-identity structural
     rather than coincidental).  jastrow_kernels_stubs.c reads the fields
     by index: keep the order of the first 27 in step with it. *)
  type opt = {
    n : int;
    ld : int; (* table row stride: row k starts at k * ld *)
    (* The table's row storage and its temporary (proposed) row. *)
    dist : Ad.t;
    dx : Ad.t;
    dy : Ad.t;
    dz : Ad.t;
    tdist : Ad.t;
    tdx : Ad.t;
    tdy : Ad.t;
    tdz : Ad.t;
    functors : functors;
    spec : int array;
    (* Maximal same-species electron runs: one spline row per run. *)
    run_lo : int array;
    run_n : int array;
    run_sp : int array;
    (* Per-electron accumulators: U_k and the gradient/laplacian of
       log ψ. *)
    uat : float array;
    jgx : float array;
    jgy : float array;
    jgz : float array;
    jlap : float array;
    (* u, f = u'/r, l rows of the proposed and the old configuration,
       kept from the ratio call for the accept. *)
    un : float array;
    fn_ : float array;
    ln_ : float array;
    uo : float array;
    fo : float array;
    lo : float array;
    res : float array;
        (* the ratio call's result: Σ old u − Σ new u, then Σ f·dr *)
    table : Dsoa.t;
    ps : Ps.t;
  }

  (* Maximal runs of equal values in [spec] (electrons are laid out
     species by species, so this is one run per species; the construction
     does not rely on it). *)
  let species_runs (spec : int array) =
    let runs = ref [] in
    let i = ref 0 in
    let len = Array.length spec in
    while !i < len do
      let j = ref !i in
      while !j < len && spec.(!j) = spec.(!i) do incr j done;
      runs := (!i, !j - !i, spec.(!i)) :: !runs;
      i := !j
    done;
    Array.of_list (List.rev !runs)

  let make_opt ~(table : Dsoa.t) ~(functors : functors) (ps : Ps.t) : opt =
    check_functors ps functors;
    let n = Ps.n ps in
    let spec = Array.init n (fun i -> Ps.species_index ps i) in
    let runs = species_runs spec in
    let z () = Array.make n 0. in
    {
      n;
      ld = Dsoa.row_stride table;
      dist = Dsoa.dist_data table;
      dx = Dsoa.dx_data table;
      dy = Dsoa.dy_data table;
      dz = Dsoa.dz_data table;
      tdist = Dsoa.temp_dist table;
      tdx = Dsoa.temp_dx table;
      tdy = Dsoa.temp_dy table;
      tdz = Dsoa.temp_dz table;
      functors;
      spec;
      run_lo = Array.map (fun (lo, _, _) -> lo) runs;
      run_n = Array.map (fun (_, rn, _) -> rn) runs;
      run_sp = Array.map (fun (_, _, sp) -> sp) runs;
      uat = z ();
      jgx = z ();
      jgy = z ();
      jgz = z ();
      jlap = z ();
      un = z ();
      fn_ = z ();
      ln_ = z ();
      uo = z ();
      fo = z ();
      lo = z ();
      res = Array.make 4 0.;
      table;
      ps;
    }

  let sum st (arr : float array) =
    let acc = ref 0. in
    for i = 0 to st.n - 1 do
      acc := !acc +. arr.(i)
    done;
    !acc

  (* ---- the C kernel: one call per crowd stage ---- *)

  (* For slots [0, m): electron k's old row (table) and proposed row
     (temporary row) into the scratch, [res] = [Σ uo − Σ un; Σ fn·dr]. *)
  external c_ratio : opt array -> int -> int -> unit = "oqmc_j2_ratio"
  [@@noalloc]

  (* For each slot s < m with [acc.(s)]: the incremental update of
     every electron's accumulators from the rows the ratio call left in
     scratch; must run before the table accepts. *)
  external c_accept : opt array -> int -> int -> bool array -> unit
    = "oqmc_j2_accept"
  [@@noalloc]

  (* Every electron's accumulators from its table row. *)
  external c_evaluate : opt -> unit = "oqmc_j2_evaluate" [@@noalloc]

  let check_stage (sts : opt array) ~k ~m =
    if m < 0 || m > Array.length sts then invalid_arg "Jastrow_two: m";
    for s = 0 to m - 1 do
      if k < 0 || k >= sts.(s).n then invalid_arg "Jastrow_two: electron"
    done

  (* ---- crowd batch kernels: one fused call per stage per crowd ---- *)

  let ratio_grad_batch (sts : opt array) ~k ~m ~(ratio : float array)
      ~(gx : float array) ~(gy : float array) ~(gz : float array) =
    check_stage sts ~k ~m;
    c_ratio sts k m;
    for s = 0 to m - 1 do
      let r = sts.(s).res in
      ratio.(s) <- ratio.(s) *. exp r.(0);
      gx.(s) <- gx.(s) +. r.(1);
      gy.(s) <- gy.(s) +. r.(2);
      gz.(s) <- gz.(s) +. r.(3)
    done

  let grad_batch (sts : opt array) ~k ~m ~(gx : float array)
      ~(gy : float array) ~(gz : float array) =
    for s = 0 to m - 1 do
      let st = sts.(s) in
      gx.(s) <- gx.(s) +. st.jgx.(k);
      gy.(s) <- gy.(s) +. st.jgy.(k);
      gz.(s) <- gz.(s) +. st.jgz.(k)
    done

  let accept_batch (sts : opt array) ~k ~m ~(acc : bool array) =
    check_stage sts ~k ~m;
    if Array.length acc < m then invalid_arg "Jastrow_two: acc";
    c_accept sts k m acc

  (* ---- the W.t component over an [opt] state ---- *)

  let opt_component (st : opt) : W.t =
    let n = st.n in
    let one = [| st |] and yes = [| true |] in
    let evaluate_log _ps =
      Dsoa.evaluate st.table st.ps;
      c_evaluate st;
      -0.5 *. sum st st.uat
    in
    let ratio _ps k =
      check_stage one ~k ~m:1;
      c_ratio one k 1;
      exp st.res.(0)
    in
    let ratio_grad _ps k =
      check_stage one ~k ~m:1;
      c_ratio one k 1;
      let r = st.res in
      (exp r.(0), Vec3.make r.(1) r.(2) r.(3))
    in
    let grad _ps k = Vec3.make st.jgx.(k) st.jgy.(k) st.jgz.(k) in
    let accept _ps k = accept_batch one ~k ~m:1 ~acc:yes in
    let reject _ps _k = () in
    let accumulate_gl _ps (g : W.gl) =
      for k = 0 to n - 1 do
        g.W.ggx.(k) <- g.W.ggx.(k) +. st.jgx.(k);
        g.W.ggy.(k) <- g.W.ggy.(k) +. st.jgy.(k);
        g.W.ggz.(k) <- g.W.ggz.(k) +. st.jgz.(k);
        g.W.glap.(k) <- g.W.glap.(k) +. st.jlap.(k)
      done
    in
    let register buf = Wbuffer.extend buf (5 * n) in
    let update_buffer _ps buf =
      Wbuffer.put_array buf st.uat;
      Wbuffer.put_array buf st.jgx;
      Wbuffer.put_array buf st.jgy;
      Wbuffer.put_array buf st.jgz;
      Wbuffer.put_array buf st.jlap
    in
    let copy_from_buffer _ps buf =
      Wbuffer.get_into buf st.uat;
      Wbuffer.get_into buf st.jgx;
      Wbuffer.get_into buf st.jgy;
      Wbuffer.get_into buf st.jgz;
      Wbuffer.get_into buf st.jlap
    in
    let bytes () = 5 * n * 8 in
    {
      W.name = "J2-opt";
      evaluate_log;
      ratio;
      ratio_grad;
      grad;
      accept;
      reject;
      accumulate_gl;
      register;
      update_buffer;
      copy_from_buffer;
      bytes;
    }

  let create_opt ~(table : Dsoa.t) ~(functors : functors) (ps : Ps.t) : W.t =
    opt_component (make_opt ~table ~functors ps)

  (* ------------------------------------------------------------------ *)
  (* Reference implementation                                            *)
  (* ------------------------------------------------------------------ *)

  let create_ref ~(table : Dref.t) ~(functors : functors) (ps : Ps.t) : W.t =
    check_functors ps functors;
    let n = Ps.n ps in
    (* The 5N² stored scalars: values, AoS gradients, laplacian terms. *)
    let umat = A.create (n * n) in
    let dumat = A.create (3 * n * n) in
    let d2umat = A.create (n * n) in
    (* Scratch for the proposed row. *)
    let un = Array.make n 0. and fn = Array.make n 0. in
    let ln = Array.make n 0. in
    let spec = Array.init n (fun i -> Ps.species_index ps i) in
    let fill_new_row k =
      let fk = functors.(spec.(k)) in
      let td = Dref.temp_dist table in
      for i = 0 to n - 1 do
        if i = k then begin
          un.(i) <- 0.;
          fn.(i) <- 0.;
          ln.(i) <- 0.
        end
        else begin
          let ui, fi, li = eval_u fk.(spec.(i)) (A.get td i) in
          un.(i) <- ui;
          fn.(i) <- fi;
          ln.(i) <- li
        end
      done
    in
    let evaluate_log _ps =
      let logv = ref 0. in
      for k = 0 to n - 1 do
        let fk = functors.(spec.(k)) in
        for i = 0 to n - 1 do
          if i <> k then begin
            let d = Dref.dist table k i in
            let u, f, l = eval_u fk.(spec.(i)) d in
            let dr = Dref.displ table k i in
            (* displ k i = r_i − r_k = dr(k,i). *)
            let p = (k * n) + i in
            A.set umat p u;
            A.set dumat (3 * p) (f *. dr.Vec3.x);
            A.set dumat ((3 * p) + 1) (f *. dr.Vec3.y);
            A.set dumat ((3 * p) + 2) (f *. dr.Vec3.z);
            A.set d2umat p l;
            if i > k then logv := !logv -. u
          end
          else begin
            let p = (k * n) + i in
            A.set umat p 0.;
            A.set dumat (3 * p) 0.;
            A.set dumat ((3 * p) + 1) 0.;
            A.set dumat ((3 * p) + 2) 0.;
            A.set d2umat p 0.
          end
        done
      done;
      !logv
    in
    let delta k =
      (* Σ_i u(new) − u(stored): new from spline evals, old retrieved. *)
      let acc = ref 0. in
      for i = 0 to n - 1 do
        if i <> k then acc := !acc +. un.(i) -. A.get umat ((k * n) + i)
      done;
      !acc
    in
    let ratio _ps k =
      fill_new_row k;
      exp (-.delta k)
    in
    let ratio_grad _ps k =
      fill_new_row k;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      for i = 0 to n - 1 do
        if i <> k then begin
          let dr = Dref.temp_displ table i in
          ax := !ax +. (fn.(i) *. dr.Vec3.x);
          ay := !ay +. (fn.(i) *. dr.Vec3.y);
          az := !az +. (fn.(i) *. dr.Vec3.z)
        end
      done;
      (exp (-.delta k), Vec3.make !ax !ay !az)
    in
    let grad _ps k =
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      for i = 0 to n - 1 do
        let p = 3 * ((k * n) + i) in
        ax := !ax +. A.get dumat p;
        ay := !ay +. A.get dumat (p + 1);
        az := !az +. A.get dumat (p + 2)
      done;
      Vec3.make !ax !ay !az
    in
    let accept _ps k =
      (* Row and column updates of all three matrices (the Ref memory
         traffic the paper eliminates). *)
      for i = 0 to n - 1 do
        if i <> k then begin
          let dr = Dref.temp_displ table i in
          let prow = (k * n) + i and pcol = (i * n) + k in
          A.set umat prow un.(i);
          A.set umat pcol un.(i);
          A.set dumat (3 * prow) (fn.(i) *. dr.Vec3.x);
          A.set dumat ((3 * prow) + 1) (fn.(i) *. dr.Vec3.y);
          A.set dumat ((3 * prow) + 2) (fn.(i) *. dr.Vec3.z);
          (* dr(i,k) = −dr(k,i). *)
          A.set dumat (3 * pcol) (-.fn.(i) *. dr.Vec3.x);
          A.set dumat ((3 * pcol) + 1) (-.fn.(i) *. dr.Vec3.y);
          A.set dumat ((3 * pcol) + 2) (-.fn.(i) *. dr.Vec3.z);
          A.set d2umat prow ln.(i);
          A.set d2umat pcol ln.(i)
        end
      done
    in
    let reject _ps _k = () in
    let accumulate_gl _ps (g : W.gl) =
      for k = 0 to n - 1 do
        let ax = ref 0. and ay = ref 0. and az = ref 0. in
        let al = ref 0. in
        for i = 0 to n - 1 do
          let p = (k * n) + i in
          ax := !ax +. A.get dumat (3 * p);
          ay := !ay +. A.get dumat ((3 * p) + 1);
          az := !az +. A.get dumat ((3 * p) + 2);
          al := !al +. A.get d2umat p
        done;
        g.W.ggx.(k) <- g.W.ggx.(k) +. !ax;
        g.W.ggy.(k) <- g.W.ggy.(k) +. !ay;
        g.W.ggz.(k) <- g.W.ggz.(k) +. !az;
        g.W.glap.(k) <- g.W.glap.(k) -. !al
      done
    in
    let register buf = Wbuffer.extend buf (5 * n * n) in
    (* The three Store matrices move as whole blocks, straight between
       their storage and the pool. *)
    let update_buffer _ps buf =
      A.to_buffer umat ~pos:0 ~n:(n * n) buf;
      A.to_buffer dumat ~pos:0 ~n:(3 * n * n) buf;
      A.to_buffer d2umat ~pos:0 ~n:(n * n) buf
    in
    let copy_from_buffer _ps buf =
      A.of_buffer buf umat ~pos:0 ~n:(n * n);
      A.of_buffer buf dumat ~pos:0 ~n:(3 * n * n);
      A.of_buffer buf d2umat ~pos:0 ~n:(n * n)
    in
    let bytes () = A.bytes umat + A.bytes dumat + A.bytes d2umat in
    {
      W.name = "J2-ref";
      evaluate_log;
      ratio;
      ratio_grad;
      grad;
      accept;
      reject;
      accumulate_gl;
      register;
      update_buffer;
      copy_from_buffer;
      bytes;
    }
end
