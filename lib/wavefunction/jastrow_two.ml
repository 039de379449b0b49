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
   old and new pair rows from the SoA distance table with unit-stride
   loops, and acceptance updates the accumulators incrementally.  The
   walker buffer shrinks to 5N scalars. *)

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
     component closures and the crowd batch kernels share one set of row
     routines (shared code is what makes batch vs scalar bit-identity
     structural rather than coincidental). *)
  type opt = {
    table : Dsoa.t;
    ps : Ps.t;
    n : int;
    ld : int; (* table row stride, for offset-based row reads *)
    functors : functors;
    spec : int array;
    (* Per-electron accumulators: U_k and the gradient/laplacian of
       log ψ. *)
    uat : float array;
    jgx : float array;
    jgy : float array;
    jgz : float array;
    jlap : float array;
    (* Scratch rows for the old and proposed configurations. *)
    un : float array;
    fn_ : float array;
    ln_ : float array;
    uo : float array;
    fo : float array;
    lo : float array;
    (* Row mirrors (see Aligned.read_into): distance and displacement
       rows are staged in unboxed scratch so the inner loops never touch
       the precision functor per element. *)
    mdr : float array;
    mtx : float array;
    mty : float array;
    mtz : float array;
    mox : float array;
    moy : float array;
    moz : float array;
    (* Maximal same-species electron runs: one fused spline-row call per
       run instead of a boxed per-pair dispatch. *)
    run_lo : int array;
    run_n : int array;
    run_sp : int array;
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
    {
      table;
      ps;
      n;
      ld = Dsoa.row_stride table;
      functors;
      spec;
      uat = Array.make n 0.;
      jgx = Array.make n 0.;
      jgy = Array.make n 0.;
      jgz = Array.make n 0.;
      jlap = Array.make n 0.;
      un = Array.make n 0.;
      fn_ = Array.make n 0.;
      ln_ = Array.make n 0.;
      uo = Array.make n 0.;
      fo = Array.make n 0.;
      lo = Array.make n 0.;
      mdr = Array.make n 0.;
      mtx = Array.make n 0.;
      mty = Array.make n 0.;
      mtz = Array.make n 0.;
      mox = Array.make n 0.;
      moy = Array.make n 0.;
      moz = Array.make n 0.;
      run_lo = Array.map (fun (lo, _, _) -> lo) runs;
      run_n = Array.map (fun (_, rn, _) -> rn) runs;
      run_sp = Array.map (fun (_, _, sp) -> sp) runs;
    }

  (* Fill u/f/l rows for electron k against a distance row given as
     backing storage + offset (no proxy allocation): bulk-stage the row,
     one fused spline call per species run, then zero the self entry
     exactly as the scalar branch did (its distance is 0, which the
     spline guard zeroes as well). *)
  let fill_row_from st k (dist : Ad.t) off ~u ~f ~l =
    let fk = st.functors.(st.spec.(k)) in
    Ad.read_into dist ~pos:off st.mdr ~n:st.n;
    for r = 0 to Array.length st.run_lo - 1 do
      Cubic_spline_1d.evaluate_ufl_row fk.(st.run_sp.(r)) st.mdr
        ~off:st.run_lo.(r) ~n:st.run_n.(r) ~u ~f ~l
    done;
    u.(k) <- 0.;
    f.(k) <- 0.;
    l.(k) <- 0.

  let sum st (arr : float array) =
    let acc = ref 0. in
    for i = 0 to st.n - 1 do
      acc := !acc +. arr.(i)
    done;
    !acc

  (* Recompute one electron's accumulators from its (fresh) table row. *)
  let compute_one st k =
    Dsoa.prepare st.table st.ps k;
    let off = k * st.ld in
    fill_row_from st k (Dsoa.dist_data st.table) off ~u:st.un ~f:st.fn_
      ~l:st.ln_;
    Ad.read_into (Dsoa.dx_data st.table) ~pos:off st.mox ~n:st.n;
    Ad.read_into (Dsoa.dy_data st.table) ~pos:off st.moy ~n:st.n;
    Ad.read_into (Dsoa.dz_data st.table) ~pos:off st.moz ~n:st.n;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    let al = ref 0. and su = ref 0. in
    let fn = st.fn_ in
    for i = 0 to st.n - 1 do
      ax := !ax +. (fn.(i) *. st.mox.(i));
      ay := !ay +. (fn.(i) *. st.moy.(i));
      az := !az +. (fn.(i) *. st.moz.(i));
      al := !al +. st.ln_.(i);
      su := !su +. st.un.(i)
    done;
    st.uat.(k) <- !su;
    st.jgx.(k) <- !ax;
    st.jgy.(k) <- !ay;
    st.jgz.(k) <- !az;
    st.jlap.(k) <- -. !al

  (* Old row from the table (refreshed by the engine's prepare), new row
     from the temporary move row. *)
  let compute_rows st k =
    fill_row_from st k (Dsoa.dist_data st.table) (k * st.ld) ~u:st.uo
      ~f:st.fo ~l:st.lo;
    fill_row_from st k (Dsoa.temp_dist st.table) 0 ~u:st.un ~f:st.fn_
      ~l:st.ln_

  (* Incremental update of every electron's accumulators using the cached
     old/new rows; must run before the table accepts. *)
  let accept_one st k =
    let off = k * st.ld in
    Ad.read_into (Dsoa.temp_dx st.table) ~pos:0 st.mtx ~n:st.n;
    Ad.read_into (Dsoa.temp_dy st.table) ~pos:0 st.mty ~n:st.n;
    Ad.read_into (Dsoa.temp_dz st.table) ~pos:0 st.mtz ~n:st.n;
    Ad.read_into (Dsoa.dx_data st.table) ~pos:off st.mox ~n:st.n;
    Ad.read_into (Dsoa.dy_data st.table) ~pos:off st.moy ~n:st.n;
    Ad.read_into (Dsoa.dz_data st.table) ~pos:off st.moz ~n:st.n;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    let al = ref 0. and su = ref 0. in
    let fn = st.fn_ and fo = st.fo in
    for i = 0 to st.n - 1 do
      if i <> k then begin
        st.uat.(i) <- st.uat.(i) +. st.un.(i) -. st.uo.(i);
        (* Pair (i,k) contribution to ∇_i log ψ is −f · dr(k,i). *)
        st.jgx.(i) <-
          st.jgx.(i) -. (fn.(i) *. st.mtx.(i)) +. (fo.(i) *. st.mox.(i));
        st.jgy.(i) <-
          st.jgy.(i) -. (fn.(i) *. st.mty.(i)) +. (fo.(i) *. st.moy.(i));
        st.jgz.(i) <-
          st.jgz.(i) -. (fn.(i) *. st.mtz.(i)) +. (fo.(i) *. st.moz.(i));
        st.jlap.(i) <- st.jlap.(i) -. st.ln_.(i) +. st.lo.(i);
        ax := !ax +. (fn.(i) *. st.mtx.(i));
        ay := !ay +. (fn.(i) *. st.mty.(i));
        az := !az +. (fn.(i) *. st.mtz.(i));
        al := !al +. st.ln_.(i)
      end
    done;
    (* Σ over the new row, in [sum]'s left-to-right order. *)
    for i = 0 to st.n - 1 do
      su := !su +. st.un.(i)
    done;
    st.uat.(k) <- !su;
    st.jgx.(k) <- !ax;
    st.jgy.(k) <- !ay;
    st.jgz.(k) <- !az;
    st.jlap.(k) <- -. !al

  (* ---- crowd batch kernels: one fused call per stage per crowd ---- *)

  let ratio_grad_batch (sts : opt array) ~k ~m ~(ratio : float array)
      ~(gx : float array) ~(gy : float array) ~(gz : float array) =
    for s = 0 to m - 1 do
      let st = sts.(s) in
      compute_rows st k;
      Ad.read_into (Dsoa.temp_dx st.table) ~pos:0 st.mtx ~n:st.n;
      Ad.read_into (Dsoa.temp_dy st.table) ~pos:0 st.mty ~n:st.n;
      Ad.read_into (Dsoa.temp_dz st.table) ~pos:0 st.mtz ~n:st.n;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      let so = ref 0. and sn = ref 0. in
      let fn = st.fn_ in
      for i = 0 to st.n - 1 do
        ax := !ax +. (fn.(i) *. st.mtx.(i));
        ay := !ay +. (fn.(i) *. st.mty.(i));
        az := !az +. (fn.(i) *. st.mtz.(i));
        so := !so +. st.uo.(i);
        sn := !sn +. st.un.(i)
      done;
      ratio.(s) <- ratio.(s) *. exp (!so -. !sn);
      gx.(s) <- gx.(s) +. !ax;
      gy.(s) <- gy.(s) +. !ay;
      gz.(s) <- gz.(s) +. !az
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
    for s = 0 to m - 1 do
      if acc.(s) then accept_one sts.(s) k
    done

  (* ---- the W.t component over an [opt] state ---- *)

  let opt_component (st : opt) : W.t =
    let n = st.n in
    let evaluate_log _ps =
      for k = 0 to n - 1 do
        compute_one st k
      done;
      -0.5 *. sum st st.uat
    in
    let ratio _ps k =
      compute_rows st k;
      exp (sum st st.uo -. sum st st.un)
    in
    let ratio_grad _ps k =
      compute_rows st k;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      let tx = Dsoa.temp_dx st.table and ty = Dsoa.temp_dy st.table in
      let tz = Dsoa.temp_dz st.table in
      let fn = st.fn_ in
      for i = 0 to n - 1 do
        ax := !ax +. (fn.(i) *. Ad.unsafe_get tx i);
        ay := !ay +. (fn.(i) *. Ad.unsafe_get ty i);
        az := !az +. (fn.(i) *. Ad.unsafe_get tz i)
      done;
      (exp (sum st st.uo -. sum st st.un), Vec3.make !ax !ay !az)
    in
    let grad _ps k = Vec3.make st.jgx.(k) st.jgy.(k) st.jgz.(k) in
    let accept _ps k = accept_one st k in
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
