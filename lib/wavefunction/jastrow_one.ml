open Oqmc_containers
open Oqmc_particle
open Oqmc_spline

(* One-body Jastrow factor, log ψ = −Σ_k Σ_I u_{s(I)}(r_kI), with a radial
   functor per ion species.  Because the ions never move, an accepted
   electron move touches only that electron's state, in both designs:

   [create_ref] stores the N × N_ion value/gradient/laplacian matrices
   (the store-over-compute baseline) over the Ref AB distance table.

   [create_opt] keeps 5N per-electron accumulators and recomputes rows
   from the SoA AB table on the fly.

   [R] is the walker precision, [D] the SoA distance-table storage
   precision (the [precision_dt] knob): the opt path reads its rows
   through [D] while all Jastrow sums accumulate in double.  The Ref
   baseline stays entirely at [R]. *)

module Make (R : Precision.REAL) (D : Precision.REAL) = struct
  module W = Wfc.Make (R)
  module Ps = W.Ps
  module A = Aligned.Make (R)
  module Dref = Dt_ab_ref.Make (R)
  module Dsoa = Dt_ab_soa.Make (R) (D)
  module Ad = Dsoa.A

  type functors = Cubic_spline_1d.t array
  (* indexed by ion species *)

  let eval_u (fn : Cubic_spline_1d.t) r =
    if r <= 0. || r >= Cubic_spline_1d.cutoff fn then (0., 0., 0.)
    else begin
      let u, du, d2u = Cubic_spline_1d.evaluate_vgl fn r in
      (u, du /. r, d2u +. (2. *. du /. r))
    end

  let ion_species (ions : Ps.t) (functors : functors) =
    if Array.length functors <> Ps.n_species ions then
      invalid_arg "Jastrow_one: functor array does not match ion species";
    Array.init (Ps.n ions) (fun i -> Ps.species_index ions i)

  (* ------------------------------------------------------------------ *)

  (* Compute-on-the-fly state shared by the scalar component closures and
     the crowd batch kernels — shared row routines make batch vs scalar
     bit-identity structural. *)
  type opt = {
    table : Dsoa.t;
    n : int;
    ni : int;
    ld : int;
    functors : functors;
    ion_spec : int array;
    vat : float array;
    jgx : float array;
    jgy : float array;
    jgz : float array;
    jlap : float array;
    un : float array;
    fn_ : float array;
    ln_ : float array;
    (* Row mirrors (see Aligned.read_into): distance and displacement
       rows are staged in unboxed scratch so the inner loops never touch
       the precision functor per element. *)
    mdr : float array;
    mdx : float array;
    mdy : float array;
    mdz : float array;
    (* Maximal same-species ion runs: one fused spline-row call per run
       instead of a boxed per-ion dispatch. *)
    run_lo : int array;
    run_n : int array;
    run_fn : Cubic_spline_1d.t array;
  }

  (* Maximal runs of equal values in [spec] (ions are laid out species by
     species, so this is one run per species; the construction does not
     rely on it). *)
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

  let make_opt ~(table : Dsoa.t) ~(functors : functors) ~(ions : Ps.t)
      (ps : Ps.t) : opt =
    let n = Ps.n ps in
    let ni = Ps.n ions in
    let ion_spec = ion_species ions functors in
    let runs = species_runs ion_spec in
    {
      table;
      n;
      ni;
      ld = Dsoa.row_stride table;
      functors;
      ion_spec;
      vat = Array.make n 0.;
      jgx = Array.make n 0.;
      jgy = Array.make n 0.;
      jgz = Array.make n 0.;
      jlap = Array.make n 0.;
      un = Array.make ni 0.;
      fn_ = Array.make ni 0.;
      ln_ = Array.make ni 0.;
      mdr = Array.make ni 0.;
      mdx = Array.make ni 0.;
      mdy = Array.make ni 0.;
      mdz = Array.make ni 0.;
      run_lo = Array.map (fun (lo, _, _) -> lo) runs;
      run_n = Array.map (fun (_, rn, _) -> rn) runs;
      run_fn = Array.map (fun (_, _, sp) -> functors.(sp)) runs;
    }

  let fill_row st (dist : Ad.t) off =
    Ad.read_into dist ~pos:off st.mdr ~n:st.ni;
    for r = 0 to Array.length st.run_lo - 1 do
      Cubic_spline_1d.evaluate_ufl_row st.run_fn.(r) st.mdr
        ~off:st.run_lo.(r) ~n:st.run_n.(r) ~u:st.un ~f:st.fn_ ~l:st.ln_
    done

  let sum (a : float array) =
    let acc = ref 0. in
    for i = 0 to Array.length a - 1 do
      acc := !acc +. a.(i)
    done;
    !acc

  let store_k st k ~(dx : Ad.t) ~(dy : Ad.t) ~(dz : Ad.t) ~off =
    Ad.read_into dx ~pos:off st.mdx ~n:st.ni;
    Ad.read_into dy ~pos:off st.mdy ~n:st.ni;
    Ad.read_into dz ~pos:off st.mdz ~n:st.ni;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    let su = ref 0. and sl = ref 0. in
    let fn = st.fn_ in
    for i = 0 to st.ni - 1 do
      ax := !ax +. (fn.(i) *. st.mdx.(i));
      ay := !ay +. (fn.(i) *. st.mdy.(i));
      az := !az +. (fn.(i) *. st.mdz.(i));
      su := !su +. st.un.(i);
      sl := !sl +. st.ln_.(i)
    done;
    st.vat.(k) <- !su;
    st.jgx.(k) <- !ax;
    st.jgy.(k) <- !ay;
    st.jgz.(k) <- !az;
    st.jlap.(k) <- -. !sl

  (* ---- crowd batch kernels ---- *)

  let ratio_grad_batch (sts : opt array) ~k ~m ~(ratio : float array)
      ~(gx : float array) ~(gy : float array) ~(gz : float array) =
    for s = 0 to m - 1 do
      let st = sts.(s) in
      fill_row st (Dsoa.temp_dist st.table) 0;
      Ad.read_into (Dsoa.temp_dx st.table) ~pos:0 st.mdx ~n:st.ni;
      Ad.read_into (Dsoa.temp_dy st.table) ~pos:0 st.mdy ~n:st.ni;
      Ad.read_into (Dsoa.temp_dz st.table) ~pos:0 st.mdz ~n:st.ni;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      let su = ref 0. in
      let fn = st.fn_ in
      for i = 0 to st.ni - 1 do
        ax := !ax +. (fn.(i) *. st.mdx.(i));
        ay := !ay +. (fn.(i) *. st.mdy.(i));
        az := !az +. (fn.(i) *. st.mdz.(i));
        su := !su +. st.un.(i)
      done;
      ratio.(s) <- ratio.(s) *. exp (st.vat.(k) -. !su);
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
      if acc.(s) then begin
        let st = sts.(s) in
        (* Scratch still holds the proposed row from ratio/ratio_grad. *)
        store_k st k ~dx:(Dsoa.temp_dx st.table) ~dy:(Dsoa.temp_dy st.table)
          ~dz:(Dsoa.temp_dz st.table) ~off:0
      end
    done

  (* ---- the W.t component over an [opt] state ---- *)

  let opt_component (st : opt) : W.t =
    let n = st.n in
    let evaluate_log _ps =
      for k = 0 to n - 1 do
        let off = k * st.ld in
        fill_row st (Dsoa.dist_data st.table) off;
        store_k st k ~dx:(Dsoa.dx_data st.table) ~dy:(Dsoa.dy_data st.table)
          ~dz:(Dsoa.dz_data st.table) ~off
      done;
      -.sum st.vat
    in
    let ratio _ps k =
      fill_row st (Dsoa.temp_dist st.table) 0;
      exp (st.vat.(k) -. sum st.un)
    in
    let ratio_grad _ps k =
      fill_row st (Dsoa.temp_dist st.table) 0;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      let tx = Dsoa.temp_dx st.table and ty = Dsoa.temp_dy st.table in
      let tz = Dsoa.temp_dz st.table in
      let fn = st.fn_ in
      for i = 0 to st.ni - 1 do
        ax := !ax +. (fn.(i) *. Ad.unsafe_get tx i);
        ay := !ay +. (fn.(i) *. Ad.unsafe_get ty i);
        az := !az +. (fn.(i) *. Ad.unsafe_get tz i)
      done;
      (exp (st.vat.(k) -. sum st.un), Vec3.make !ax !ay !az)
    in
    let grad _ps k = Vec3.make st.jgx.(k) st.jgy.(k) st.jgz.(k) in
    let accept _ps k =
      store_k st k ~dx:(Dsoa.temp_dx st.table) ~dy:(Dsoa.temp_dy st.table)
        ~dz:(Dsoa.temp_dz st.table) ~off:0
    in
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
      Wbuffer.put_array buf st.vat;
      Wbuffer.put_array buf st.jgx;
      Wbuffer.put_array buf st.jgy;
      Wbuffer.put_array buf st.jgz;
      Wbuffer.put_array buf st.jlap
    in
    let copy_from_buffer _ps buf =
      Wbuffer.get_into buf st.vat;
      Wbuffer.get_into buf st.jgx;
      Wbuffer.get_into buf st.jgy;
      Wbuffer.get_into buf st.jgz;
      Wbuffer.get_into buf st.jlap
    in
    let bytes () = 5 * n * 8 in
    {
      W.name = "J1-opt";
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

  let create_opt ~(table : Dsoa.t) ~(functors : functors) ~(ions : Ps.t)
      (ps : Ps.t) : W.t =
    opt_component (make_opt ~table ~functors ~ions ps)

  (* ------------------------------------------------------------------ *)

  let create_ref ~(table : Dref.t) ~(functors : functors) ~(ions : Ps.t)
      (ps : Ps.t) : W.t =
    let n = Ps.n ps in
    let ni = Ps.n ions in
    let ion_spec = ion_species ions functors in
    let umat = A.create (n * ni) in
    let dumat = A.create (3 * n * ni) in
    let d2umat = A.create (n * ni) in
    let un = Array.make ni 0. and fn = Array.make ni 0. in
    let ln = Array.make ni 0. in
    let fill_new_row () =
      let td = Dref.temp_dist table in
      for i = 0 to ni - 1 do
        let u, f, l = eval_u functors.(ion_spec.(i)) (A.get td i) in
        un.(i) <- u;
        fn.(i) <- f;
        ln.(i) <- l
      done
    in
    let evaluate_log _ps =
      let logv = ref 0. in
      for k = 0 to n - 1 do
        for i = 0 to ni - 1 do
          let d = Dref.dist table k i in
          let u, f, l = eval_u functors.(ion_spec.(i)) d in
          let dr = Dref.displ table k i in
          let p = (k * ni) + i in
          A.set umat p u;
          A.set dumat (3 * p) (f *. dr.Vec3.x);
          A.set dumat ((3 * p) + 1) (f *. dr.Vec3.y);
          A.set dumat ((3 * p) + 2) (f *. dr.Vec3.z);
          A.set d2umat p l;
          logv := !logv -. u
        done
      done;
      !logv
    in
    let delta k =
      let acc = ref 0. in
      for i = 0 to ni - 1 do
        acc := !acc +. un.(i) -. A.get umat ((k * ni) + i)
      done;
      !acc
    in
    let ratio _ps k =
      fill_new_row ();
      exp (-.delta k)
    in
    let ratio_grad _ps k =
      fill_new_row ();
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      for i = 0 to ni - 1 do
        let dr = Dref.temp_displ table i in
        ax := !ax +. (fn.(i) *. dr.Vec3.x);
        ay := !ay +. (fn.(i) *. dr.Vec3.y);
        az := !az +. (fn.(i) *. dr.Vec3.z)
      done;
      (exp (-.delta k), Vec3.make !ax !ay !az)
    in
    let grad _ps k =
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      for i = 0 to ni - 1 do
        let p = 3 * ((k * ni) + i) in
        ax := !ax +. A.get dumat p;
        ay := !ay +. A.get dumat (p + 1);
        az := !az +. A.get dumat (p + 2)
      done;
      Vec3.make !ax !ay !az
    in
    let accept _ps k =
      for i = 0 to ni - 1 do
        let dr = Dref.temp_displ table i in
        let p = (k * ni) + i in
        A.set umat p un.(i);
        A.set dumat (3 * p) (fn.(i) *. dr.Vec3.x);
        A.set dumat ((3 * p) + 1) (fn.(i) *. dr.Vec3.y);
        A.set dumat ((3 * p) + 2) (fn.(i) *. dr.Vec3.z);
        A.set d2umat p ln.(i)
      done
    in
    let reject _ps _k = () in
    let accumulate_gl _ps (g : W.gl) =
      for k = 0 to n - 1 do
        let ax = ref 0. and ay = ref 0. and az = ref 0. in
        let al = ref 0. in
        for i = 0 to ni - 1 do
          let p = (k * ni) + i in
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
    let register buf = Wbuffer.extend buf (5 * n * ni) in
    (* The three Store matrices move as whole blocks, straight between
       their storage and the pool. *)
    let update_buffer _ps buf =
      A.to_buffer umat ~pos:0 ~n:(n * ni) buf;
      A.to_buffer dumat ~pos:0 ~n:(3 * n * ni) buf;
      A.to_buffer d2umat ~pos:0 ~n:(n * ni) buf
    in
    let copy_from_buffer _ps buf =
      A.of_buffer buf umat ~pos:0 ~n:(n * ni);
      A.of_buffer buf dumat ~pos:0 ~n:(3 * n * ni);
      A.of_buffer buf d2umat ~pos:0 ~n:(n * ni)
    in
    let bytes () = A.bytes umat + A.bytes dumat + A.bytes d2umat in
    {
      W.name = "J1-ref";
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
