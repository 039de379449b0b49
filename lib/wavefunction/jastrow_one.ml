open Oqmc_containers
open Oqmc_particle
open Oqmc_spline

(* One-body Jastrow factor, log ψ = −Σ_k Σ_I u_{s(I)}(r_kI), with a radial
   functor per ion species.  Because the ions never move, an accepted
   electron move touches only that electron's state, in both designs:

   [create_ref] stores the N × N_ion value/gradient/laplacian matrices
   (the store-over-compute baseline) over the Ref AB distance table.

   [create_opt] keeps 5N per-electron accumulators and recomputes rows
   from the SoA AB table on the fly.  Its rows and sums are C
   (jastrow_kernels_stubs.c), one call per crowd stage for every slot,
   the scalar closures calling it on a one-slot array; the OCaml loops it
   replaced are the bit-for-bit test oracles ([test/jastrow_oracle.ml]).

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
     the crowd batch kernels — one C kernel behind both makes batch vs
     scalar bit-identity structural.  jastrow_kernels_stubs.c reads the
     fields by index: keep the order of the first 23 in step with it. *)
  type opt = {
    ni : int;
    ld : int; (* table row stride: electron k's row starts at k * ld *)
    (* The table's row storage and its temporary (proposed) row. *)
    dist : Ad.t;
    dx : Ad.t;
    dy : Ad.t;
    dz : Ad.t;
    tdist : Ad.t;
    tdx : Ad.t;
    tdy : Ad.t;
    tdz : Ad.t;
    (* Maximal same-species ion runs: one spline row per run. *)
    run_fn : Cubic_spline_1d.t array;
    run_lo : int array;
    run_n : int array;
    (* Per-electron accumulators. *)
    vat : float array;
    jgx : float array;
    jgy : float array;
    jgz : float array;
    jlap : float array;
    (* u, f = u'/r, l of the last row evaluated, kept from the ratio call
       for the accept. *)
    un : float array;
    fn_ : float array;
    ln_ : float array;
    res : float array; (* the ratio call's result: U_k − Σ u, then Σ f·dr *)
    n : int;
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
    let runs = species_runs (ion_species ions functors) in
    {
      ni;
      ld = Dsoa.row_stride table;
      dist = Dsoa.dist_data table;
      dx = Dsoa.dx_data table;
      dy = Dsoa.dy_data table;
      dz = Dsoa.dz_data table;
      tdist = Dsoa.temp_dist table;
      tdx = Dsoa.temp_dx table;
      tdy = Dsoa.temp_dy table;
      tdz = Dsoa.temp_dz table;
      run_fn = Array.map (fun (_, _, sp) -> functors.(sp)) runs;
      run_lo = Array.map (fun (lo, _, _) -> lo) runs;
      run_n = Array.map (fun (_, rn, _) -> rn) runs;
      vat = Array.make n 0.;
      jgx = Array.make n 0.;
      jgy = Array.make n 0.;
      jgz = Array.make n 0.;
      jlap = Array.make n 0.;
      un = Array.make ni 0.;
      fn_ = Array.make ni 0.;
      ln_ = Array.make ni 0.;
      res = Array.make 4 0.;
      n;
    }

  let sum (a : float array) =
    let acc = ref 0. in
    for i = 0 to Array.length a - 1 do
      acc := !acc +. a.(i)
    done;
    !acc

  (* ---- the C kernel: one call per crowd stage ---- *)

  (* For slots [0, m): electron k's proposed row (temporary row) into
     the scratch, [res] = [U_k − Σ un; Σ fn·dr]. *)
  external c_ratio : opt array -> int -> int -> unit = "oqmc_j1_ratio"
  [@@noalloc]

  (* For each slot s < m with [acc.(s)]: electron k's accumulators from
     the row the ratio call left in scratch. *)
  external c_accept : opt array -> int -> int -> bool array -> unit
    = "oqmc_j1_accept"
  [@@noalloc]

  (* Every electron's accumulators from its table row. *)
  external c_evaluate : opt -> unit = "oqmc_j1_evaluate" [@@noalloc]

  let check_stage (sts : opt array) ~k ~m =
    if m < 0 || m > Array.length sts then invalid_arg "Jastrow_one: m";
    for s = 0 to m - 1 do
      if k < 0 || k >= sts.(s).n then invalid_arg "Jastrow_one: electron"
    done

  (* ---- crowd batch kernels ---- *)

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
    if Array.length acc < m then invalid_arg "Jastrow_one: acc";
    c_accept sts k m acc

  (* ---- the W.t component over an [opt] state ---- *)

  let opt_component (st : opt) : W.t =
    let n = st.n in
    let one = [| st |] and yes = [| true |] in
    let evaluate_log _ps =
      c_evaluate st;
      -.sum st.vat
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
