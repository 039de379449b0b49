open Oqmc_containers
open Oqmc_particle
open Oqmc_spline

(* The OCaml Jastrow loops the C kernels of jastrow_kernels_stubs.c
   replaced, kept as the references the tests compare against bit for
   bit: the fused spline row ([ufl_row], formerly
   [Cubic_spline_1d.evaluate_ufl_row]) and the compute-on-the-fly J2 and
   J1 states with their ratio, accept and recompute loops.  Table rows
   are staged into [float array] mirrors (widened exactly) and every sum
   is a left-to-right chain in index order, as the C kernels do.

   [R] is the walker precision, [D] the distance-table precision. *)

(* u, f = u'/r, l = u'' + 2u'/r of the spline at dist.(i) for i in
   [off, off + n); zeros when r <= 0 or r >= cutoff. *)
let ufl_row sp (dist : float array) ~off ~n ~(u : float array)
    ~(f : float array) ~(l : float array) =
  let cut = Cubic_spline_1d.cutoff sp in
  let nint = Cubic_spline_1d.n_intervals sp in
  let coeffs = Cubic_spline_1d.coefficients sp in
  (* [Cubic_spline_1d.of_coefficients]'s delta_inv, to the bit. *)
  let delta_inv = 1. /. (cut /. float_of_int nint) in
  for i = off to off + n - 1 do
    let r = dist.(i) in
    if r <= 0. || r >= cut then begin
      u.(i) <- 0.;
      f.(i) <- 0.;
      l.(i) <- 0.
    end
    else begin
      let s = r *. delta_inv in
      let j = int_of_float s in
      let j = if j >= nint then nint - 1 else j in
      let j = if j < 0 then 0 else j in
      let x = s -. float_of_int j in
      let c0 = coeffs.(j) and c1 = coeffs.(j + 1) in
      let c2 = coeffs.(j + 2) and c3 = coeffs.(j + 3) in
      let t2 = x *. x in
      let t3 = t2 *. x in
      let mt = 1. -. x in
      let vw0 = mt *. mt *. mt /. 6. in
      let vw1 = ((3. *. t3) -. (6. *. t2) +. 4.) /. 6. in
      let vw2 = ((-3. *. t3) +. (3. *. t2) +. (3. *. x) +. 1.) /. 6. in
      let vw3 = t3 /. 6. in
      let dw0 = -.(mt *. mt) /. 2. in
      let dw1 = ((9. *. t2) -. (12. *. x)) /. 6. in
      let dw2 = ((-9. *. t2) +. (6. *. x) +. 3.) /. 6. in
      let dw3 = t2 /. 2. in
      let sw0 = 1. -. x in
      let sw1 = (3. *. x) -. 2. in
      let sw2 = 1. -. (3. *. x) in
      let sw3 = x in
      let v = (c0 *. vw0) +. (c1 *. vw1) +. (c2 *. vw2) +. (c3 *. vw3) in
      let dv =
        ((c0 *. dw0) +. (c1 *. dw1) +. (c2 *. dw2) +. (c3 *. dw3))
        *. delta_inv
      in
      let d2v =
        ((c0 *. sw0) +. (c1 *. sw1) +. (c2 *. sw2) +. (c3 *. sw3))
        *. delta_inv *. delta_inv
      in
      u.(i) <- v;
      f.(i) <- dv /. r;
      l.(i) <- d2v +. (2. *. dv /. r)
    end
  done

(* Maximal runs of equal values: (first index, length, value). *)
let runs (spec : int array) =
  let acc = ref [] and i = ref 0 in
  let len = Array.length spec in
  while !i < len do
    let j = ref !i in
    while !j < len && spec.(!j) = spec.(!i) do incr j done;
    acc := (!i, !j - !i, spec.(!i)) :: !acc;
    i := !j
  done;
  Array.of_list (List.rev !acc)

let sum (a : float array) n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. a.(i)
  done;
  !acc

module Make (R : Precision.REAL) (D : Precision.REAL) = struct
  module Ps = Particle_set.Make (R)
  module Aa = Dt_aa_soa.Make (R) (D)
  module Ab = Dt_ab_soa.Make (R) (D)
  module Ad = Aa.A

  (* ---- J2: compute-on-the-fly two-body state ---- *)

  type j2 = {
    table : Aa.t;
    n : int;
    ld : int;
    functors : Cubic_spline_1d.t array array;
    spec : int array;
    runs : (int * int * int) array;
    uat : float array;
    jgx : float array;
    jgy : float array;
    jgz : float array;
    jlap : float array;
    un : float array;
    fn : float array;
    ln : float array;
    uo : float array;
    fo : float array;
    lo : float array;
    mdr : float array;
    mtx : float array;
    mty : float array;
    mtz : float array;
    mox : float array;
    moy : float array;
    moz : float array;
  }

  let make_j2 ~table ~functors ps =
    let n = Ps.n ps in
    let spec = Array.init n (Ps.species_index ps) in
    let z () = Array.make n 0. in
    {
      table;
      n;
      ld = Aa.row_stride table;
      functors;
      spec;
      runs = runs spec;
      uat = z ();
      jgx = z ();
      jgy = z ();
      jgz = z ();
      jlap = z ();
      un = z ();
      fn = z ();
      ln = z ();
      uo = z ();
      fo = z ();
      lo = z ();
      mdr = z ();
      mtx = z ();
      mty = z ();
      mtz = z ();
      mox = z ();
      moy = z ();
      moz = z ();
    }

  (* Electron k's row from [dist] at [off]: one spline row per species
     run with k's functors, then the self entry as zeros. *)
  let j2_fill st k (dist : Ad.t) off ~u ~f ~l =
    let fk = st.functors.(st.spec.(k)) in
    Ad.read_into dist ~pos:off st.mdr ~n:st.n;
    Array.iter
      (fun (lo, rn, sp) -> ufl_row fk.(sp) st.mdr ~off:lo ~n:rn ~u ~f ~l)
      st.runs;
    u.(k) <- 0.;
    f.(k) <- 0.;
    l.(k) <- 0.

  (* Every electron's accumulators from the table rows. *)
  let j2_evaluate st =
    for k = 0 to st.n - 1 do
      let off = k * st.ld in
      j2_fill st k (Aa.dist_data st.table) off ~u:st.un ~f:st.fn ~l:st.ln;
      Ad.read_into (Aa.dx_data st.table) ~pos:off st.mox ~n:st.n;
      Ad.read_into (Aa.dy_data st.table) ~pos:off st.moy ~n:st.n;
      Ad.read_into (Aa.dz_data st.table) ~pos:off st.moz ~n:st.n;
      let ax = ref 0. and ay = ref 0. and az = ref 0. in
      let al = ref 0. and su = ref 0. in
      for i = 0 to st.n - 1 do
        ax := !ax +. (st.fn.(i) *. st.mox.(i));
        ay := !ay +. (st.fn.(i) *. st.moy.(i));
        az := !az +. (st.fn.(i) *. st.moz.(i));
        al := !al +. st.ln.(i);
        su := !su +. st.un.(i)
      done;
      st.uat.(k) <- !su;
      st.jgx.(k) <- !ax;
      st.jgy.(k) <- !ay;
      st.jgz.(k) <- !az;
      st.jlap.(k) <- -. !al
    done

  (* Old and proposed rows of electron k; returns (Σ uo − Σ un, ∇ sums
     over the proposed row). *)
  let j2_ratio_grad st k =
    j2_fill st k (Aa.dist_data st.table) (k * st.ld) ~u:st.uo ~f:st.fo
      ~l:st.lo;
    j2_fill st k (Aa.temp_dist st.table) 0 ~u:st.un ~f:st.fn ~l:st.ln;
    Ad.read_into (Aa.temp_dx st.table) ~pos:0 st.mtx ~n:st.n;
    Ad.read_into (Aa.temp_dy st.table) ~pos:0 st.mty ~n:st.n;
    Ad.read_into (Aa.temp_dz st.table) ~pos:0 st.mtz ~n:st.n;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    for i = 0 to st.n - 1 do
      ax := !ax +. (st.fn.(i) *. st.mtx.(i));
      ay := !ay +. (st.fn.(i) *. st.mty.(i));
      az := !az +. (st.fn.(i) *. st.mtz.(i))
    done;
    (sum st.uo st.n -. sum st.un st.n, !ax, !ay, !az)

  (* The incremental accept from the rows of the last ratio call. *)
  let j2_accept st k =
    let off = k * st.ld in
    Ad.read_into (Aa.temp_dx st.table) ~pos:0 st.mtx ~n:st.n;
    Ad.read_into (Aa.temp_dy st.table) ~pos:0 st.mty ~n:st.n;
    Ad.read_into (Aa.temp_dz st.table) ~pos:0 st.mtz ~n:st.n;
    Ad.read_into (Aa.dx_data st.table) ~pos:off st.mox ~n:st.n;
    Ad.read_into (Aa.dy_data st.table) ~pos:off st.moy ~n:st.n;
    Ad.read_into (Aa.dz_data st.table) ~pos:off st.moz ~n:st.n;
    let ax = ref 0. and ay = ref 0. and az = ref 0. and al = ref 0. in
    let fn = st.fn and fo = st.fo in
    for i = 0 to st.n - 1 do
      if i <> k then begin
        st.uat.(i) <- st.uat.(i) +. st.un.(i) -. st.uo.(i);
        st.jgx.(i) <-
          st.jgx.(i) -. (fn.(i) *. st.mtx.(i)) +. (fo.(i) *. st.mox.(i));
        st.jgy.(i) <-
          st.jgy.(i) -. (fn.(i) *. st.mty.(i)) +. (fo.(i) *. st.moy.(i));
        st.jgz.(i) <-
          st.jgz.(i) -. (fn.(i) *. st.mtz.(i)) +. (fo.(i) *. st.moz.(i));
        st.jlap.(i) <- st.jlap.(i) -. st.ln.(i) +. st.lo.(i);
        ax := !ax +. (fn.(i) *. st.mtx.(i));
        ay := !ay +. (fn.(i) *. st.mty.(i));
        az := !az +. (fn.(i) *. st.mtz.(i));
        al := !al +. st.ln.(i)
      end
    done;
    st.uat.(k) <- sum st.un st.n;
    st.jgx.(k) <- !ax;
    st.jgy.(k) <- !ay;
    st.jgz.(k) <- !az;
    st.jlap.(k) <- -. !al

  (* The accumulators in walker-buffer order: U, ∇x, ∇y, ∇z, ∇². *)
  let j2_state st = Array.concat [ st.uat; st.jgx; st.jgy; st.jgz; st.jlap ]

  (* ---- J1: compute-on-the-fly one-body state ---- *)

  type j1 = {
    ab : Ab.t;
    en : int;
    ni : int;
    ild : int;
    runs1 : (int * int * Cubic_spline_1d.t) array;
    vat : float array;
    igx : float array;
    igy : float array;
    igz : float array;
    ilap : float array;
    u1 : float array;
    f1 : float array;
    l1 : float array;
    mr : float array;
    mx : float array;
    my : float array;
    mz : float array;
  }

  let make_j1 ~table ~(functors : Cubic_spline_1d.t array) ~ions ps =
    let n = Ps.n ps and ni = Ps.n ions in
    let z m = Array.make m 0. in
    {
      ab = table;
      en = n;
      ni;
      ild = Ab.row_stride table;
      runs1 =
        Array.map
          (fun (lo, rn, sp) -> (lo, rn, functors.(sp)))
          (runs (Array.init ni (Ps.species_index ions)));
      vat = z n;
      igx = z n;
      igy = z n;
      igz = z n;
      ilap = z n;
      u1 = z ni;
      f1 = z ni;
      l1 = z ni;
      mr = z ni;
      mx = z ni;
      my = z ni;
      mz = z ni;
    }

  let j1_fill st (dist : Ad.t) off =
    Ad.read_into dist ~pos:off st.mr ~n:st.ni;
    Array.iter
      (fun (lo, rn, sp) ->
        ufl_row sp st.mr ~off:lo ~n:rn ~u:st.u1 ~f:st.f1 ~l:st.l1)
      st.runs1

  let j1_store st k ~(dx : Ad.t) ~(dy : Ad.t) ~(dz : Ad.t) ~off =
    Ad.read_into dx ~pos:off st.mx ~n:st.ni;
    Ad.read_into dy ~pos:off st.my ~n:st.ni;
    Ad.read_into dz ~pos:off st.mz ~n:st.ni;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    let su = ref 0. and sl = ref 0. in
    for i = 0 to st.ni - 1 do
      ax := !ax +. (st.f1.(i) *. st.mx.(i));
      ay := !ay +. (st.f1.(i) *. st.my.(i));
      az := !az +. (st.f1.(i) *. st.mz.(i));
      su := !su +. st.u1.(i);
      sl := !sl +. st.l1.(i)
    done;
    st.vat.(k) <- !su;
    st.igx.(k) <- !ax;
    st.igy.(k) <- !ay;
    st.igz.(k) <- !az;
    st.ilap.(k) <- -. !sl

  let j1_evaluate st =
    for k = 0 to st.en - 1 do
      let off = k * st.ild in
      j1_fill st (Ab.dist_data st.ab) off;
      j1_store st k ~dx:(Ab.dx_data st.ab) ~dy:(Ab.dy_data st.ab)
        ~dz:(Ab.dz_data st.ab) ~off
    done

  (* (U_k − Σ un, ∇ sums over the proposed row). *)
  let j1_ratio_grad st k =
    j1_fill st (Ab.temp_dist st.ab) 0;
    Ad.read_into (Ab.temp_dx st.ab) ~pos:0 st.mx ~n:st.ni;
    Ad.read_into (Ab.temp_dy st.ab) ~pos:0 st.my ~n:st.ni;
    Ad.read_into (Ab.temp_dz st.ab) ~pos:0 st.mz ~n:st.ni;
    let ax = ref 0. and ay = ref 0. and az = ref 0. in
    for i = 0 to st.ni - 1 do
      ax := !ax +. (st.f1.(i) *. st.mx.(i));
      ay := !ay +. (st.f1.(i) *. st.my.(i));
      az := !az +. (st.f1.(i) *. st.mz.(i))
    done;
    (st.vat.(k) -. sum st.u1 st.ni, !ax, !ay, !az)

  let j1_accept st k =
    j1_store st k ~dx:(Ab.temp_dx st.ab) ~dy:(Ab.temp_dy st.ab)
      ~dz:(Ab.temp_dz st.ab) ~off:0

  let j1_state st = Array.concat [ st.vat; st.igx; st.igy; st.igz; st.ilap ]
end
