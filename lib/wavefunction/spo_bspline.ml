open Oqmc_containers
open Oqmc_particle

(* B-spline-backed SPO engine.

   Wraps a periodic tricubic table: Cartesian positions are mapped to
   fractional coordinates, and the table's fractional-coordinate
   derivatives are pushed through the cell metric —
   ∇ᵣφ = Σ_b g_b (∂φ/∂s_b) and ∇²φ = Σ_{bc} (g_b·g_c) H_s(b,c) — so the
   Slater determinant sees Cartesian gradients and laplacians.  The table
   is read-only and shared by every walker and thread, as in QMCPACK.

   Scratch, by contrast, is never shared: the scalar path keeps one
   [vgh_buf] per domain (domain-local storage), and each batched context
   owns a crowd-sized arena, so parallel engines over the same [Spo.t]
   cannot trample each other's intermediates. *)

module Make (R : Precision.REAL) = struct
  module B3 = Oqmc_spline.Bspline3d.Make (R)

  let create ~(table : B3.t) ~(lattice : Lattice.t) : Spo.t =
    let n = B3.n_orb table in
    (* One scalar scratch buffer per domain: the Spo.t closure is shared
       across all domain engines, so a single captured buffer would race. *)
    let scratch = Domain.DLS.new_key (fun () -> B3.make_vgh_buf table) in
    (* Rows g_b of the inverse cell: ∂s_b/∂r_a = g_b[a]. *)
    let g = Lattice.frac_rows lattice in
    let g0 = g.(0) and g1 = g.(1) and g2 = g.(2) in
    (* Metric coefficients m_bc = g_b · g_c for the laplacian. *)
    let m00 = Vec3.dot g0 g0 and m11 = Vec3.dot g1 g1 in
    let m22 = Vec3.dot g2 g2 in
    let m01 = Vec3.dot g0 g1 and m02 = Vec3.dot g0 g2 in
    let m12 = Vec3.dot g1 g2 in
    (* Push one table result buffer through the metric into [out]. *)
    let to_cartesian (buf : B3.vgh_buf) (out : Spo.vgl) =
      for m = 0 to n - 1 do
        let dv0 = buf.B3.gx.(m) and dv1 = buf.B3.gy.(m) in
        let dv2 = buf.B3.gz.(m) in
        out.Spo.v.(m) <- buf.B3.v.(m);
        (* ∇ᵣφ[a] = Σ_b (∂φ/∂s_b) g_b[a]. *)
        out.Spo.gx.(m) <-
          (dv0 *. g0.Vec3.x) +. (dv1 *. g1.Vec3.x) +. (dv2 *. g2.Vec3.x);
        out.Spo.gy.(m) <-
          (dv0 *. g0.Vec3.y) +. (dv1 *. g1.Vec3.y) +. (dv2 *. g2.Vec3.y);
        out.Spo.gz.(m) <-
          (dv0 *. g0.Vec3.z) +. (dv1 *. g1.Vec3.z) +. (dv2 *. g2.Vec3.z);
        out.Spo.lap.(m) <-
          (m00 *. buf.B3.hxx.(m))
          +. (m11 *. buf.B3.hyy.(m))
          +. (m22 *. buf.B3.hzz.(m))
          +. (2. *. m01 *. buf.B3.hxy.(m))
          +. (2. *. m02 *. buf.B3.hxz.(m))
          +. (2. *. m12 *. buf.B3.hyz.(m))
      done
    in
    let eval_v (r : Vec3.t) out =
      let s = Lattice.to_frac lattice r in
      B3.eval_v table ~u0:s.Vec3.x ~u1:s.Vec3.y ~u2:s.Vec3.z out
    in
    let eval_vgl (r : Vec3.t) (out : Spo.vgl) =
      let buf = Domain.DLS.get scratch in
      let s = Lattice.to_frac lattice r in
      B3.eval_vgh table ~u0:s.Vec3.x ~u1:s.Vec3.y ~u2:s.Vec3.z buf;
      to_cartesian buf out
    in
    (* Native crowd batches: fractional coordinates for the whole crowd
       are staged into the context's arrays, the table's batched kernel
       evaluates every slot without allocating, then each slot is pushed
       through the metric. *)
    let make_vgl_batch cap =
      if cap < 1 then invalid_arg "Spo_bspline.make_vgl_batch: cap < 1";
      let arena = B3.make_vgh_batch table ~cap in
      let outs = B3.outs arena in
      let slots = Array.init cap (fun _ -> Spo.make_vgl n) in
      let u0 = Array.make cap 0. in
      let u1 = Array.make cap 0. in
      let u2 = Array.make cap 0. in
      let run (pos : Vec3.t array) nw =
        (* Inline [Lattice.to_frac] field-wise: the batched path must
           stay allocation-free, and both to_frac's result Vec3 and a
           cross-module [Vec3.dot]'s boxed float return would allocate
           per slot without flambda. *)
        for s = 0 to nw - 1 do
          let r = pos.(s) in
          let x = r.Vec3.x and y = r.Vec3.y and z = r.Vec3.z in
          u0.(s) <- (g0.Vec3.x *. x) +. (g0.Vec3.y *. y) +. (g0.Vec3.z *. z);
          u1.(s) <- (g1.Vec3.x *. x) +. (g1.Vec3.y *. y) +. (g1.Vec3.z *. z);
          u2.(s) <- (g2.Vec3.x *. x) +. (g2.Vec3.y *. y) +. (g2.Vec3.z *. z)
        done;
        B3.eval_vgh_batch table arena ~n:nw ~u0 ~u1 ~u2;
        for s = 0 to nw - 1 do
          to_cartesian outs.(s) slots.(s)
        done
      in
      { Spo.cap; slots; run }
    in
    Spo.make ~make_vgl_batch ~n_orb:n
      ~label:(Printf.sprintf "bspline-%s" R.name)
      ~eval_v ~eval_vgl ~bytes:(B3.bytes table) ()
end
