open Oqmc_containers
open Oqmc_particle
open Oqmc_rng
open Oqmc_wavefunction
open Oqmc_workloads

(* Component-level tests: each wavefunction piece is checked against
   brute-force recomputation and finite differences, and the Ref/Current
   implementations are checked against each other. *)

module P = Precision.F64
module Ps = Particle_set.Make (P)
module W = Wfc.Make (P)
module AAref = Dt_aa_ref.Make (P)
module AAsoa = Dt_aa_soa.Make (P) (P)
module ABref = Dt_ab_ref.Make (P)
module ABsoa = Dt_ab_soa.Make (P) (P)
module J2 = Jastrow_two.Make (P) (P)
module J1 = Jastrow_one.Make (P) (P)
module Det = Slater_det.Make (P) (P)
module Twf = Trial_wavefunction.Make (P)

let checkf tol = Alcotest.(check (float tol))
let check_bool = Alcotest.(check bool)

let lattice = Lattice.cubic 6.

let electrons ~seed n =
  let ps =
    Ps.create ~lattice
      [
        { Particle_set.name = "u"; charge = -1.; count = n / 2 };
        { Particle_set.name = "d"; charge = -1.; count = n - (n / 2) };
      ]
  in
  let rng = Xoshiro.create seed in
  Ps.randomize ps (fun () -> Xoshiro.uniform rng);
  (ps, rng)

let ions () =
  let io =
    Ps.create ~lattice
      [
        { Particle_set.name = "A"; charge = 4.; count = 2 };
        { Particle_set.name = "B"; charge = 6.; count = 2 };
      ]
  in
  Ps.set_all io
    [|
      Vec3.make 1. 1. 1.; Vec3.make 4. 4. 1.; Vec3.make 1. 4. 4.;
      Vec3.make 4. 1. 4.;
    |];
  io

let functors2 = Jastrow_sets.ee_set ~cutoff:2.9
let functors1 = [| Jastrow_sets.one_body ~depth:0.4 ~range:0.9 ~cutoff:2.9 ();
                   Jastrow_sets.one_body ~depth:0.6 ~range:0.7 ~cutoff:2.9 () |]

(* Build matching Ref and Current J2 components over the same electrons. *)
let j2_pair ps =
  let tref = AAref.create ps and tsoa = AAsoa.create ps in
  AAref.evaluate tref ps;
  AAsoa.evaluate tsoa ps;
  let jref = J2.create_ref ~table:tref ~functors:functors2 ps in
  let jopt = J2.create_opt ~table:tsoa ~functors:functors2 ps in
  ignore (jref.W.evaluate_log ps);
  ignore (jopt.W.evaluate_log ps);
  (tref, tsoa, jref, jopt)

let test_j2_log_agreement () =
  let ps, _ = electrons ~seed:1 10 in
  let _, _, jref, jopt = j2_pair ps in
  checkf 1e-10 "log psi agree" (jref.W.evaluate_log ps) (jopt.W.evaluate_log ps)

let test_j2_ratio_agreement () =
  let ps, rng = electrons ~seed:2 10 in
  let tref, tsoa, jref, jopt = j2_pair ps in
  for k = 0 to 9 do
    let pos =
      Vec3.add (Ps.get ps k)
        (Vec3.make (Xoshiro.gaussian rng *. 0.3) (Xoshiro.gaussian rng *. 0.3)
           (Xoshiro.gaussian rng *. 0.3))
    in
    AAsoa.prepare tsoa ps k;
    Ps.propose ps k pos;
    AAref.move tref ps k pos;
    AAsoa.move tsoa ps k pos;
    let r1 = jref.W.ratio ps k and r2 = jopt.W.ratio ps k in
    checkf 1e-10 "ratio" r1 r2;
    let r1g, g1 = jref.W.ratio_grad ps k in
    let r2g, g2 = jopt.W.ratio_grad ps k in
    checkf 1e-10 "ratio_grad r" r1g r2g;
    check_bool "ratio_grad g" true (Vec3.equal ~tol:1e-9 g1 g2);
    Ps.reject ps
  done

let test_j2_ratio_matches_log_difference () =
  (* ratio must equal exp(logψ(R') − logψ(R)) via brute recompute. *)
  let ps, _ = electrons ~seed:3 8 in
  let _, tsoa, _, jopt = j2_pair ps in
  let k = 3 in
  let oldpos = Ps.get ps k in
  let newpos = Vec3.add oldpos (Vec3.make 0.4 (-0.2) 0.3) in
  AAsoa.prepare tsoa ps k;
  Ps.propose ps k newpos;
  AAsoa.move tsoa ps k newpos;
  let r = jopt.W.ratio ps k in
  Ps.reject ps;
  (* recompute logs from scratch at both configurations *)
  let log_old = jopt.W.evaluate_log ps in
  Ps.set ps k newpos;
  AAsoa.evaluate tsoa ps;
  let log_new = jopt.W.evaluate_log ps in
  checkf 1e-9 "ratio = exp(dlog)" (exp (log_new -. log_old)) r

let test_j2_accept_consistency () =
  (* After a sequence of accepted moves the incremental state must match
     a from-scratch evaluation. *)
  let ps, rng = electrons ~seed:4 10 in
  let tref, tsoa, jref, jopt = j2_pair ps in
  for k = 0 to 9 do
    let pos =
      Vec3.add (Ps.get ps k)
        (Vec3.make (Xoshiro.gaussian rng *. 0.2) (Xoshiro.gaussian rng *. 0.2)
           (Xoshiro.gaussian rng *. 0.2))
    in
    AAsoa.prepare tsoa ps k;
    Ps.propose ps k pos;
    AAref.move tref ps k pos;
    AAsoa.move tsoa ps k pos;
    let r = jopt.W.ratio ps k in
    ignore (jref.W.ratio ps k);
    if r > 0.3 then begin
      jref.W.accept ps k;
      jopt.W.accept ps k;
      AAref.update tref k;
      AAsoa.accept tsoa k;
      Ps.accept ps
    end
    else Ps.reject ps
  done;
  (* grads from the incrementally maintained opt state *)
  let g_inc = jopt.W.grad ps 5 in
  AAref.evaluate tref ps;
  AAsoa.evaluate tsoa ps;
  let lref = jref.W.evaluate_log ps in
  let lopt = jopt.W.evaluate_log ps in
  checkf 1e-9 "logs equal after sweep" lref lopt;
  let g_fresh = jopt.W.grad ps 5 in
  check_bool "incremental grad matches fresh" true
    (Vec3.equal ~tol:1e-8 g_inc g_fresh)

let test_j2_grad_finite_difference () =
  let ps, _ = electrons ~seed:5 8 in
  let _, tsoa, _, jopt = j2_pair ps in
  let k = 2 in
  let g = jopt.W.grad ps k in
  let h = 1e-6 in
  let log_at pos =
    let saved = Ps.get ps k in
    Ps.set ps k pos;
    AAsoa.evaluate tsoa ps;
    let l = jopt.W.evaluate_log ps in
    Ps.set ps k saved;
    l
  in
  let p = Ps.get ps k in
  let fd d =
    (log_at (Vec3.add p d) -. log_at (Vec3.sub p d)) /. (2. *. h)
  in
  checkf 1e-5 "gx" (fd (Vec3.make h 0. 0.)) g.Vec3.x;
  checkf 1e-5 "gy" (fd (Vec3.make 0. h 0.)) g.Vec3.y;
  checkf 1e-5 "gz" (fd (Vec3.make 0. 0. h)) g.Vec3.z;
  (* restore table state *)
  AAsoa.evaluate tsoa ps;
  ignore (jopt.W.evaluate_log ps)

let test_j2_gl_laplacian_fd () =
  let ps, _ = electrons ~seed:6 6 in
  let _, tsoa, _, jopt = j2_pair ps in
  let gl = W.make_gl 6 in
  W.clear_gl gl;
  jopt.W.accumulate_gl ps gl;
  let k = 1 in
  let h = 1e-4 in
  let log_at pos =
    let saved = Ps.get ps k in
    Ps.set ps k pos;
    AAsoa.evaluate tsoa ps;
    let l = jopt.W.evaluate_log ps in
    Ps.set ps k saved;
    l
  in
  let p = Ps.get ps k in
  let l0 = log_at p in
  let lap_fd =
    (log_at (Vec3.add p (Vec3.make h 0. 0.))
    +. log_at (Vec3.sub p (Vec3.make h 0. 0.))
    +. log_at (Vec3.add p (Vec3.make 0. h 0.))
    +. log_at (Vec3.sub p (Vec3.make 0. h 0.))
    +. log_at (Vec3.add p (Vec3.make 0. 0. h))
    +. log_at (Vec3.sub p (Vec3.make 0. 0. h))
    -. (6. *. l0))
    /. (h *. h)
  in
  checkf 1e-3 "laplacian of log" lap_fd gl.W.glap.(k);
  AAsoa.evaluate tsoa ps;
  ignore (jopt.W.evaluate_log ps)

(* ---------- J1 ---------- *)

let j1_pair ps io =
  let tref = ABref.create ~sources:io ps in
  let tsoa = ABsoa.create ~sources:io ps in
  ABref.evaluate tref ps;
  ABsoa.evaluate tsoa ps;
  let jref = J1.create_ref ~table:tref ~functors:functors1 ~ions:io ps in
  let jopt = J1.create_opt ~table:tsoa ~functors:functors1 ~ions:io ps in
  ignore (jref.W.evaluate_log ps);
  ignore (jopt.W.evaluate_log ps);
  (tref, tsoa, jref, jopt)

let test_j1_agreement () =
  let ps, rng = electrons ~seed:7 8 in
  let io = ions () in
  let tref, tsoa, jref, jopt = j1_pair ps io in
  checkf 1e-10 "log" (jref.W.evaluate_log ps) (jopt.W.evaluate_log ps);
  for k = 0 to 7 do
    let pos =
      Vec3.add (Ps.get ps k) (Vec3.make (Xoshiro.gaussian rng *. 0.3) 0.1 0.)
    in
    Ps.propose ps k pos;
    ABref.move tref pos;
    ABsoa.move tsoa pos;
    let r1 = jref.W.ratio ps k and r2 = jopt.W.ratio ps k in
    checkf 1e-10 "ratio" r1 r2;
    let _, g1 = jref.W.ratio_grad ps k in
    let _, g2 = jopt.W.ratio_grad ps k in
    check_bool "grad" true (Vec3.equal ~tol:1e-9 g1 g2);
    Ps.reject ps
  done

let test_j1_grad_fd () =
  let ps, _ = electrons ~seed:8 6 in
  let io = ions () in
  let _, tsoa, _, jopt = j1_pair ps io in
  let k = 4 in
  let g = jopt.W.grad ps k in
  let h = 1e-6 in
  let log_at pos =
    let saved = Ps.get ps k in
    Ps.set ps k pos;
    ABsoa.evaluate tsoa ps;
    let l = jopt.W.evaluate_log ps in
    Ps.set ps k saved;
    l
  in
  let p = Ps.get ps k in
  let fd d = (log_at (Vec3.add p d) -. log_at (Vec3.sub p d)) /. (2. *. h) in
  checkf 1e-5 "gx" (fd (Vec3.make h 0. 0.)) g.Vec3.x;
  checkf 1e-5 "gz" (fd (Vec3.make 0. 0. h)) g.Vec3.z

(* ---------- SPO engines ---------- *)

let test_plane_wave_vgl_fd () =
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:7 in
  let vgl = Spo.make_vgl 7 in
  let out1 = Array.make 7 0. and out2 = Array.make 7 0. in
  let r = Vec3.make 1.1 2.7 0.4 in
  spo.Spo.eval_vgl r vgl;
  let h = 1e-6 in
  for m = 0 to 6 do
    spo.Spo.eval_v (Vec3.add r (Vec3.make h 0. 0.)) out1;
    spo.Spo.eval_v (Vec3.sub r (Vec3.make h 0. 0.)) out2;
    checkf 1e-5 "pw gx" ((out1.(m) -. out2.(m)) /. (2. *. h)) vgl.Spo.gx.(m)
  done

let test_harmonic_vgl_fd () =
  let spo = Spo_analytic.harmonic ~omega:1.1 ~n_orb:6 in
  let vgl = Spo.make_vgl 6 in
  let out1 = Array.make 6 0. and out2 = Array.make 6 0. in
  let r = Vec3.make 0.4 (-0.6) 0.2 in
  spo.Spo.eval_vgl r vgl;
  let h = 1e-5 in
  for m = 0 to 5 do
    spo.Spo.eval_v (Vec3.add r (Vec3.make 0. h 0.)) out1;
    spo.Spo.eval_v (Vec3.sub r (Vec3.make 0. h 0.)) out2;
    checkf 1e-4 "ho gy" ((out1.(m) -. out2.(m)) /. (2. *. h)) vgl.Spo.gy.(m)
  done;
  (* laplacian via eigenvalue: for HO eigenstates,
     −½∇²φ = (E − ½ω²r²)φ. *)
  let omega = 1.1 in
  let states = [| (0, 0, 0); (1, 0, 0); (0, 1, 0); (0, 0, 1) |] in
  Array.iteri
    (fun m (nx, ny, nz) ->
      let e = omega *. (float_of_int (nx + ny + nz) +. 1.5) in
      let expected =
        -2. *. (e -. (0.5 *. omega *. omega *. Vec3.norm2 r)) *. vgl.Spo.v.(m)
      in
      checkf 1e-8
        (Printf.sprintf "ho laplacian eigen m=%d" m)
        expected vgl.Spo.lap.(m))
    states

let test_bspline_spo_metric () =
  (* Non-cubic cell: the Cartesian gradients from the metric transform
     must match finite differences of the values. *)
  let lat = Lattice.orthorhombic 3. 5. 7. in
  let module B3 = Oqmc_spline.Bspline3d.Make (Precision.F64) in
  let module SpoB = Spo_bspline.Make (Precision.F64) in
  let table = B3.create ~nx:10 ~ny:10 ~nz:10 ~n_orb:2 () in
  let rng = Xoshiro.create 9 in
  B3.fill table (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let spo = SpoB.create ~table ~lattice:lat in
  let vgl = Spo.make_vgl 2 in
  let o1 = Array.make 2 0. and o2 = Array.make 2 0. in
  let r = Vec3.make 1.3 2.9 5.1 in
  spo.Spo.eval_vgl r vgl;
  let h = 1e-5 in
  let fd m d =
    spo.Spo.eval_v (Vec3.add r d) o1;
    spo.Spo.eval_v (Vec3.sub r d) o2;
    (o1.(m) -. o2.(m)) /. (2. *. h)
  in
  for m = 0 to 1 do
    checkf 1e-4 "gx" (fd m (Vec3.make h 0. 0.)) vgl.Spo.gx.(m);
    checkf 1e-4 "gy" (fd m (Vec3.make 0. h 0.)) vgl.Spo.gy.(m);
    checkf 1e-4 "gz" (fd m (Vec3.make 0. 0. h)) vgl.Spo.gz.(m)
  done;
  (* laplacian via 6-point stencil *)
  let m = 0 in
  let v0 = vgl.Spo.v.(m) in
  let at d = spo.Spo.eval_v (Vec3.add r d) o1; o1.(m) in
  let lap_fd =
    (at (Vec3.make h 0. 0.) +. at (Vec3.make (-.h) 0. 0.)
    +. at (Vec3.make 0. h 0.) +. at (Vec3.make 0. (-.h) 0.)
    +. at (Vec3.make 0. 0. h) +. at (Vec3.make 0. 0. (-.h))
    -. (6. *. v0))
    /. (h *. h)
  in
  checkf 2e-2 "laplacian" lap_fd vgl.Spo.lap.(m)

(* ---------- Slater determinant ---------- *)

let det_setup seed =
  let ps, rng = electrons ~seed 8 in
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
  let d_up = Det.create ~spo ~first:0 ~count:4 ps in
  let d_dn = Det.create ~spo ~first:4 ~count:4 ps in
  ignore (d_up.W.evaluate_log ps);
  ignore (d_dn.W.evaluate_log ps);
  (ps, rng, d_up, d_dn)

let test_det_ratio_vs_log () =
  let ps, _, d_up, _ = det_setup 10 in
  let k = 2 in
  let oldpos = Ps.get ps k in
  let newpos = Vec3.add oldpos (Vec3.make 0.5 0.2 (-0.3)) in
  let log_old = d_up.W.evaluate_log ps in
  Ps.propose ps k newpos;
  let r = d_up.W.ratio ps k in
  Ps.reject ps;
  Ps.set ps k newpos;
  let log_new = d_up.W.evaluate_log ps in
  checkf 1e-8 "|ratio| = exp(dlog)" (exp (log_new -. log_old)) (abs_float r)

let test_det_out_of_group () =
  let ps, _, d_up, d_dn = det_setup 11 in
  Ps.propose ps 6 (Vec3.make 1. 1. 1.);
  checkf 1e-12 "up det ignores down move" 1. (d_up.W.ratio ps 6);
  check_bool "down det responds" true (abs_float (d_dn.W.ratio ps 6) <> 1.);
  Ps.reject ps

let test_det_accept_tracks () =
  let ps, rng, d_up, _ = det_setup 12 in
  (* accept several moves, then compare against a fresh recompute *)
  let log_running = ref (d_up.W.evaluate_log ps) in
  for k = 0 to 3 do
    let pos =
      Vec3.add (Ps.get ps k) (Vec3.make (Xoshiro.gaussian rng *. 0.2) 0.1 0.)
    in
    Ps.propose ps k pos;
    let r = d_up.W.ratio ps k in
    if abs_float r > 0.3 then begin
      d_up.W.accept ps k;
      Ps.accept ps;
      log_running := !log_running +. log (abs_float r)
    end
    else Ps.reject ps
  done;
  let fresh = d_up.W.evaluate_log ps in
  checkf 1e-8 "incremental log tracks" fresh !log_running

let test_det_grad_fd () =
  let ps, _, d_up, _ = det_setup 13 in
  let k = 1 in
  let g = d_up.W.grad ps k in
  let h = 1e-6 in
  let log_at pos =
    let saved = Ps.get ps k in
    Ps.set ps k pos;
    let l = d_up.W.evaluate_log ps in
    Ps.set ps k saved;
    l
  in
  let p = Ps.get ps k in
  let fd d = (log_at (Vec3.add p d) -. log_at (Vec3.sub p d)) /. (2. *. h) in
  checkf 1e-5 "gx" (fd (Vec3.make h 0. 0.)) g.Vec3.x;
  checkf 1e-5 "gy" (fd (Vec3.make 0. h 0.)) g.Vec3.y;
  ignore (d_up.W.evaluate_log ps)

let test_det_delayed_same_physics () =
  let ps, rng = electrons ~seed:14 8 in
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
  let d_sm = Det.create ~spo ~first:0 ~count:4 ps in
  let d_delayed = Det.create ~scheme:(Det.Delayed 3) ~spo ~first:0 ~count:4 ps in
  ignore (d_sm.W.evaluate_log ps);
  ignore (d_delayed.W.evaluate_log ps);
  for k = 0 to 3 do
    let pos =
      Vec3.add (Ps.get ps k) (Vec3.make (Xoshiro.gaussian rng *. 0.2) 0. 0.)
    in
    Ps.propose ps k pos;
    let r1 = d_sm.W.ratio ps k in
    let r2 = d_delayed.W.ratio ps k in
    checkf 1e-8 "delayed ratio" r1 r2;
    if abs_float r1 > 0.3 then begin
      d_sm.W.accept ps k;
      d_delayed.W.accept ps k;
      Ps.accept ps
    end
    else Ps.reject ps
  done;
  checkf 1e-7 "final logs" (d_sm.W.evaluate_log ps)
    (d_delayed.W.evaluate_log ps)

(* ---------- crowd-batched kernels ---------- *)

let same_f64 name a b =
  check_bool name true (Int64.bits_of_float a = Int64.bits_of_float b)

(* The batched Jastrow/determinant kernels must match the scalar
   component closures bit-for-bit: drive two identical replicas of each
   crowd slot, one through the batch entry points and one through the
   scalar W.t closures, over a random move/accept/reject sequence. *)
let test_j2_batch_identity () =
  let m = 3 in
  let mk seed =
    let ps, _ = electrons ~seed 8 in
    let t = AAsoa.create ps in
    AAsoa.evaluate t ps;
    (ps, t)
  in
  let psb = Array.init m (fun s -> mk (30 + s)) in
  let pss = Array.init m (fun s -> mk (30 + s)) in
  let sts =
    Array.map (fun (ps, t) -> J2.make_opt ~table:t ~functors:functors2 ps) psb
  in
  let jb = Array.map J2.opt_component sts in
  let js =
    Array.map (fun (ps, t) -> J2.create_opt ~table:t ~functors:functors2 ps) pss
  in
  Array.iteri (fun s (ps, _) -> ignore (jb.(s).W.evaluate_log ps)) psb;
  Array.iteri (fun s (ps, _) -> ignore (js.(s).W.evaluate_log ps)) pss;
  let rng = Xoshiro.create 9 in
  let ratio = Array.make m 1.
  and gx = Array.make m 0.
  and gy = Array.make m 0.
  and gz = Array.make m 0.
  and acc = Array.make m false in
  for _sweep = 1 to 3 do
    for k = 0 to 7 do
      (* prepare, then current-position gradient (engine stage order) *)
      for s = 0 to m - 1 do
        let psB, tB = psb.(s) and psS, tS = pss.(s) in
        AAsoa.prepare tB psB k;
        AAsoa.prepare tS psS k
      done;
      Array.fill gx 0 m 0.;
      Array.fill gy 0 m 0.;
      Array.fill gz 0 m 0.;
      J2.grad_batch sts ~k ~m ~gx ~gy ~gz;
      for s = 0 to m - 1 do
        let psS, _ = pss.(s) in
        let g = js.(s).W.grad psS k in
        same_f64 "j2 grad x" g.Vec3.x gx.(s);
        same_f64 "j2 grad y" g.Vec3.y gy.(s);
        same_f64 "j2 grad z" g.Vec3.z gz.(s)
      done;
      (* identical proposed moves on both replicas *)
      let dr =
        Array.init m (fun _ ->
            Vec3.make
              (Xoshiro.gaussian rng *. 0.4)
              (Xoshiro.gaussian rng *. 0.4)
              (Xoshiro.gaussian rng *. 0.4))
      in
      for s = 0 to m - 1 do
        let psB, tB = psb.(s) and psS, tS = pss.(s) in
        let np = Vec3.add (Ps.get psB k) dr.(s) in
        Ps.propose psB k np;
        Ps.propose psS k np;
        AAsoa.move tB psB k np;
        AAsoa.move tS psS k np;
        acc.(s) <- Xoshiro.uniform rng < 0.5
      done;
      Array.fill ratio 0 m 1.;
      Array.fill gx 0 m 0.;
      Array.fill gy 0 m 0.;
      Array.fill gz 0 m 0.;
      J2.ratio_grad_batch sts ~k ~m ~ratio ~gx ~gy ~gz;
      for s = 0 to m - 1 do
        let psS, _ = pss.(s) in
        let r, g = js.(s).W.ratio_grad psS k in
        same_f64 "j2 ratio" r ratio.(s);
        same_f64 "j2 rg x" g.Vec3.x gx.(s);
        same_f64 "j2 rg y" g.Vec3.y gy.(s);
        same_f64 "j2 rg z" g.Vec3.z gz.(s)
      done;
      J2.accept_batch sts ~k ~m ~acc;
      for s = 0 to m - 1 do
        let psB, tB = psb.(s) and psS, tS = pss.(s) in
        if acc.(s) then begin
          js.(s).W.accept psS k;
          AAsoa.accept tB k;
          AAsoa.accept tS k;
          Ps.accept psB;
          Ps.accept psS
        end
        else begin
          js.(s).W.reject psS k;
          Ps.reject psB;
          Ps.reject psS
        end
      done
    done
  done;
  (* incremental state survives the whole sequence identically *)
  for s = 0 to m - 1 do
    let psB, _ = psb.(s) and psS, _ = pss.(s) in
    same_f64 "j2 final log" (js.(s).W.evaluate_log psS)
      (jb.(s).W.evaluate_log psB)
  done

let test_j1_batch_identity () =
  let m = 3 in
  let mk seed =
    let ps, _ = electrons ~seed 8 in
    let io = ions () in
    let t = ABsoa.create ~sources:io ps in
    ABsoa.evaluate t ps;
    (ps, io, t)
  in
  let psb = Array.init m (fun s -> mk (60 + s)) in
  let pss = Array.init m (fun s -> mk (60 + s)) in
  let sts =
    Array.map
      (fun (ps, io, t) -> J1.make_opt ~table:t ~functors:functors1 ~ions:io ps)
      psb
  in
  let jb = Array.map J1.opt_component sts in
  let js =
    Array.map
      (fun (ps, io, t) ->
        J1.create_opt ~table:t ~functors:functors1 ~ions:io ps)
      pss
  in
  Array.iteri (fun s (ps, _, _) -> ignore (jb.(s).W.evaluate_log ps)) psb;
  Array.iteri (fun s (ps, _, _) -> ignore (js.(s).W.evaluate_log ps)) pss;
  let rng = Xoshiro.create 10 in
  let ratio = Array.make m 1.
  and gx = Array.make m 0.
  and gy = Array.make m 0.
  and gz = Array.make m 0.
  and acc = Array.make m false in
  for _sweep = 1 to 3 do
    for k = 0 to 7 do
      Array.fill gx 0 m 0.;
      Array.fill gy 0 m 0.;
      Array.fill gz 0 m 0.;
      J1.grad_batch sts ~k ~m ~gx ~gy ~gz;
      for s = 0 to m - 1 do
        let psS, _, _ = pss.(s) in
        let g = js.(s).W.grad psS k in
        same_f64 "j1 grad x" g.Vec3.x gx.(s);
        same_f64 "j1 grad y" g.Vec3.y gy.(s);
        same_f64 "j1 grad z" g.Vec3.z gz.(s)
      done;
      let dr =
        Array.init m (fun _ ->
            Vec3.make
              (Xoshiro.gaussian rng *. 0.4)
              (Xoshiro.gaussian rng *. 0.4)
              (Xoshiro.gaussian rng *. 0.4))
      in
      for s = 0 to m - 1 do
        let psB, _, tB = psb.(s) and psS, _, tS = pss.(s) in
        let np = Vec3.add (Ps.get psB k) dr.(s) in
        Ps.propose psB k np;
        Ps.propose psS k np;
        ABsoa.move tB np;
        ABsoa.move tS np;
        acc.(s) <- Xoshiro.uniform rng < 0.5
      done;
      Array.fill ratio 0 m 1.;
      Array.fill gx 0 m 0.;
      Array.fill gy 0 m 0.;
      Array.fill gz 0 m 0.;
      J1.ratio_grad_batch sts ~k ~m ~ratio ~gx ~gy ~gz;
      for s = 0 to m - 1 do
        let psS, _, _ = pss.(s) in
        let r, g = js.(s).W.ratio_grad psS k in
        same_f64 "j1 ratio" r ratio.(s);
        same_f64 "j1 rg x" g.Vec3.x gx.(s);
        same_f64 "j1 rg y" g.Vec3.y gy.(s);
        same_f64 "j1 rg z" g.Vec3.z gz.(s)
      done;
      J1.accept_batch sts ~k ~m ~acc;
      for s = 0 to m - 1 do
        let psB, _, tB = psb.(s) and psS, _, tS = pss.(s) in
        if acc.(s) then begin
          js.(s).W.accept psS k;
          ABsoa.accept tB k;
          ABsoa.accept tS k;
          Ps.accept psB;
          Ps.accept psS
        end
        else begin
          js.(s).W.reject psS k;
          Ps.reject psB;
          Ps.reject psS
        end
      done
    done
  done;
  for s = 0 to m - 1 do
    let psB, _, _ = psb.(s) and psS, _, _ = pss.(s) in
    same_f64 "j1 final log" (js.(s).W.evaluate_log psS)
      (jb.(s).W.evaluate_log psB)
  done

(* A walker buffer holding [d]'s inverse and log |det|. *)
let det_buffer (d : W.t) ps =
  let buf = Wbuffer.create () in
  d.W.register buf;
  Wbuffer.rewind buf;
  d.W.update_buffer ps buf;
  buf

(* [d]'s stored orbital rows against a fresh evaluation: a new twin
   takes [d]'s inverse through a walker buffer, which leaves the twin's
   rows stale, so its ∇ log D and ∇² log D come from fresh eval_vgl calls
   at [Ps.get] (the analytic SPO's batch loops eval_vgl).  Both must give
   the same bits. *)
let check_rows_fresh name ~scheme ~spo (d : W.t) ps =
  let buf = det_buffer d ps in
  let twin = Det.create ~scheme ~spo ~first:0 ~count:4 ps in
  Wbuffer.rewind buf;
  twin.W.copy_from_buffer ps buf;
  let n = Ps.n ps in
  let rows = W.make_gl n and fresh = W.make_gl n in
  d.W.accumulate_gl ps rows;
  twin.W.accumulate_gl ps fresh;
  for k = 0 to n - 1 do
    same_f64 (name ^ ": row grad x") fresh.W.ggx.(k) rows.W.ggx.(k);
    same_f64 (name ^ ": row grad y") fresh.W.ggy.(k) rows.W.ggy.(k);
    same_f64 (name ^ ": row grad z") fresh.W.ggz.(k) rows.W.ggz.(k);
    same_f64 (name ^ ": row lap") fresh.W.glap.(k) rows.W.glap.(k)
  done

(* Drive one determinant through the crowd entry points
   (grad_into/ratio_grad_into/accept_move on a Det.state) and a replica
   through the scalar closures; every ratio/gradient must agree
   bit-for-bit, for Sherman-Morrison and for delayed-k updates.  After
   every accept or reject, and after each sweep's restore of the
   sweep-start walker (positions + [copy_from_buffer]), both replicas'
   stored rows must match a fresh evaluation. *)
let det_batch_identity ~scheme () =
  let ps_b, _ = electrons ~seed:44 8 in
  let ps_s, _ = electrons ~seed:44 8 in
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
  let st = Det.make ~scheme ~spo ~first:0 ~count:4 ps_b in
  let cb = Det.component st in
  let cs = Det.create ~scheme ~spo ~first:0 ~count:4 ps_s in
  ignore (cb.W.evaluate_log ps_b);
  ignore (cs.W.evaluate_log ps_s);
  let check_rows name =
    check_rows_fresh ("crowd " ^ name) ~scheme ~spo cb ps_b;
    check_rows_fresh ("scalar " ^ name) ~scheme ~spo cs ps_s
  in
  let vgl = Spo.make_vgl 4 in
  let ratio = [| 1. |]
  and gx = [| 0. |]
  and gy = [| 0. |]
  and gz = [| 0. |] in
  let rng = Xoshiro.create 51 in
  for _sweep = 1 to 3 do
    let start = Array.init 8 (Ps.get ps_b) in
    let buf_b = det_buffer cb ps_b and buf_s = det_buffer cs ps_s in
    for k = 0 to 7 do
      gx.(0) <- 0.;
      gy.(0) <- 0.;
      gz.(0) <- 0.;
      Det.grad_into st k ~s:0 ~gx ~gy ~gz;
      if k < 4 then begin
        let g = cs.W.grad ps_s k in
        same_f64 "det grad x" g.Vec3.x gx.(0);
        same_f64 "det grad y" g.Vec3.y gy.(0);
        same_f64 "det grad z" g.Vec3.z gz.(0)
      end
      else begin
        same_f64 "out-of-group grad x" 0. gx.(0);
        same_f64 "out-of-group grad y" 0. gy.(0);
        same_f64 "out-of-group grad z" 0. gz.(0)
      end;
      let np =
        Vec3.add (Ps.get ps_b k)
          (Vec3.make
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3))
      in
      Ps.propose ps_b k np;
      Ps.propose ps_s k np;
      spo.Spo.eval_vgl np vgl;
      ratio.(0) <- 1.;
      gx.(0) <- 0.;
      gy.(0) <- 0.;
      gz.(0) <- 0.;
      Det.ratio_grad_into st vgl k ~s:0 ~ratio ~gx ~gy ~gz;
      let r, g = cs.W.ratio_grad ps_s k in
      same_f64 "det ratio" r ratio.(0);
      same_f64 "det rg x" g.Vec3.x gx.(0);
      same_f64 "det rg y" g.Vec3.y gy.(0);
      same_f64 "det rg z" g.Vec3.z gz.(0);
      if Xoshiro.uniform rng < 0.6 then begin
        Det.accept_move st k;
        cs.W.accept ps_s k;
        Ps.accept ps_b;
        Ps.accept ps_s;
        check_rows "after accept"
      end
      else begin
        cb.W.reject ps_b k;
        cs.W.reject ps_s k;
        Ps.reject ps_b;
        Ps.reject ps_s;
        check_rows "after reject"
      end
    done;
    (* restore the sweep-start walker: its positions, then the buffer *)
    Ps.set_all ps_b start;
    Ps.set_all ps_s start;
    Wbuffer.rewind buf_b;
    Wbuffer.rewind buf_s;
    cb.W.copy_from_buffer ps_b buf_b;
    cs.W.copy_from_buffer ps_s buf_s;
    check_rows "after copy_from_buffer"
  done;
  same_f64 "det final log" (cs.W.evaluate_log ps_s) (cb.W.evaluate_log ps_b)

let test_det_batch_identity_sm = det_batch_identity ~scheme:Det.Sherman_morrison

let test_det_batch_identity_delayed =
  det_batch_identity ~scheme:(Det.Delayed 3)

(* Delayed-k sweep: every delay rank must track a fresh LU recompute
   through a long random accept/reject sequence. *)
let test_det_delayed_k_sweep () =
  List.iter
    (fun kd ->
      let ps, rng = electrons ~seed:(70 + kd) 8 in
      let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
      let scheme = if kd = 1 then Det.Sherman_morrison else Det.Delayed kd in
      let d = Det.create ~scheme ~spo ~first:0 ~count:4 ps in
      let log_running = ref (d.W.evaluate_log ps) in
      for _sweep = 1 to 4 do
        for k = 0 to 3 do
          let np =
            Vec3.add (Ps.get ps k)
              (Vec3.make
                 (Xoshiro.gaussian rng *. 0.3)
                 (Xoshiro.gaussian rng *. 0.3)
                 (Xoshiro.gaussian rng *. 0.3))
          in
          Ps.propose ps k np;
          let r = d.W.ratio ps k in
          if abs_float r > 0.3 then begin
            d.W.accept ps k;
            Ps.accept ps;
            log_running := !log_running +. log (abs_float r)
          end
          else begin
            d.W.reject ps k;
            Ps.reject ps
          end
        done
      done;
      (* fresh LU recompute at the final configuration *)
      checkf 1e-8
        (Printf.sprintf "delay %d tracks LU" kd)
        (d.W.evaluate_log ps) !log_running)
    [ 1; 2; 4; 8 ]

(* ---------- mixed-precision drift bounds ---------- *)

module J2_32 = Jastrow_two.Make (P) (Precision.F32)
module J1_32 = Jastrow_one.Make (P) (Precision.F32)
module Det32 = Slater_det.Make (P) (Precision.F32)

(* f32 distance rows + f32-narrowed spline coefficients (the
   precision_dt and precision_jastrow knobs together) against the pure
   f64 components over a mirrored PbyP sweep.  Storage rounds once per
   element while every sum stays double, so log and ratio drift stay
   within a few f32 roundings of the pair terms; the bound here is the
   measured envelope that the production watchdog audit arms against. *)
let test_jastrow_f32_drift () =
  let n = 10 in
  let ps64, _ = electrons ~seed:81 n in
  let ps32, rng = electrons ~seed:81 n in
  let io64 = ions () and io32 = ions () in
  let t64 = AAsoa.create ps64 and t32 = J2_32.Dsoa.create ps32 in
  AAsoa.evaluate t64 ps64;
  J2_32.Dsoa.evaluate t32 ps32;
  let ab64 = ABsoa.create ~sources:io64 ps64 in
  let ab32 = J1_32.Dsoa.create ~sources:io32 ps32 in
  ABsoa.evaluate ab64 ps64;
  J1_32.Dsoa.evaluate ab32 ps32;
  let narrow = Oqmc_spline.Cubic_spline_1d.narrow in
  let j2_64 = J2.create_opt ~table:t64 ~functors:functors2 ps64 in
  let j2_32 =
    J2_32.create_opt ~table:t32
      ~functors:(Array.map (Array.map narrow) functors2)
      ps32
  in
  let j1_64 = J1.create_opt ~table:ab64 ~functors:functors1 ~ions:io64 ps64 in
  let j1_32 =
    J1_32.create_opt ~table:ab32
      ~functors:(Array.map narrow functors1)
      ~ions:io32 ps32
  in
  let tol = 1e-4 in
  checkf tol "j2 initial log" (j2_64.W.evaluate_log ps64)
    (j2_32.W.evaluate_log ps32);
  checkf tol "j1 initial log" (j1_64.W.evaluate_log ps64)
    (j1_32.W.evaluate_log ps32);
  for k = 0 to n - 1 do
    let np =
      Vec3.add (Ps.get ps64 k)
        (Vec3.make
           (Xoshiro.gaussian rng *. 0.3)
           (Xoshiro.gaussian rng *. 0.3)
           (Xoshiro.gaussian rng *. 0.3))
    in
    AAsoa.prepare t64 ps64 k;
    J2_32.Dsoa.prepare t32 ps32 k;
    Ps.propose ps64 k np;
    Ps.propose ps32 k np;
    AAsoa.move t64 ps64 k np;
    J2_32.Dsoa.move t32 ps32 k np;
    ABsoa.move ab64 np;
    J1_32.Dsoa.move ab32 np;
    checkf tol "j2 ratio" (j2_64.W.ratio ps64 k) (j2_32.W.ratio ps32 k);
    checkf tol "j1 ratio" (j1_64.W.ratio ps64 k) (j1_32.W.ratio ps32 k);
    if k mod 2 = 0 then begin
      j2_64.W.accept ps64 k;
      j2_32.W.accept ps32 k;
      j1_64.W.accept ps64 k;
      j1_32.W.accept ps32 k;
      AAsoa.accept t64 k;
      J2_32.Dsoa.accept t32 k;
      ABsoa.accept ab64 k;
      J1_32.Dsoa.accept ab32 k;
      Ps.accept ps64;
      Ps.accept ps32
    end
    else begin
      j2_64.W.reject ps64 k;
      j2_32.W.reject ps32 k;
      j1_64.W.reject ps64 k;
      j1_32.W.reject ps32 k;
      Ps.reject ps64;
      Ps.reject ps32
    end
  done;
  checkf tol "j2 final log" (j2_64.W.evaluate_log ps64)
    (j2_32.W.evaluate_log ps32);
  checkf tol "j1 final log" (j1_64.W.evaluate_log ps64)
    (j1_32.W.evaluate_log ps32)

(* f32 inverse/panel storage (the precision_inv knob) against the f64
   determinant over a mirrored accept/reject sweep, for both the
   Sherman-Morrison and the delayed scheme: B, the Slater matrix and
   the delayed panels narrow while every dot and update accumulates in
   double, so PbyP ratios track within a small multiple of f32 epsilon
   and the double-precision recompute anchors the final log. *)
let test_det_f32_inverse_drift () =
  List.iter
    (fun kd ->
      let ps64, rng = electrons ~seed:(90 + kd) 8 in
      let ps32, _ = electrons ~seed:(90 + kd) 8 in
      let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
      let scheme64 =
        if kd = 1 then Det.Sherman_morrison else Det.Delayed kd
      in
      let scheme32 =
        if kd = 1 then Det32.Sherman_morrison else Det32.Delayed kd
      in
      let d64 = Det.create ~scheme:scheme64 ~spo ~first:0 ~count:4 ps64 in
      let d32 = Det32.create ~scheme:scheme32 ~spo ~first:0 ~count:4 ps32 in
      ignore (d64.W.evaluate_log ps64);
      ignore (d32.W.evaluate_log ps32);
      for _sweep = 1 to 3 do
        for k = 0 to 3 do
          let np =
            Vec3.add (Ps.get ps64 k)
              (Vec3.make
                 (Xoshiro.gaussian rng *. 0.3)
                 (Xoshiro.gaussian rng *. 0.3)
                 (Xoshiro.gaussian rng *. 0.3))
          in
          Ps.propose ps64 k np;
          Ps.propose ps32 k np;
          let r64 = d64.W.ratio ps64 k and r32 = d32.W.ratio ps32 k in
          check_bool
            (Printf.sprintf "delay %d ratio drift" kd)
            true
            (abs_float (r64 -. r32) <= 1e-4 *. (1. +. abs_float r64));
          if abs_float r64 > 0.3 then begin
            d64.W.accept ps64 k;
            d32.W.accept ps32 k;
            Ps.accept ps64;
            Ps.accept ps32
          end
          else begin
            d64.W.reject ps64 k;
            d32.W.reject ps32 k;
            Ps.reject ps64;
            Ps.reject ps32
          end
        done
      done;
      checkf 1e-4
        (Printf.sprintf "delay %d final log drift" kd)
        (d64.W.evaluate_log ps64)
        (d32.W.evaluate_log ps32))
    [ 1; 3 ]

(* ---------- TrialWaveFunction composition ---------- *)

let test_twf_product () =
  let ps, _ = electrons ~seed:15 8 in
  let tsoa = AAsoa.create ps in
  AAsoa.evaluate tsoa ps;
  let spo = Spo_analytic.plane_waves ~lattice ~n_orb:4 in
  let d_up = Det.create ~spo ~first:0 ~count:4 ps in
  let d_dn = Det.create ~spo ~first:4 ~count:4 ps in
  let j2 = J2.create_opt ~table:tsoa ~functors:functors2 ps in
  let twf = Twf.create [ d_up; d_dn; j2 ] in
  let log_total = Twf.evaluate_log twf ps in
  let sum =
    d_up.W.evaluate_log ps +. d_dn.W.evaluate_log ps
    +. j2.W.evaluate_log ps
  in
  checkf 1e-10 "log is a sum" sum log_total;
  let k = 5 in
  AAsoa.prepare tsoa ps k;
  Ps.propose ps k (Vec3.add (Ps.get ps k) (Vec3.make 0.2 0.1 0.));
  AAsoa.move tsoa ps k (Ps.active_pos ps);
  let r = Twf.ratio twf ps k in
  let product =
    d_up.W.ratio ps k *. d_dn.W.ratio ps k *. j2.W.ratio ps k
  in
  checkf 1e-10 "ratio is a product" product r;
  Ps.reject ps

(* ---------- Jastrow C kernels against the OCaml oracle ---------- *)

(* The J2 and J1 kernels of jastrow_kernels_stubs.c against the OCaml
   loops they replaced (test/jastrow_oracle.ml), bit for bit, at walker
   precision [R] and table precision [D]: the recompute behind
   [evaluate_log], then moves whose old and proposed rows carry edge
   distances (0, the cutoff, one ulp inside it, where the interval index
   is clamped, and the last interval), each checked through the ratio,
   the gradient sums and the accumulators after the accept.  Splines have
   random coefficients (some narrowed to f32) and interval counts;
   species runs include runs of length 1. *)
module Jastrow_check (R : Precision.REAL) (D : Precision.REAL) = struct
  module Ps = Particle_set.Make (R)
  module Aa = Dt_aa_soa.Make (R) (D)
  module Ab = Dt_ab_soa.Make (R) (D)
  module J2 = Jastrow_two.Make (R) (D)
  module J1 = Jastrow_one.Make (R) (D)
  module W = Wfc.Make (R)
  module O = Jastrow_oracle.Make (R) (D)
  module Ad = Aa.A

  let bits = Int64.bits_of_float
  let same ok a b = if bits a <> bits b then ok := false
  let cutoff = 2.9
  let lattice = Lattice.orthorhombic 6.1 6.4 7.

  let spline rng =
    let nint = 1 + Xoshiro.int rng 9 in
    let c =
      Array.init (nint + 3) (fun _ -> Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
    in
    let sp = Oqmc_spline.Cubic_spline_1d.of_coefficients ~cutoff c in
    if Xoshiro.int rng 2 = 0 then Oqmc_spline.Cubic_spline_1d.narrow sp else sp

  (* The largest distance the table can store below the cutoff. *)
  let below_cut =
    if D.bytes = 4 then
      let x = D.round cutoff in
      if x < cutoff then x
      else Int32.float_of_bits (Int32.pred (Int32.bits_of_float x))
    else Float.pred cutoff

  let edges = [| 0.; cutoff; below_cut; cutoff *. 0.999; 1e-3 |]

  (* Overwrite a few entries of [a] from [o] with edge distances. *)
  let inject rng (a : Ad.t) ~o ~n =
    for e = 0 to Array.length edges - 1 do
      if n > 0 then Ad.set a (o + Xoshiro.int rng n) edges.(e)
    done

  let counts rng n =
    if n = 1 then [ 1 ]
    else
      match Xoshiro.int rng 3 with
      | 0 -> [ 1; n - 1 ]
      | 1 -> [ n - 1; 1 ]
      | _ -> [ n / 2; n - (n / 2) ]

  let set rng ~name counts =
    let ps =
      Ps.create ~lattice
        (List.mapi
           (fun i count ->
             { Particle_set.name = Printf.sprintf "%s%d" name i; charge = -1.;
               count })
           counts)
    in
    Ps.randomize ps (fun () -> Xoshiro.uniform rng);
    ps

  let state (c : W.t) ps n =
    let buf = Wbuffer.create () in
    c.W.register buf;
    Wbuffer.rewind buf;
    c.W.update_buffer ps buf;
    Array.sub (Wbuffer.contents buf) 0 (5 * n)

  let same_state ok a b = Array.iteri (fun i x -> same ok x b.(i)) a

  (* A proposal for electron k: prepare, propose, move the tables. *)
  let propose rng ps ~k ~move =
    let np =
      Vec3.add (Ps.get ps k)
        (Vec3.make (Xoshiro.gaussian rng) (Xoshiro.gaussian rng)
           (Xoshiro.gaussian rng))
    in
    Ps.propose ps k np;
    move (Ps.active_pos ps)

  let check_ratio ok (lr, ax, ay, az) (r : float array) gx gy gz =
    same ok r.(0) (exp lr);
    same ok gx.(0) ax;
    same ok gy.(0) ay;
    same ok gz.(0) az

  let j2 ~n ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let counts = counts rng n in
    let ns = List.length counts in
    let functors =
      let f = Array.make_matrix ns ns (spline rng) in
      for a = 0 to ns - 1 do
        for b = a to ns - 1 do
          let sp = spline rng in
          f.(a).(b) <- sp;
          f.(b).(a) <- sp
        done
      done;
      f
    in
    let ps = set rng ~name:"e" counts in
    let table = Aa.create ps in
    let st = J2.make_opt ~table ~functors ps in
    let c = J2.opt_component st in
    ignore (c.W.evaluate_log ps);
    let o = O.make_j2 ~table ~functors ps in
    O.j2_evaluate o;
    same_state ok (state c ps n) (O.j2_state o);
    let ratio = [| 1. |] and gx = [| 0. |] and gy = [| 0. |] in
    let gz = [| 0. |] in
    for _ = 1 to 6 do
      let k = Xoshiro.int rng n in
      Aa.prepare table ps k;
      propose rng ps ~k ~move:(fun p -> Aa.move table ps k p);
      inject rng (Aa.dist_data table) ~o:(k * Aa.row_stride table) ~n;
      inject rng (Aa.temp_dist table) ~o:0 ~n;
      ratio.(0) <- 1.;
      gx.(0) <- 0.;
      gy.(0) <- 0.;
      gz.(0) <- 0.;
      J2.ratio_grad_batch [| st |] ~k ~m:1 ~ratio ~gx ~gy ~gz;
      let want = O.j2_ratio_grad o k in
      check_ratio ok want ratio gx gy gz;
      same ok (c.W.ratio ps k) ratio.(0);
      J2.accept_batch [| st |] ~k ~m:1 ~acc:[| true |];
      O.j2_accept o k;
      same_state ok (state c ps n) (O.j2_state o);
      Aa.accept table k;
      Ps.accept ps
    done;
    !ok

  let j1 ~n ~ni ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let ion_counts = counts rng ni in
    let ions = set rng ~name:"ion" ion_counts in
    let functors = Array.of_list (List.map (fun _ -> spline rng) ion_counts) in
    let ps = set rng ~name:"e" (counts rng n) in
    let table = Ab.create ~sources:ions ps in
    Ab.evaluate table ps;
    for k = 0 to n - 1 do
      inject rng (Ab.dist_data table) ~o:(k * Ab.row_stride table) ~n:ni
    done;
    let st = J1.make_opt ~table ~functors ~ions ps in
    let c = J1.opt_component st in
    ignore (c.W.evaluate_log ps);
    let o = O.make_j1 ~table ~functors ~ions ps in
    O.j1_evaluate o;
    same_state ok (state c ps n) (O.j1_state o);
    let ratio = [| 1. |] and gx = [| 0. |] and gy = [| 0. |] in
    let gz = [| 0. |] in
    for _ = 1 to 6 do
      let k = Xoshiro.int rng n in
      propose rng ps ~k ~move:(fun p -> Ab.move table p);
      inject rng (Ab.temp_dist table) ~o:0 ~n:ni;
      ratio.(0) <- 1.;
      gx.(0) <- 0.;
      gy.(0) <- 0.;
      gz.(0) <- 0.;
      J1.ratio_grad_batch [| st |] ~k ~m:1 ~ratio ~gx ~gy ~gz;
      check_ratio ok (O.j1_ratio_grad o k) ratio gx gy gz;
      same ok (c.W.ratio ps k) ratio.(0);
      J1.accept_batch [| st |] ~k ~m:1 ~acc:[| true |];
      O.j1_accept o k;
      same_state ok (state c ps n) (O.j1_state o);
      Ab.accept table k;
      Ps.accept ps
    done;
    !ok
end

module Jc64 = Jastrow_check (Precision.F64) (Precision.F64)
module Jc64_32 = Jastrow_check (Precision.F64) (Precision.F32)
module Jc32 = Jastrow_check (Precision.F32) (Precision.F32)

let jastrow_sizes = QCheck.oneofl [ 1; 7; 24; 48; 65 ]

let jastrow_prop ~name run =
  QCheck.Test.make ~name ~count:24
    QCheck.(triple (int_range 0 2) jastrow_sizes (int_range 1 10000))
    (fun (prec, n, seed) -> run prec n seed)

let prop_j2_equals_oracle =
  jastrow_prop ~name:"J2 C equals the oracle bit for bit" (fun prec n seed ->
      match prec with
      | 0 -> Jc64.j2 ~n ~seed
      | 1 -> Jc64_32.j2 ~n ~seed
      | _ -> Jc32.j2 ~n ~seed)

let prop_j1_equals_oracle =
  jastrow_prop ~name:"J1 C equals the oracle bit for bit" (fun prec n seed ->
      let ni = 1 + (seed mod 9) in
      match prec with
      | 0 -> Jc64.j1 ~n ~ni ~seed
      | 1 -> Jc64_32.j1 ~n ~ni ~seed
      | _ -> Jc32.j1 ~n ~ni ~seed)

let () =
  Alcotest.run "wavefunction"
    [
      ( "jastrow2",
        [
          Alcotest.test_case "log agreement" `Quick test_j2_log_agreement;
          Alcotest.test_case "ratio agreement" `Quick test_j2_ratio_agreement;
          Alcotest.test_case "ratio = dlog" `Quick
            test_j2_ratio_matches_log_difference;
          Alcotest.test_case "accept consistency" `Quick
            test_j2_accept_consistency;
          Alcotest.test_case "grad fd" `Quick test_j2_grad_finite_difference;
          Alcotest.test_case "laplacian fd" `Quick test_j2_gl_laplacian_fd;
        ] );
      ( "jastrow1",
        [
          Alcotest.test_case "agreement" `Quick test_j1_agreement;
          Alcotest.test_case "grad fd" `Quick test_j1_grad_fd;
        ] );
      ( "spo",
        [
          Alcotest.test_case "plane wave fd" `Quick test_plane_wave_vgl_fd;
          Alcotest.test_case "harmonic fd + eigen" `Quick test_harmonic_vgl_fd;
          Alcotest.test_case "bspline metric" `Quick test_bspline_spo_metric;
        ] );
      ( "slater",
        [
          Alcotest.test_case "ratio vs log" `Quick test_det_ratio_vs_log;
          Alcotest.test_case "out of group" `Quick test_det_out_of_group;
          Alcotest.test_case "accept tracks" `Quick test_det_accept_tracks;
          Alcotest.test_case "grad fd" `Quick test_det_grad_fd;
          Alcotest.test_case "delayed same physics" `Quick
            test_det_delayed_same_physics;
          Alcotest.test_case "delayed k sweep vs LU" `Quick
            test_det_delayed_k_sweep;
        ] );
      ( "crowd_batch",
        [
          Alcotest.test_case "j2 batch bit-identical" `Quick
            test_j2_batch_identity;
          Alcotest.test_case "j1 batch bit-identical" `Quick
            test_j1_batch_identity;
          Alcotest.test_case "det batch bit-identical (SM)" `Quick
            test_det_batch_identity_sm;
          Alcotest.test_case "det batch bit-identical (delayed)" `Quick
            test_det_batch_identity_delayed;
        ] );
      ( "mixed_precision",
        [
          Alcotest.test_case "jastrow f32 drift bounded" `Quick
            test_jastrow_f32_drift;
          Alcotest.test_case "inverse f32 drift bounded" `Quick
            test_det_f32_inverse_drift;
        ] );
      ("twf", [ Alcotest.test_case "product" `Quick test_twf_product ]);
      ( "c_oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_j2_equals_oracle; prop_j1_equals_oracle ] );
    ]
