open Oqmc_containers
open Oqmc_particle

(* The paper's SIMD ablation, measured, for two kernels, each at f32 and
   f64 and each in three builds: the OCaml loops kept as the test
   oracles, the C kernel compiled with -fno-tree-vectorize (a second copy
   of its stub file compiled into this executable with renamed entry
   points), and the library's vectorized build.  Every implementation
   must return the same bits; the bench checks that before timing.

   - B-spline orbitals (lib/spline/bspline3d_stubs.c): µs per position
     on a NiO-32/r8-sized table (40³ grid, 24 orbitals), evaluated in
     crowds of 8 at random positions.
   - DistTable rows (lib/particle/dt_kernels_stubs.c): ns per 48-entry
     row (NiO-32 r8's electron count, orthorhombic cell), SoA (the
     Current layout) and AoS (the Ref layout), at random points.
   - J2 rows (lib/wavefunction/jastrow_kernels_stubs.c): ns per
     ratio-gradient of one electron over 48 (the old and proposed spline
     rows and their sums), two spin species, at random proposals.
   - Delayed ratio and gradient (lib/linalg/det_kernels_stubs.c): ns per
     proposal on a 24-electron determinant at delay 4 (NiO-32 r8's
     Current determinant), averaged over 0, 1, 2 and 3 pending rows: the
     ratio and the three gradient dots with the queue's correction.

     dune exec bench/main.exe -- --exp simd *)

let grid = 40
let n_orb = 24
let crowd = 8
let n_pos = 4096
let rounds = 7

module Run (R : Precision.REAL) = struct
  module B3 = Oqmc_spline.Bspline3d.Make (R)
  module O = Bspline_oracle.Make (R)

  (* The two C builds, called the same way: one position per call. *)
  external vgh_vec :
    B3.t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    B3.vgh_buf -> unit = "oqmc_bspline_vgh_byte" "oqmc_bspline_vgh"
  [@@noalloc]

  external vgh_novec :
    B3.t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    B3.vgh_buf -> unit = "oqmc_bspline_vgh_byte_novec" "oqmc_bspline_vgh_novec"
  [@@noalloc]

  external v_vec :
    B3.t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    float array -> unit = "oqmc_bspline_v_byte" "oqmc_bspline_v"
  [@@noalloc]

  external v_novec :
    B3.t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    float array -> unit = "oqmc_bspline_v_byte_novec" "oqmc_bspline_v_novec"
  [@@noalloc]

  let run () =
    let t = B3.create ~nx:grid ~ny:grid ~nz:grid ~n_orb () in
    let rng = Oqmc_rng.Xoshiro.create 41 in
    B3.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
        Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
    let o = O.of_table t ~nx:grid ~ny:grid ~nz:grid in
    let u () = Array.init n_pos (fun _ -> Oqmc_rng.Xoshiro.uniform rng) in
    let u0 = u () and u1 = u () and u2 = u () in
    let outs = Array.init crowd (fun _ -> B3.make_vgh_buf t) in
    let vouts = Array.init crowd (fun _ -> Array.make n_orb 0.) in
    let c0 = Array.make crowd 0.
    and c1 = Array.make crowd 0.
    and c2 = Array.make crowd 0. in
    (* Every position, one crowd at a time. *)
    let sweep eval_crowd () =
      let c = ref 0 in
      while !c + crowd <= n_pos do
        Array.blit u0 !c c0 0 crowd;
        Array.blit u1 !c c1 0 crowd;
        Array.blit u2 !c c2 0 crowd;
        eval_crowd ();
        c := !c + crowd
      done
    in
    let per_slot f () =
      for s = 0 to crowd - 1 do
        f s
      done
    in
    let vgh_impls =
      [
        ("OCaml oracle",
         fun () -> O.eval_vgh_batch o outs ~n:crowd ~u0:c0 ~u1:c1 ~u2:c2);
        ("C -fno-tree-vectorize",
         per_slot (fun s -> vgh_novec t c0.(s) c1.(s) c2.(s) outs.(s)));
        ("C vectorized",
         per_slot (fun s -> vgh_vec t c0.(s) c1.(s) c2.(s) outs.(s)));
      ]
    in
    let v_impls =
      [
        ("OCaml oracle",
         fun () -> O.eval_v_batch o vouts ~n:crowd ~u0:c0 ~u1:c1 ~u2:c2);
        ("C -fno-tree-vectorize",
         per_slot (fun s -> v_novec t c0.(s) c1.(s) c2.(s) vouts.(s)));
        ("C vectorized",
         per_slot (fun s -> v_vec t c0.(s) c1.(s) c2.(s) vouts.(s)));
      ]
    in
    (* Same doubles from every build, on the first crowd. *)
    let snapshot () =
      Array.to_list (Array.map Array.copy vouts)
      @ List.concat_map
          (fun (b : B3.vgh_buf) ->
            List.map Array.copy
              [ b.v; b.gx; b.gy; b.gz; b.hxx; b.hxy; b.hxz; b.hyy; b.hyz;
                b.hzz ])
          (Array.to_list outs)
    in
    let first_crowd (_, f) (_, g) =
      Array.blit u0 0 c0 0 crowd;
      Array.blit u1 0 c1 0 crowd;
      Array.blit u2 0 c2 0 crowd;
      f ();
      g ();
      snapshot ()
    in
    let reference = first_crowd (List.hd v_impls) (List.hd vgh_impls) in
    List.iter2
      (fun v vgh ->
        if first_crowd v vgh <> reference then
          failwith
            (Printf.sprintf "simd bench: %s (%s) differs from the oracle"
               (fst v) R.name))
      v_impls vgh_impls;
    (* Interleaved rounds, median per implementation. *)
    let time impls =
      let samples = List.map (fun _ -> ref []) impls in
      for _ = 1 to rounds do
        List.iter2
          (fun (_, f) acc ->
            let t0 = Timers.now () in
            sweep f ();
            let us = (Timers.now () -. t0) *. 1e6 /. float_of_int n_pos in
            acc := us :: !acc)
          impls samples
      done;
      List.map2
        (fun (name, _) acc ->
          let a = Array.of_list !acc in
          Array.sort compare a;
          (name, a.(Array.length a / 2)))
        impls samples
    in
    List.iter
      (fun (kernel, impls) ->
        let res = time impls in
        let base = snd (List.hd res) in
        List.iter
          (fun (name, us) ->
            Printf.printf "  %-11s %s  %-22s %7.2f us/position  (%.2fx)\n%!"
              kernel R.name name us (base /. us))
          res)
      [ ("Bspline-vgh", vgh_impls); ("Bspline-v", v_impls) ]
end

module Run32 = Run (Precision.F32)
module Run64 = Run (Precision.F64)

(* ---- DistTable rows ---- *)

let dt_n = 48
let dt_points = 4096
let dt_lattice = Lattice.orthorhombic 7. 7.5 8.

(* Interleaved rounds of [f ()] per implementation; the median ns per
   call of [f], each call one sweep over [calls] rows. *)
let median_ns ~calls impls =
  let samples = List.map (fun _ -> ref []) impls in
  for _ = 1 to rounds do
    List.iter2
      (fun (_, f) acc ->
        let t0 = Timers.now () in
        f ();
        acc := ((Timers.now () -. t0) *. 1e9 /. float_of_int calls) :: !acc)
      impls samples
  done;
  List.map2
    (fun (name, _) acc ->
      let a = Array.of_list !acc in
      Array.sort compare a;
      (name, a.(Array.length a / 2)))
    impls samples

module Dt_run (R : Precision.REAL) = struct
  module K = Dt_kernels.Make (R) (R)
  module Ps = Particle_set.Make (R)
  module O = Dt_oracle.Make (R) (R)
  module Oa = Dt_oracle.Aos (R)
  module A = K.A

  external soa_novec :
    K.row_slot array -> float array -> float array -> float array -> int ->
    unit = "oqmc_dt_soa_rows_novec"
  [@@noalloc]

  external soa_vec :
    K.row_slot array -> float array -> float array -> float array -> int ->
    unit = "oqmc_dt_soa_rows"
  [@@noalloc]

  external aos_novec :
    K.aos_slot -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    unit = "oqmc_dt_aos_row_byte_novec" "oqmc_dt_aos_row_novec"
  [@@noalloc]

  external aos_vec :
    K.aos_slot -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    unit = "oqmc_dt_aos_row_byte" "oqmc_dt_aos_row"
  [@@noalloc]

  let run () =
    let rng = Oqmc_rng.Xoshiro.create 43 in
    let u () = Oqmc_rng.Xoshiro.uniform rng in
    let ps =
      Ps.create ~lattice:dt_lattice
        [ { Particle_set.name = "e"; charge = -1.; count = dt_n } ]
    in
    Ps.randomize ps u;
    let pts f = Array.init dt_points (fun _ -> f *. ((3. *. u ()) -. 1.)) in
    let qx = pts 7. and qy = pts 7.5 and qz = pts 8. in
    let soa = Ps.soa ps and src = Ps.Aos.data (Ps.aos ps) in
    let xs = Ps.Vs.xs soa and ys = Ps.Vs.ys soa and zs = Ps.Vs.zs soa in
    (* SoA: one output row set per build, so their bits can be
       compared. *)
    let rows () = Array.init 4 (fun _ -> A.create dt_n) in
    let slot_for r =
      let g = K.make_single dt_lattice in
      K.bind g.K.slot ~xs ~ys ~zs ~n:dt_n;
      K.aim g.K.slot ~od:r.(0) ~odx:r.(1) ~ody:r.(2) ~odz:r.(3) ~o:0
        ~self:(-1);
      g
    in
    let ro = rows () and rn = rows () and rv = rows () in
    let gn = slot_for rn and gv = slot_for rv in
    let c_soa call (g : K.single) p =
      g.K.qx.(0) <- qx.(p);
      g.K.qy.(0) <- qy.(p);
      g.K.qz.(0) <- qz.(p);
      call g.K.one g.K.qx g.K.qy g.K.qz 1
    in
    let soa_impls =
      [
        ("OCaml oracle",
         fun p ->
           O.soa_row ~lattice:dt_lattice ~xs ~ys ~zs ~n:dt_n ~px:qx.(p)
             ~py:qy.(p) ~pz:qz.(p) ~d:ro.(0) ~dx:ro.(1) ~dy:ro.(2) ~dz:ro.(3));
        ("C -fno-tree-vectorize", c_soa soa_novec gn);
        ("C vectorized", c_soa soa_vec gv);
      ]
    in
    (* AoS *)
    let aos_rows () = (A.create dt_n, A.create (3 * dt_n)) in
    let ado, adro = aos_rows () in
    let aslot_for (d, dr) =
      let sl = K.make_aos_slot dt_lattice in
      K.bind_aos sl ~src ~n:dt_n;
      K.aim_aos sl ~d ~dr ~o:0 ~neg:false;
      sl
    in
    let an = aos_rows () and av = aos_rows () in
    let sn = aslot_for an and sv = aslot_for av in
    let aos_impls =
      [
        ("OCaml oracle",
         fun p ->
           Oa.aos_row ~lattice:dt_lattice ~src ~n:dt_n ~px:qx.(p) ~py:qy.(p)
             ~pz:qz.(p) ~d:ado ~dr:adro);
        ("C -fno-tree-vectorize", fun p -> aos_novec sn qx.(p) qy.(p) qz.(p));
        ("C vectorized", fun p -> aos_vec sv qx.(p) qy.(p) qz.(p));
      ]
    in
    let bits (a : A.t) =
      Array.init (A.length a) (fun i -> Int64.bits_of_float (A.get a i))
    in
    let agree layout impls outs =
      for p = 0 to 63 do
        List.iter (fun (_, f) -> f p) impls;
        match List.map (fun o -> List.map bits o) outs with
        | reference :: rest ->
            List.iter2
              (fun (name, _) o ->
                if o <> reference then
                  failwith
                    (Printf.sprintf
                       "simd bench: DistTable %s %s (%s) differs from the \
                        oracle"
                       layout name R.name))
              (List.tl impls) rest
        | [] -> ()
      done
    in
    agree "SoA" soa_impls (List.map Array.to_list [ ro; rn; rv ]);
    agree "AoS" aos_impls
      [ [ ado; adro ]; [ fst an; snd an ]; [ fst av; snd av ] ];
    let sweep f () =
      for p = 0 to dt_points - 1 do
        f p
      done
    in
    List.iter
      (fun (layout, impls) ->
        let res =
          median_ns ~calls:dt_points
            (List.map (fun (name, f) -> (name, sweep f)) impls)
        in
        let base = snd (List.hd res) in
        List.iter
          (fun (name, ns) ->
            Printf.printf
              "  DistTable %s %s  %-22s %7.1f ns/row  %5.2f ns/entry  \
               (%.2fx)\n%!"
              layout R.name name ns (ns /. float_of_int dt_n) (base /. ns))
          res)
      [ ("SoA", soa_impls); ("AoS", aos_impls) ]
end

module Dt32 = Dt_run (Precision.F32)
module Dt64 = Dt_run (Precision.F64)

(* ---- J2 rows ---- *)

module J2_run (R : Precision.REAL) = struct
  module Ps = Particle_set.Make (R)
  module Aa = Dt_aa_soa.Make (R) (R)
  module J2 = Oqmc_wavefunction.Jastrow_two.Make (R) (R)
  module W = Oqmc_wavefunction.Wfc.Make (R)
  module O = Jastrow_oracle.Make (R) (R)

  external ratio_novec : J2.opt array -> int -> int -> unit
    = "oqmc_j2_ratio_novec"
  [@@noalloc]

  external ratio_vec : J2.opt array -> int -> int -> unit
    = "oqmc_j2_ratio"
  [@@noalloc]

  external accept_novec : J2.opt array -> int -> int -> bool array -> unit
    = "oqmc_j2_accept_novec"
  [@@noalloc]

  external accept_vec : J2.opt array -> int -> int -> bool array -> unit
    = "oqmc_j2_accept"
  [@@noalloc]

  let run () =
    let rng = Oqmc_rng.Xoshiro.create 47 in
    let ps =
      Ps.create ~lattice:dt_lattice
        [
          { Particle_set.name = "u"; charge = -1.; count = dt_n / 2 };
          { Particle_set.name = "d"; charge = -1.; count = dt_n / 2 };
        ]
    in
    Ps.randomize ps (fun () -> Oqmc_rng.Xoshiro.uniform rng);
    let table = Aa.create ps in
    Aa.evaluate table ps;
    let functors = Oqmc_workloads.Jastrow_sets.ee_set ~cutoff:3.4 in
    (* One state per build over the one table, from the same
       accumulators. *)
    let state () =
      let st = J2.make_opt ~table ~functors ps in
      ignore ((J2.opt_component st).W.evaluate_log ps);
      st
    in
    let sn = state () and sv = state () in
    let o = O.make_j2 ~table ~functors ps in
    O.j2_evaluate o;
    let k = dt_n / 2 in
    (* Proposals: electron k displaced at random, one temporary row each. *)
    let moves =
      Array.init 64 (fun _ ->
          Vec3.add (Ps.get ps k)
            (Vec3.make
               (Oqmc_rng.Xoshiro.gaussian rng *. 0.5)
               (Oqmc_rng.Xoshiro.gaussian rng *. 0.5)
               (Oqmc_rng.Xoshiro.gaussian rng *. 0.5)))
    in
    Aa.prepare table ps k;
    Aa.move table ps k moves.(0);
    let buf_of st =
      let c = J2.opt_component st in
      let b = Wbuffer.create () in
      c.W.register b;
      Wbuffer.rewind b;
      c.W.update_buffer ps b;
      Array.map Int64.bits_of_float (Wbuffer.contents b)
    in
    (* One ratio and accept through each build must leave the same
       accumulators, the oracle's included. *)
    ratio_novec [| sn |] k 1;
    accept_novec [| sn |] k 1 [| true |];
    ratio_vec [| sv |] k 1;
    accept_vec [| sv |] k 1 [| true |];
    ignore (O.j2_ratio_grad o k);
    O.j2_accept o k;
    let want = Array.map Int64.bits_of_float (O.j2_state o) in
    List.iter
      (fun (name, st) ->
        if buf_of st <> want then
          failwith
            (Printf.sprintf "simd bench: J2 %s (%s) differs from the oracle"
               name R.name))
      [ ("C -fno-tree-vectorize", sn); ("C vectorized", sv) ];
    let sweep f () =
      for p = 0 to dt_points - 1 do
        if p land 63 = 0 then Aa.move table ps k moves.((p lsr 6) land 63);
        f ()
      done
    in
    let impls =
      [
        ("OCaml oracle", fun () -> ignore (O.j2_ratio_grad o k));
        ("C -fno-tree-vectorize", fun () -> ratio_novec [| sn |] k 1);
        ("C vectorized", fun () -> ratio_vec [| sv |] k 1);
      ]
    in
    let res =
      median_ns ~calls:dt_points
        (List.map (fun (name, f) -> (name, sweep f)) impls)
    in
    let base = snd (List.hd res) in
    List.iter
      (fun (name, ns) ->
        Printf.printf "  J2 ratio_grad %s  %-22s %7.1f ns/move  (%.2fx)\n%!"
          R.name name ns (base /. ns))
      res
end

module J2_32 = J2_run (Precision.F32)
module J2_64 = J2_run (Precision.F64)

(* ---- delayed ratio and gradient ---- *)

let du_n = 24
let du_delay = 4

module Du_run (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)
  module L = Oqmc_linalg.Lu.Make (R)
  module Du = Oqmc_linalg.Delayed_update.Make (R)
  module O = Det_oracle.Make (R)
  module Spo = Oqmc_wavefunction.Spo

  external dots_novec : Du.t -> int -> A.t -> Spo.vgl -> float array -> unit
    = "oqmc_du_vgl_dots_novec"
  [@@noalloc]

  external dots_vec : Du.t -> int -> A.t -> Spo.vgl -> float array -> unit
    = "oqmc_du_vgl_dots"
  [@@noalloc]

  let run () =
    let n = du_n in
    let rng = Oqmc_rng.Xoshiro.create 53 in
    let uni () = Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1. in
    let m = M.init n n (fun i j -> uni () +. if i = j then 4. else 0.) in
    let b0 = M.create ~padded:true n n in
    ignore (L.invert_transpose ~src:m ~dst:b0);
    let row r =
      let v = A.of_array (Array.init n (fun _ -> uni ())) in
      A.set v r (A.get v r +. 4.);
      v
    in
    let accepted = Array.init (du_delay - 1) row in
    (* Queues with 0 … delay − 1 pending rows, library and oracle. *)
    let queues =
      Array.init du_delay (fun p ->
          let bc = M.copy b0 and bo = M.copy b0 in
          let du = Du.create ~delay:du_delay bc in
          let od = O.du_create ~delay:du_delay bo in
          for r = 0 to p - 1 do
            Du.accept du r accepted.(r);
            O.du_accept od r accepted.(r)
          done;
          (du, od, bo))
    in
    let a () = Array.init n (fun _ -> uni ()) in
    let vgl = { Spo.v = a (); gx = a (); gy = a (); gz = a (); lap = a () } in
    let r = du_delay in
    let out = Array.make 4 0. and psiv = A.create n and tmp = A.create n in
    Array.iter
      (fun (du, od, bo) ->
        let want =
          let a, b, c, d =
            O.proposal_dots ~du:od bo r ~psiv ~tmp vgl.Spo.v
              [| vgl.Spo.gx; vgl.Spo.gy; vgl.Spo.gz |]
          in
          List.map Int64.bits_of_float [ a; b; c; d ]
        in
        List.iter
          (fun (name, f) ->
            f du r psiv vgl out;
            if List.map Int64.bits_of_float (Array.to_list out) <> want then
              failwith
                (Printf.sprintf
                   "simd bench: delayed ratio-gradient %s (%s) differs from \
                    the oracle"
                   name R.name))
          [ ("C -fno-tree-vectorize", dots_novec); ("C vectorized", dots_vec) ])
      queues;
    let sweep f () =
      for p = 0 to dt_points - 1 do
        f queues.(p land (du_delay - 1))
      done
    in
    let impls =
      [
        ( "OCaml oracle",
          fun (_, od, bo) ->
            ignore
              (O.proposal_dots ~du:od bo r ~psiv ~tmp vgl.Spo.v
                 [| vgl.Spo.gx; vgl.Spo.gy; vgl.Spo.gz |]) );
        ("C -fno-tree-vectorize", fun (du, _, _) -> dots_novec du r psiv vgl out);
        ("C vectorized", fun (du, _, _) -> dots_vec du r psiv vgl out);
      ]
    in
    let res =
      median_ns ~calls:dt_points
        (List.map (fun (name, f) -> (name, sweep f)) impls)
    in
    let base = snd (List.hd res) in
    List.iter
      (fun (name, ns) ->
        Printf.printf
          "  DetUpdate ratio_grad %s  %-22s %7.1f ns/move  (%.2fx)\n%!" R.name
          name ns (base /. ns))
      res
end

module Du32 = Du_run (Precision.F32)
module Du64 = Du_run (Precision.F64)

let run () =
  Printf.printf
    "== SIMD ablation: B-spline kernels, %d^3 grid, %d orbitals, crowds of \
     %d, median of %d rounds ==\n%!"
    grid n_orb crowd rounds;
  Run32.run ();
  Run64.run ();
  Printf.printf
    "== SIMD ablation: DistTable rows, %d entries, orthorhombic cell, %d \
     points, median of %d rounds ==\n%!"
    dt_n dt_points rounds;
  Dt32.run ();
  Dt64.run ();
  Printf.printf
    "== SIMD ablation: J2 ratio-gradient, %d electrons in two species, \
     median of %d rounds ==\n%!"
    dt_n rounds;
  J2_32.run ();
  J2_64.run ();
  Printf.printf
    "== SIMD ablation: delayed ratio and gradient, n = %d, delay %d, 0-%d \
     pending, median of %d rounds ==\n%!"
    du_n du_delay (du_delay - 1) rounds;
  Du32.run ();
  Du64.run ()
