open Bechamel
open Oqmc_containers
open Oqmc_particle
open Oqmc_core
open Oqmc_workloads
open Oqmc_rng

(* Bechamel kernel microbenchmarks.  Each test is tagged with the
   table/figure it underpins: the distance-table and Jastrow kernels feed
   the profile figures (Figs. 2 and 7), the B-spline precision pair feeds
   the mixed-precision step (Fig. 8), the full sweeps feed the end-to-end
   speedups (Fig. 1 / Table 2), walker serialization feeds the memory and
   message-size story (Fig. 9), and the determinant pair feeds the
   delayed-update outlook (Sec. 8.4). *)

module Ps64 = Particle_set.Make (Precision.F64)
module AAref64 = Dt_aa_ref.Make (Precision.F64)
module AAsoa64 = Dt_aa_soa.Make (Precision.F64) (Precision.F64)
module AAsoa32 = Dt_aa_soa.Make (Precision.F32) (Precision.F32)
module Ps32 = Particle_set.Make (Precision.F32)
module B3_32 = Oqmc_spline.Bspline3d.Make (Precision.F32)
module B3_64 = Oqmc_spline.Bspline3d.Make (Precision.F64)
module M64 = Matrix.Make (Precision.F64)
module A64 = Aligned.Make (Precision.F64)
module L64 = Oqmc_linalg.Lu.Make (Precision.F64)
module Sm64 = Oqmc_linalg.Sherman_morrison.Make (Precision.F64)
module Du64 = Oqmc_linalg.Delayed_update.Make (Precision.F64)

let n_bench = 128

let random_ps64 seed n =
  let lattice = Lattice.cubic 8. in
  let ps =
    Ps64.create ~lattice
      [ { Particle_set.name = "e"; charge = -1.; count = n } ]
  in
  let rng = Xoshiro.create seed in
  Ps64.randomize ps (fun () -> Xoshiro.uniform rng);
  ps

let random_ps32 seed n =
  let lattice = Lattice.cubic 8. in
  let ps =
    Ps32.create ~lattice
      [ { Particle_set.name = "e"; charge = -1.; count = n } ]
  in
  let rng = Xoshiro.create seed in
  Ps32.randomize ps (fun () -> Xoshiro.uniform rng);
  ps

(* Figs. 2/7: one distance-table move, Ref (AoS triangle) vs Current
   (SoA rows, f64 and f32). *)
let dt_tests =
  let ps = random_ps64 1 n_bench in
  let tref = AAref64.create ps in
  AAref64.evaluate tref ps;
  let tsoa = AAsoa64.create ps in
  AAsoa64.evaluate tsoa ps;
  let ps32 = random_ps32 1 n_bench in
  let tsoa32 = AAsoa32.create ps32 in
  AAsoa32.evaluate tsoa32 ps32;
  let pos = Vec3.make 4. 4. 4. in
  [
    Test.make ~name:"fig2/dt-aa-ref-move(f64)"
      (Staged.stage (fun () -> AAref64.move tref ps 3 pos));
    Test.make ~name:"fig2/dt-aa-soa-move(f64)"
      (Staged.stage (fun () ->
           AAsoa64.prepare tsoa ps 3;
           AAsoa64.move tsoa ps 3 pos));
    Test.make ~name:"fig2/dt-aa-soa-move(f32)"
      (Staged.stage (fun () ->
           AAsoa32.prepare tsoa32 ps32 3;
           AAsoa32.move tsoa32 ps32 3 pos));
  ]

(* Fig. 8: B-spline value evaluation at both storage precisions. *)
let bspline_tests =
  let n_orb = 64 in
  let rng = Xoshiro.create 2 in
  let t32 = B3_32.create ~nx:16 ~ny:16 ~nz:16 ~n_orb () in
  B3_32.fill t32 (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let t64 = B3_64.create ~nx:16 ~ny:16 ~nz:16 ~n_orb () in
  B3_64.fill t64 (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let out = Array.make n_orb 0. in
  let buf32 = B3_32.make_vgh_buf t32 in
  [
    Test.make ~name:"fig8/bspline-v(f32)"
      (Staged.stage (fun () -> B3_32.eval_v t32 ~u0:0.3 ~u1:0.6 ~u2:0.9 out));
    Test.make ~name:"fig8/bspline-v(f64)"
      (Staged.stage (fun () -> B3_64.eval_v t64 ~u0:0.3 ~u1:0.6 ~u2:0.9 out));
    Test.make ~name:"fig2/bspline-vgh(f32)"
      (Staged.stage (fun () ->
           B3_32.eval_vgh t32 ~u0:0.3 ~u1:0.6 ~u2:0.9 buf32));
  ]

(* Table 2 / Fig. 1: one full PbyP sweep of the scaled NiO-32 workload in
   each variant. *)
let sweep_tests =
  let sys = Builder.make ~reduction:16 ~with_nlpp:false Spec.nio32 in
  let mk variant =
    let e = Build.engine ~variant ~seed:3 sys in
    let rng = Xoshiro.create 4 in
    Test.make
      ~name:(Printf.sprintf "table2/sweep-%s" (Variant.to_string variant))
      (Staged.stage (fun () -> ignore (e.Engine_api.sweep rng ~tau:0.05)))
  in
  [ mk Variant.Ref; mk Variant.Ref_mp; mk Variant.Current ]

(* Fig. 9: walker-state serialization, Ref's 5N² block vs Current's 5N. *)
let buffer_tests =
  let sys = Builder.make ~reduction:16 ~with_nlpp:false Spec.nio32 in
  let mk variant =
    let e = Build.engine ~variant ~seed:5 sys in
    let w = Walker.create e.Engine_api.n_electrons in
    e.Engine_api.register_walker w;
    Test.make
      ~name:
        (Printf.sprintf "fig9/walker-save-%s (buffer %d kB)"
           (Variant.to_string variant)
           (Wbuffer.bytes w.Walker.buffer / 1024))
      (Staged.stage (fun () -> e.Engine_api.save_walker w))
  in
  [ mk Variant.Ref; mk Variant.Current ]

(* Sec. 8.4: Sherman–Morrison vs delayed update, one ordered sweep. *)
let det_tests =
  let n = 128 in
  let rng = Xoshiro.create 6 in
  let mat =
    M64.init n n (fun i j ->
        Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.
        +. if i = j then 4. else 0.)
  in
  let binv_sm = M64.create n n in
  ignore (L64.invert_transpose ~src:mat ~dst:binv_sm);
  let binv_du = M64.create n n in
  ignore (L64.invert_transpose ~src:mat ~dst:binv_du);
  let du = Du64.create ~delay:16 binv_du in
  let ws = Sm64.make_workspace n in
  let v = A64.create n in
  let fill () =
    for j = 0 to n - 1 do
      A64.set v j
        (Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.
        +. if j = 0 then 2. else 0.)
    done
  in
  [
    Test.make ~name:"delayed/det-sweep-SM"
      (Staged.stage (fun () ->
           for k = 0 to n - 1 do
             fill ();
             let r = Sm64.ratio binv_sm k v in
             if abs_float r > 0.05 then Sm64.update_row binv_sm k v ~ratio:r ~ws
           done));
    Test.make ~name:"delayed/det-sweep-k16"
      (Staged.stage (fun () ->
           for k = 0 to n - 1 do
             fill ();
             let r = Du64.ratio du k v in
             if abs_float r > 0.05 then Du64.accept du k v
           done;
           Du64.flush du));
  ]

let all_tests () =
  Test.make_grouped ~name:"oqmc"
    (dt_tests @ bspline_tests @ sweep_tests @ buffer_tests @ det_tests)

let run () =
  Report.section "Bechamel kernel microbenchmarks";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] (all_tests ()) in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let r = Hashtbl.find results name in
      match Analyze.OLS.estimates r with
      | Some [ t ] -> Printf.printf "%-48s %12.1f ns/run\n" name t
      | _ -> Printf.printf "%-48s (no estimate)\n" name)
    (List.sort compare names)
