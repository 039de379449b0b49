(* Persistent domain pool + crowd-batched kernels.

   Pins the pool's contract (exactly n_domains - 1 spawns per lifetime,
   exactly-once dynamic scheduling for uneven walker counts, idempotent
   shutdown) and the batched-kernel contract (batch results identical to
   scalar calls, including positions on the periodic wrap planes; crowd
   sweeps bit-identical to scalar [Engine_api.sweep]s, and drivers
   bit-identical at every crowd size). *)

open Oqmc_containers
open Oqmc_rng
open Oqmc_particle
open Oqmc_wavefunction
open Oqmc_core
open Oqmc_workloads
module B3_64 = Oqmc_spline.Bspline3d.Make (Precision.F64)
module B3_32 = Oqmc_spline.Bspline3d.Make (Precision.F32)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let factory sys = Build.factory ~variant:Variant.Current ~seed:3 sys
let harmonic_sys = lazy (Validation.harmonic ~n:4 ~omega:1.0)
let nio32_r16 = lazy (Builder.make ~reduction:16 ~with_nlpp:false Spec.nio32)

(* ---------- grain size ---------- *)

let test_grain_for () =
  check_int "tiny n" 1 (Runner.grain_for ~n:1 ~n_domains:4);
  check_int "n = 0" 1 (Runner.grain_for ~n:0 ~n_domains:4);
  check_int "below one grain each" 1 (Runner.grain_for ~n:8 ~n_domains:4);
  check_int "several grains per domain" 4
    (Runner.grain_for ~n:64 ~n_domains:4);
  check_int "capped at 32" 32 (Runner.grain_for ~n:4096 ~n_domains:4);
  (* enough grains that every domain can get work *)
  List.iter
    (fun (n, nd) ->
      let g = Runner.grain_for ~n ~n_domains:nd in
      check_bool "grain positive" true (g >= 1);
      if n >= nd then
        check_bool "at least one grain per domain" true
          ((n + g - 1) / g >= nd))
    [ (1, 1); (7, 2); (9, 3); (10, 3); (100, 4); (1000, 7) ]

(* ---------- explicit grain override ---------- *)

let test_explicit_grain () =
  let sys = Lazy.force harmonic_sys in
  List.iter
    (fun n_domains ->
      Runner.with_runner ~crowd:1 ~walkers:13 ~n_domains ~factory:(factory sys)
      @@ fun runner ->
      (* any explicit grain still covers every index exactly once *)
      List.iter
        (fun grain ->
          let hits = Array.init 13 (fun _ -> Atomic.make 0) in
          Runner.parallel_for ~grain runner ~n:13 ~f:(fun ~domain:_ i ->
              Atomic.incr hits.(i));
          Array.iteri
            (fun i c ->
              check_int
                (Printf.sprintf "grain=%d index %d hit once" grain i)
                1 (Atomic.get c))
            hits)
        [ 1; 2; 5; 13; 100 ];
      check_bool "grain < 1 rejected" true
        (match
           Runner.parallel_for ~grain:0 runner ~n:4 ~f:(fun ~domain:_ _ -> ())
         with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ 1; 3 ]

(* ---------- exactly-once scheduling, uneven counts ---------- *)

let test_coverage_exactly_once () =
  let sys = Lazy.force harmonic_sys in
  List.iter
    (fun (n_domains, n) ->
      Runner.with_runner ~crowd:1 ~walkers:n ~n_domains ~factory:(factory sys)
      @@ fun runner ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let domains_seen = Array.make n (-1) in
      Runner.parallel_for runner ~n ~f:(fun ~domain i ->
          Atomic.incr hits.(i);
          domains_seen.(i) <- domain);
      Array.iteri
        (fun i c ->
          check_int
            (Printf.sprintf "nd=%d n=%d index %d hit once" n_domains n i)
            1 (Atomic.get c))
        hits;
      Array.iter
        (fun d ->
          check_bool "domain in range" true (d >= 0 && d < n_domains))
        domains_seen;
      (* empty region is a no-op, not an error *)
      Runner.parallel_for runner ~n:0 ~f:(fun ~domain:_ _ ->
          failwith "must not run"))
    [ (1, 7); (2, 9); (3, 10); (4, 10); (3, 2); (4, 100) ]

(* ---------- spawn accounting ---------- *)

let test_spawn_count () =
  let sys = Lazy.force harmonic_sys in
  let before = Runner.total_spawns () in
  (Runner.with_runner ~crowd:1 ~walkers:11 ~n_domains:3 ~factory:(factory sys)
   @@ fun runner ->
   for _ = 1 to 50 do
     let sink = Atomic.make 0 in
     Runner.parallel_for runner ~n:11 ~f:(fun ~domain:_ _ ->
         Atomic.incr sink);
     check_int "region covers all" 11 (Atomic.get sink)
   done);
  check_int "exactly n_domains - 1 spawns for 50 regions" 2
    (Runner.total_spawns () - before);
  let before = Runner.total_spawns () in
  (Runner.with_runner ~crowd:1 ~walkers:5 ~n_domains:1 ~factory:(factory sys)
   @@ fun runner ->
   Runner.parallel_for runner ~n:5 ~f:(fun ~domain:_ _ -> ()));
  check_int "single domain never spawns" 0 (Runner.total_spawns () - before)

let test_shutdown_idempotent () =
  let sys = Lazy.force harmonic_sys in
  let runner =
    Runner.create ~crowd:1 ~walkers:4 ~n_domains:2 ~factory:(factory sys)
  in
  Runner.parallel_for runner ~n:4 ~f:(fun ~domain:_ _ -> ());
  Runner.shutdown runner;
  Runner.shutdown runner;
  check_bool "parallel_for after shutdown rejected" true
    (match
       Runner.parallel_for runner ~n:4 ~f:(fun ~domain:_ _ -> ())
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------- merged timers ---------- *)

(* One VMC pass through the runner at crowd [crowd]: 6 walkers, each
   swept and measured 3 times by the slot engine holding it, as
   [Vmc.run] does.  The walkers arrive without orbital rows (as from a
   checkpoint), so each restore is followed by a row rebuild.  Returns
   the merged timer set and the one taken before the walkers were made:
   building an engine refreshes it once, so a wider crowd records more
   calls before any walker exists. *)
let vmc_pass_timers ~crowd =
  let sys = Lazy.force harmonic_sys in
  Runner.with_runner ~crowd ~walkers:6 ~n_domains:1
    ~factory:(Build.factory ~variant:Variant.Current_f64 ~seed:3 sys)
  @@ fun r ->
  let built = Runner.merged_timers r in
  let e0 = Runner.engine r 0 in
  let rngs = Xoshiro.streams ~seed:9 6 in
  let ws =
    Array.init 6 (fun i ->
        let w = Walker.create e0.Engine_api.n_electrons in
        e0.Engine_api.randomize rngs.(i);
        e0.Engine_api.register_walker w;
        Walker.drop_rows w;
        w)
  in
  Runner.iter_groups r ~n:6 ~walker:(fun i -> ws.(i)) ~f:(fun u ~lo ~m ->
      for _ = 1 to 3 do
        ignore
          (Runner.sweep u ~active:m ~rng:(fun s -> rngs.(lo + s)) ~tau:0.3);
        for s = 0 to m - 1 do
          ignore ((Runner.slot_engine u s).Engine_api.measure ())
        done
      done);
  (Runner.merged_timers r, built)

(* Per-walker work (measure, row rebuilds) runs on the timers of the
   slot holding the walker: the merged counts, less the refreshes done
   while the engines were built, must not depend on the crowd size. *)
let test_merged_timers_all_slots () =
  let one = vmc_pass_timers ~crowd:1 and three = vmc_pass_timers ~crowd:3 in
  let per_walker (all, built) key =
    Timers.count all key - Timers.count built key
  in
  List.iter
    (fun key ->
      check_bool (key ^ " recorded") true (per_walker one key > 0);
      check_int
        (key ^ " count: crowd 3 = crowd 1")
        (per_walker one key) (per_walker three key))
    [ "Other"; "SPO-vgl" ]

(* ---------- batched B-spline kernels vs scalar oracle ---------- *)

(* Positions straddling the periodic wrap planes plus random interior
   points; both paths must wrap identically. *)
let test_positions k rng =
  let fixed =
    [| 0.; 1e-12; 0.9999999999; 1.0; -0.25; 1.75; 0.5; 1. -. 1e-12 |]
  in
  Array.init k (fun i ->
      if i < Array.length fixed then fixed.(i)
      else Xoshiro.uniform_range rng ~lo:(-1.) ~hi:2.)

let fill_f ~orb ~i ~j ~k =
  cos (float_of_int ((orb * 13) + (i * 2) + (j * 7) + (k * 3)))

let test_vgh_batch_identity_f64 () =
  let t = B3_64.create ~nx:5 ~ny:6 ~nz:7 ~n_orb:5 () in
  B3_64.fill t fill_f;
  let rng = Xoshiro.create 77 in
  let k = 12 in
  let u0 = test_positions k rng
  and u1 = test_positions k rng
  and u2 = test_positions k rng in
  let batch = B3_64.make_vgh_batch t ~cap:k in
  B3_64.eval_vgh_batch t batch ~n:k ~u0 ~u1 ~u2;
  let buf = B3_64.make_vgh_buf t in
  for s = 0 to k - 1 do
    B3_64.eval_vgh t ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) buf;
    let out = (B3_64.outs batch).(s) in
    List.iter
      (fun (name, a, b) ->
        Array.iteri
          (fun m x ->
            check_bool
              (Printf.sprintf "f64 %s slot %d orb %d bit-identical" name s m)
              true
              (Int64.equal (Int64.bits_of_float x)
                 (Int64.bits_of_float b.(m))))
          a)
      [
        ("v", buf.B3_64.v, out.B3_64.v);
        ("gx", buf.B3_64.gx, out.B3_64.gx);
        ("gy", buf.B3_64.gy, out.B3_64.gy);
        ("gz", buf.B3_64.gz, out.B3_64.gz);
        ("hxx", buf.B3_64.hxx, out.B3_64.hxx);
        ("hxy", buf.B3_64.hxy, out.B3_64.hxy);
        ("hxz", buf.B3_64.hxz, out.B3_64.hxz);
        ("hyy", buf.B3_64.hyy, out.B3_64.hyy);
        ("hyz", buf.B3_64.hyz, out.B3_64.hyz);
        ("hzz", buf.B3_64.hzz, out.B3_64.hzz);
      ]
  done

let ulp_close a b =
  Float.equal a b
  || abs_float (a -. b)
     <= epsilon_float *. Float.max (abs_float a) (abs_float b)

let test_vgh_batch_identity_f32 () =
  let t = B3_32.create ~nx:5 ~ny:6 ~nz:7 ~n_orb:5 () in
  B3_32.fill t fill_f;
  let rng = Xoshiro.create 78 in
  let k = 12 in
  let u0 = test_positions k rng
  and u1 = test_positions k rng
  and u2 = test_positions k rng in
  let batch = B3_32.make_vgh_batch t ~cap:k in
  B3_32.eval_vgh_batch t batch ~n:k ~u0 ~u1 ~u2;
  let buf = B3_32.make_vgh_buf t in
  for s = 0 to k - 1 do
    B3_32.eval_vgh t ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) buf;
    let out = (B3_32.outs batch).(s) in
    List.iter
      (fun (name, a, b) ->
        Array.iteri
          (fun m x ->
            check_bool
              (Printf.sprintf "f32 %s slot %d orb %d within 1 ulp" name s m)
              true
              (ulp_close x b.(m)))
          a)
      [
        ("v", buf.B3_32.v, out.B3_32.v);
        ("gx", buf.B3_32.gx, out.B3_32.gx);
        ("hzz", buf.B3_32.hzz, out.B3_32.hzz);
      ]
  done

let test_v_batch_identity () =
  let t = B3_64.create ~nx:5 ~ny:6 ~nz:7 ~n_orb:5 () in
  B3_64.fill t fill_f;
  let rng = Xoshiro.create 79 in
  let k = 10 in
  let u0 = test_positions k rng
  and u1 = test_positions k rng
  and u2 = test_positions k rng in
  let batch = B3_64.make_v_batch t ~cap:k in
  B3_64.eval_v_batch t batch ~n:k ~u0 ~u1 ~u2;
  let out = Array.make 5 0. in
  for s = 0 to k - 1 do
    B3_64.eval_v t ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) out;
    Array.iteri
      (fun m x ->
        check_bool
          (Printf.sprintf "v slot %d orb %d bit-identical" s m)
          true
          (Int64.equal (Int64.bits_of_float x)
             (Int64.bits_of_float (B3_64.vouts batch).(s).(m))))
      out
  done

let test_batch_bounds () =
  let t = B3_64.create ~nx:4 ~ny:4 ~nz:4 ~n_orb:2 () in
  check_bool "cap < 1 rejected" true
    (match B3_64.make_vgh_batch t ~cap:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let b = B3_64.make_vgh_batch t ~cap:2 in
  let u = [| 0.1; 0.2; 0.3 |] in
  check_bool "n > cap rejected" true
    (match B3_64.eval_vgh_batch t b ~n:3 ~u0:u ~u1:u ~u2:u with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Through the SPO layer: the batched context must reproduce the scalar
   [eval_vgl] (metric applied) exactly. *)
let test_spo_batch_identity () =
  let lat = Lattice.orthorhombic 3. 5. 7. in
  let module SpoB = Spo_bspline.Make (Precision.F64) in
  let table = B3_64.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:3 () in
  let rng = Xoshiro.create 5 in
  B3_64.fill table (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let spo = SpoB.create ~table ~lattice:lat in
  let k = 6 in
  let pos =
    Array.init k (fun i ->
        (* include points outside the cell: wrap must match *)
        Vec3.make
          (Xoshiro.uniform_range rng ~lo:(-3.) ~hi:6.)
          (Xoshiro.uniform_range rng ~lo:(-5.) ~hi:10.)
          (float_of_int i *. 2.))
  in
  let batch = spo.Spo.make_vgl_batch k in
  batch.Spo.run pos k;
  let vgl = Spo.make_vgl 3 in
  for s = 0 to k - 1 do
    spo.Spo.eval_vgl pos.(s) vgl;
    let slot = batch.Spo.slots.(s) in
    List.iter
      (fun (name, a, b) ->
        Array.iteri
          (fun m x ->
            check_bool
              (Printf.sprintf "spo %s slot %d orb %d identical" name s m)
              true
              (Int64.equal (Int64.bits_of_float x)
                 (Int64.bits_of_float b.(m))))
          a)
      [
        ("v", vgl.Spo.v, slot.Spo.v);
        ("gx", vgl.Spo.gx, slot.Spo.gx);
        ("gy", vgl.Spo.gy, slot.Spo.gy);
        ("gz", vgl.Spo.gz, slot.Spo.gz);
        ("lap", vgl.Spo.lap, slot.Spo.lap);
      ]
  done

let test_serial_fallback_identity () =
  (* Analytic SPOs have no native batch kernel; the fallback must loop
     the scalar evaluator with identical results. *)
  let spo = Spo_analytic.harmonic ~omega:1.0 ~n_orb:4 in
  let pos = Array.init 5 (fun i -> Vec3.make (0.3 *. float_of_int i) 0.1 (-0.2)) in
  let batch = spo.Spo.make_vgl_batch 5 in
  batch.Spo.run pos 5;
  let vgl = Spo.make_vgl 4 in
  for s = 0 to 4 do
    spo.Spo.eval_vgl pos.(s) vgl;
    Array.iteri
      (fun m x ->
        check_bool "fallback identical" true
          (Float.equal x batch.Spo.slots.(s).Spo.v.(m)))
      vgl.Spo.v
  done;
  check_bool "fallback cap < 1 rejected" true
    (match spo.Spo.make_vgl_batch 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- crowd drivers vs scalar reference ---------- *)

let same_float_array name a b =
  check_int (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      check_bool
        (Printf.sprintf "%s [%d] bit-identical" name i)
        true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))))
    a

let vmc_params =
  {
    Vmc.n_walkers = 6;
    warmup = 5;
    blocks = 2;
    steps_per_block = 8;
    tau = 0.3;
    seed = 11;
    n_domains = 1;
  }

(* Scalar reference for [Vmc.run]: its per-walker trajectory
   (same streams, same warmup refresh, same per-block drift recompute)
   through [Engine_api.sweep] on one engine, walker after walker.
   Returns the block energies and the acceptance. *)
let scalar_vmc ~factory (p : Vmc.params) =
  let e = factory 0 in
  let rngs = Xoshiro.streams ~seed:p.Vmc.seed (p.Vmc.n_walkers + 1) in
  let ws =
    Array.init p.Vmc.n_walkers (fun i ->
        let w = Walker.create e.Engine_api.n_electrons in
        e.Engine_api.randomize rngs.(i);
        e.Engine_api.register_walker w;
        w)
  in
  let acc = ref 0 and prop = ref 0 in
  let pass ~steps ~measuring ~finish =
    Array.iteri
      (fun i w ->
        e.Engine_api.restore_walker w;
        for _ = 1 to steps do
          let r = e.Engine_api.sweep rngs.(i) ~tau:p.Vmc.tau in
          if measuring then begin
            acc := !acc + r.Engine_api.accepted;
            prop := !prop + r.Engine_api.proposed;
            w.Walker.e_local <- e.Engine_api.measure ()
          end
        done;
        finish ();
        e.Engine_api.save_walker w)
      ws
  in
  pass ~steps:p.Vmc.warmup ~measuring:false ~finish:(fun () ->
      ignore (e.Engine_api.refresh ()));
  let blocks =
    Array.init p.Vmc.blocks (fun _ ->
        pass ~steps:p.Vmc.steps_per_block ~measuring:true ~finish:(fun () ->
            ignore (Engine_api.drift e));
        Array.fold_left (fun a w -> a +. w.Walker.e_local) 0. ws
        /. float_of_int p.Vmc.n_walkers)
  in
  (blocks, float_of_int !acc /. float_of_int (max 1 !prop))

(* [Vmc.run] at each crowd size against {!scalar_vmc}. *)
let check_vmc_vs_scalar ~name ~factory ~crowds p =
  let ref_blocks, ref_acc = scalar_vmc ~factory p in
  List.iter
    (fun crowd ->
      let r = Vmc.run ~crowd ~factory p in
      same_float_array
        (Printf.sprintf "%s crowd=%d block energies = scalar" name crowd)
        ref_blocks r.Vmc.block_energies;
      check_bool
        (Printf.sprintf "%s crowd=%d acceptance = scalar" name crowd)
        true
        (Float.equal ref_acc r.Vmc.acceptance))
    crowds

let test_vmc_crowd_identity () =
  let sys = Lazy.force harmonic_sys in
  check_vmc_vs_scalar ~name:"harmonic vmc" ~factory:(factory sys)
    ~crowds:[ 1 ] vmc_params;
  let one = Vmc.run ~crowd:1 ~factory:(factory sys) vmc_params in
  List.iter
    (fun crowd ->
      let r = Vmc.run ~crowd ~factory:(factory sys) vmc_params in
      same_float_array
        (Printf.sprintf "vmc crowd=%d block energies" crowd)
        one.Vmc.block_energies r.Vmc.block_energies;
      check_bool "energy identical" true
        (Float.equal one.Vmc.energy r.Vmc.energy);
      check_bool "acceptance identical" true
        (Float.equal one.Vmc.acceptance r.Vmc.acceptance))
    [ 2; 4; 6; 13 (* clamped to n_walkers *) ]

let test_vmc_crowd_identity_bspline () =
  (* End-to-end through the native batched B-spline kernels, against
     the scalar sweep. *)
  let sys = Lazy.force nio32_r16 in
  let params =
    {
      vmc_params with
      Vmc.n_walkers = 4;
      blocks = 2;
      warmup = 2;
      steps_per_block = 3;
      tau = 0.1;
    }
  in
  check_vmc_vs_scalar ~name:"bspline vmc" ~factory:(factory sys)
    ~crowds:[ 1; 4 ] params;
  let one = Vmc.run ~crowd:1 ~factory:(factory sys) params in
  let crowd = Vmc.run ~crowd:4 ~factory:(factory sys) params in
  check_bool "bspline vmc energy identical" true
    (Float.equal one.Vmc.energy crowd.Vmc.energy)

let test_dmc_crowd_identity () =
  let sys = Lazy.force harmonic_sys in
  let params =
    {
      Dmc.target_walkers = 8;
      warmup = 3;
      generations = 8;
      tau = 0.05;
      seed = 21;
      n_domains = 1;
      ranks = 1;
    }
  in
  let one = Dmc.run ~crowd:1 ~factory:(factory sys) params in
  let crowd = Dmc.run ~crowd:3 ~factory:(factory sys) params in
  same_float_array "dmc energy series" one.Dmc.energy_series
    crowd.Dmc.energy_series;
  check_bool "dmc energy identical" true
    (Float.equal one.Dmc.energy crowd.Dmc.energy);
  check_int "dmc final population identical"
    (List.length one.Dmc.final_walkers)
    (List.length crowd.Dmc.final_walkers)

(* Every crowd runs the fused pipeline: the Otf (Current) variants form
   one, and the Store-layout reference variants, which publish
   [No_crowd_hook], are refused. *)
let test_crowd_pipeline_active () =
  let sys = Lazy.force harmonic_sys in
  let cr = Crowd.create ~factory:(factory sys) ~base:0 ~size:3 () in
  check_bool "Current crowd pipelined" true (Crowd.pipelined cr);
  let cr64 =
    Crowd.create
      ~factory:(Build.factory ~variant:Variant.Current_f64 ~seed:3 sys)
      ~base:0 ~size:3 ()
  in
  check_bool "Current_f64 crowd pipelined" true (Crowd.pipelined cr64);
  List.iter
    (fun variant ->
      check_bool
        (Variant.to_string variant ^ " crowd refused")
        true
        (match
           Crowd.create ~factory:(Build.factory ~variant ~seed:3 sys)
             ~base:0 ~size:3 ()
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Variant.Ref; Variant.Ref_mp ]

(* The pipeline at crowd sizes 1 and 3 against scalar per-engine sweeps
   of the same walkers with the same streams: bit-identical
   trajectories, on the harmonic system, on the native B-spline
   orbitals (NiO-32 r16, Current f32) and with delayed rank-4
   determinant updates. *)
let pipeline_vs_scalar ~name ~walkers ~sweeps ~tau factory =
  let run_crowd size =
    let cr = Crowd.create ~factory ~base:0 ~size () in
    let rngs = Xoshiro.streams ~seed:77 walkers in
    let sweep_rngs = Xoshiro.streams ~seed:123 walkers in
    let ws =
      Array.init walkers (fun s ->
          let e = Crowd.engine cr 0 in
          let w = Walker.create e.Engine_api.n_electrons in
          e.Engine_api.randomize rngs.(s);
          e.Engine_api.register_walker w;
          w)
    in
    let acc = ref 0 in
    let lo = ref 0 in
    while !lo < walkers do
      let m = min size (walkers - !lo) and lo0 = !lo in
      for s = 0 to m - 1 do
        (Crowd.engine cr s).Engine_api.restore_walker ws.(lo0 + s)
      done;
      for _ = 1 to sweeps do
        let rs =
          Crowd.sweep cr ~active:m ~rng:(fun s -> sweep_rngs.(lo0 + s)) ~tau
        in
        Array.iter (fun r -> acc := !acc + r.Engine_api.accepted) rs
      done;
      for s = 0 to m - 1 do
        (Crowd.engine cr s).Engine_api.save_walker ws.(lo0 + s)
      done;
      lo := lo0 + m
    done;
    let e = Crowd.engine cr 0 in
    ( !acc,
      Array.map
        (fun w ->
          e.Engine_api.restore_walker w;
          e.Engine_api.measure ())
        ws )
  in
  let run_scalar () =
    let engines = Array.init walkers factory in
    let rngs = Xoshiro.streams ~seed:77 walkers in
    let ws =
      Array.mapi
        (fun s e ->
          let w = Walker.create e.Engine_api.n_electrons in
          e.Engine_api.randomize rngs.(s);
          e.Engine_api.register_walker w;
          w)
        engines
    in
    let sweep_rngs = Xoshiro.streams ~seed:123 walkers in
    let acc = ref 0 in
    for _ = 1 to sweeps do
      Array.iteri
        (fun s e ->
          let r = e.Engine_api.sweep sweep_rngs.(s) ~tau in
          acc := !acc + r.Engine_api.accepted)
        engines
    done;
    (* measured like the crowd's walkers: saved, then restored *)
    Array.iteri (fun s e -> e.Engine_api.save_walker ws.(s)) engines;
    let e = engines.(0) in
    ( !acc,
      Array.map
        (fun w ->
          e.Engine_api.restore_walker w;
          e.Engine_api.measure ())
        ws )
  in
  let acc_r, e_r = run_scalar () in
  List.iter
    (fun size ->
      let acc, es = run_crowd size in
      check_int
        (Printf.sprintf "%s: accepts crowd %d = scalar" name size)
        acc_r acc;
      same_float_array
        (Printf.sprintf "%s: local energies crowd %d = scalar" name size)
        e_r es)
    [ 1; 3 ]

let test_crowd_pipeline_vs_staged () =
  let harmonic = Lazy.force harmonic_sys in
  pipeline_vs_scalar ~name:"harmonic" ~walkers:3 ~sweeps:6 ~tau:0.3
    (factory harmonic);
  pipeline_vs_scalar ~name:"harmonic delay 4" ~walkers:3 ~sweeps:6 ~tau:0.3
    (Build.factory ~delay:4 ~variant:Variant.Current ~seed:3 harmonic);
  let nio = Lazy.force nio32_r16 in
  pipeline_vs_scalar ~name:"nio32 r16 bspline" ~walkers:4 ~sweeps:3 ~tau:0.1
    (factory nio);
  pipeline_vs_scalar ~name:"nio32 r16 bspline delay 4" ~walkers:4 ~sweeps:3
    ~tau:0.1
    (Build.factory ~delay:4 ~variant:Variant.Current ~seed:3 nio)

(* Current at f32 on the native B-spline orbitals, over two domains:
   one-slot crowds and 3-slot crowds give bit-identical DMC runs, and
   VMC runs bit-identical to the scalar sweep. *)
let test_crowd_one_vs_three_f32 () =
  let sys = Lazy.force nio32_r16 in
  let f = factory sys in
  let dmc crowd =
    Dmc.run ~crowd ~factory:f
      {
        Dmc.target_walkers = 7;
        warmup = 2;
        generations = 4;
        tau = 0.02;
        seed = 5;
        n_domains = 2;
        ranks = 1;
      }
  in
  let d1 = dmc 1 and d3 = dmc 3 in
  same_float_array "f32 dmc energy series" d1.Dmc.energy_series
    d3.Dmc.energy_series;
  Alcotest.(check (array int))
    "f32 dmc population series" d1.Dmc.population_series
    d3.Dmc.population_series;
  check_bool "f32 dmc acceptance identical" true
    (Float.equal d1.Dmc.acceptance d3.Dmc.acceptance);
  check_vmc_vs_scalar ~name:"f32 vmc" ~factory:f ~crowds:[ 1; 3 ]
    {
      vmc_params with
      Vmc.n_walkers = 7;
      blocks = 2;
      warmup = 2;
      steps_per_block = 2;
      tau = 0.1;
      n_domains = 2;
    }

(* Restoring a walker leaves the AA table to [prepare] and [measure]
   and rebuilds only the AB table.  A Current_f64 crowd of 3 slots, each
   slot first holding another configuration, runs restore -> sweep ->
   measure exactly like engines that ran [load_walker] (a full refresh)
   instead: positions, log psi, local energy and saved buffer, bit for
   bit.  NiO-32 r16 has ions, J1 and electron-ion Coulomb terms, so a
   stale AB row would show in the local energy. *)
let test_restore_equals_refresh () =
  let sys = Lazy.force nio32_r16 in
  let factory = Build.factory ~variant:Variant.Current_f64 ~seed:3 sys in
  let run ~restore =
    let cr = Crowd.create ~factory ~base:0 ~size:3 () in
    let e0 = Crowd.engine cr 0 in
    let rngs = Xoshiro.streams ~seed:61 3 in
    let ws =
      Array.init 3 (fun s ->
          let w = Walker.create e0.Engine_api.n_electrons in
          e0.Engine_api.randomize rngs.(s);
          e0.Engine_api.register_walker w;
          w)
    in
    for s = 0 to 2 do
      (Crowd.engine cr s).Engine_api.randomize (Xoshiro.create (90 + s))
    done;
    Array.iteri
      (fun s w ->
        let e = Crowd.engine cr s in
        if restore then e.Engine_api.restore_walker w
        else e.Engine_api.load_walker w)
      ws;
    let sweep_rngs = Xoshiro.streams ~seed:62 3 in
    ignore (Crowd.sweep cr ~active:3 ~rng:(fun s -> sweep_rngs.(s)) ~tau:0.1);
    Array.mapi
      (fun s w ->
        let e = Crowd.engine cr s in
        let el = e.Engine_api.measure () in
        e.Engine_api.save_walker w;
        (el, w))
      ws
  in
  let restored = run ~restore:true and refreshed = run ~restore:false in
  Array.iteri
    (fun s ((el_a, (wa : Walker.t)), (el_b, (wb : Walker.t))) ->
      let name what = Printf.sprintf "slot %d: %s" s what in
      same_float_array (name "local energy") [| el_a |] [| el_b |];
      same_float_array (name "log psi") [| wa.Walker.log_psi |]
        [| wb.Walker.log_psi |];
      for i = 0 to Walker.n_particles wa - 1 do
        let p = Walker.Aos.get wa.Walker.r i and q = Walker.Aos.get wb.Walker.r i in
        same_float_array (name "position") [| p.Vec3.x; p.Vec3.y; p.Vec3.z |]
          [| q.Vec3.x; q.Vec3.y; q.Vec3.z |]
      done;
      same_float_array (name "saved buffer")
        (Wbuffer.contents wa.Walker.buffer)
        (Wbuffer.contents wb.Walker.buffer))
    (Array.combine restored refreshed)

(* The sweep-unit width each variant gets is the one [Runner.max_crowd]
   states (the header and the tuner use it), and the crowd is clamped to
   the run's walkers. *)
let test_crowd_width () =
  let sys = Lazy.force harmonic_sys in
  let width ~variant ~crowd ~walkers =
    Runner.with_runner ~crowd ~walkers ~n_domains:1
      ~factory:(Build.factory ~variant ~seed:3 sys)
      Runner.crowd
  in
  List.iter
    (fun variant ->
      List.iter
        (fun (crowd, walkers) ->
          check_int
            (Printf.sprintf "%s crowd %d, %d walkers"
               (Variant.to_string variant) crowd walkers)
            (min crowd (Runner.max_crowd ~variant ~walkers))
            (width ~variant ~crowd ~walkers))
        [ (1, 8); (3, 8); (50, 4) ])
    [ Variant.Ref; Variant.Ref_mp; Variant.Current; Variant.Current_f64 ];
  check_bool "crowd 0 refused" true
    (match width ~variant:Variant.Current ~crowd:0 ~walkers:4 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- orbital evaluations per move ---------- *)

(* [spo] wrapped to count its vgl evaluations: scalar [eval_vgl] calls
   plus every position of a batched run. *)
let counting_spo (spo : Spo.t) =
  let count = ref 0 in
  let make_vgl_batch cap =
    let b = spo.Spo.make_vgl_batch cap in
    {
      b with
      Spo.run =
        (fun pos n ->
          count := !count + n;
          b.Spo.run pos n);
    }
  in
  ( {
      spo with
      Spo.eval_vgl =
        (fun pos vgl ->
          incr count;
          spo.Spo.eval_vgl pos vgl);
      make_vgl_batch;
    },
    count )

(* The determinants keep every electron's orbital row and the walker
   carries them: one vgl evaluation per proposed move, none to restore a
   saved walker or to measure after a sweep, n to refresh (both
   determinants together).  A walker without rows (as from a checkpoint
   or another rank) pays one rebuild of n after its restore.  Two
   determinants of different sizes; the scalar sweep (Ref) and a 3-slot
   crowd (Current_f64). *)
let test_spo_evaluations_per_move () =
  let base = Validation.electron_gas ~n_up:3 ~n_down:2 ~box:5.0 () in
  let spo, count = counting_spo base.System.spo in
  let sys = { base with System.spo } in
  let n = 5 in
  let counted name expected f =
    let c0 = !count in
    f ();
    check_int name expected (!count - c0)
  in
  let walkers m (e : Engine_api.t) =
    let rngs = Xoshiro.streams ~seed:31 m in
    Array.init m (fun s ->
        let w = Walker.create n in
        e.Engine_api.randomize rngs.(s);
        e.Engine_api.register_walker w;
        w)
  in
  (* scalar sweep *)
  let e = Build.engine ~variant:Variant.Ref ~seed:3 sys in
  let w = (walkers 1 e).(0) in
  check_bool "scalar: a registered walker carries rows" true
    (w.Walker.rows <> Walker.No_rows);
  let rng = Xoshiro.create 41 in
  let sweep () =
    let r = e.Engine_api.sweep rng ~tau:0.3 in
    check_int "scalar: every electron proposed" n r.Engine_api.proposed
  in
  let measure () = ignore (e.Engine_api.measure ()) in
  let restore () = e.Engine_api.restore_walker w in
  counted "scalar: restore is free" 0 restore;
  counted "scalar: sweep after restoring a saved walker" n sweep;
  counted "scalar: measure after sweep" 0 measure;
  e.Engine_api.save_walker w;
  counted "scalar: restore a saved walker, again" 0 restore;
  counted "scalar: sweep after restore, again" n sweep;
  counted "scalar: refresh builds the rows" n (fun () ->
      ignore (e.Engine_api.refresh ()));
  counted "scalar: measure after refresh" 0 measure;
  Walker.drop_rows w;
  counted "scalar: restore without rows is free" 0 restore;
  counted "scalar: rebuild after a restore without rows" n measure;
  counted "scalar: one per proposed move after the rebuild" n sweep;
  restore ();
  counted "scalar: sweep after a restore without rows" (2 * n) sweep;
  (* 3-slot crowd *)
  let factory = Build.factory ~variant:Variant.Current_f64 ~seed:3 sys in
  let cr = Crowd.create ~factory ~base:0 ~size:3 () in
  let ws = walkers 3 (Crowd.engine cr 0) in
  let rngs = Xoshiro.streams ~seed:43 3 in
  let restore () =
    Array.iteri
      (fun s w -> (Crowd.engine cr s).Engine_api.restore_walker w)
      ws
  in
  let save () =
    Array.iteri (fun s w -> (Crowd.engine cr s).Engine_api.save_walker w) ws
  in
  let sweep () =
    Array.iter
      (fun r ->
        check_int "crowd: every electron proposed" n r.Engine_api.proposed)
      (Crowd.sweep cr ~active:3 ~rng:(fun s -> rngs.(s)) ~tau:0.3)
  in
  let measure () =
    for s = 0 to 2 do
      ignore ((Crowd.engine cr s).Engine_api.measure ())
    done
  in
  counted "crowd: restore is free" 0 restore;
  counted "crowd: sweep after restoring saved walkers" (3 * n) sweep;
  counted "crowd: measure after sweep" 0 measure;
  save ();
  counted "crowd: restore saved walkers, again" 0 restore;
  counted "crowd: sweep after restore, again" (3 * n) sweep;
  counted "crowd: measure after sweep, again" 0 measure;
  Array.iter Walker.drop_rows ws;
  counted "crowd: restore without rows is free" 0 restore;
  counted "crowd: rebuild after a restore without rows" (3 * n) measure;
  counted "crowd: one per proposed move after the rebuild" (3 * n) sweep;
  restore ();
  counted "crowd: sweep after a restore without rows" (6 * n) sweep

(* ---------- carried orbital rows ---------- *)

(* Every walker through a wire roundtrip and a checkpoint roundtrip:
   what a rank exchange and a resume do.  Both drop the carried rows. *)
let roundtrip_walkers (ws : Walker.t array) =
  let buf = Buffer.create 4096 in
  Array.iter (Walker.encode buf) ws;
  let s = Buffer.contents buf and pos = ref 0 in
  let decoded = Array.map (fun _ -> Walker.decode s pos) ws in
  let path = Filename.temp_file "oqmc_rows" ".chk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save ~path ~e_trial:0. (Array.to_list decoded);
      Array.of_list (snd (Checkpoint.load ~path)))

(* [gens] generations of [step ws rngs], which runs restore -> sweep ->
   measure -> save (the DMC generation's walker choreography) over all
   walkers.  With [~lose] every walker loses its rows between
   generations.  Returns, per generation, every walker's positions,
   log psi and local energy. *)
let carried_rows_run ~lose ~gens ~walkers ~(e0 : Engine_api.t)
    ~(step : Walker.t array -> Xoshiro.t array -> unit) =
  let rngs = Xoshiro.streams ~seed:71 walkers in
  let ws =
    ref
      (Array.init walkers (fun s ->
           let w = Walker.create e0.Engine_api.n_electrons in
           e0.Engine_api.randomize rngs.(s);
           e0.Engine_api.register_walker w;
           w))
  in
  let sweep_rngs = Xoshiro.streams ~seed:72 walkers in
  List.init gens (fun g ->
      if lose then ws := roundtrip_walkers !ws;
      Array.iter
        (fun (w : Walker.t) ->
          check_bool
            (Printf.sprintf "gen %d: rows carried" g)
            (not lose) (w.Walker.rows <> Walker.No_rows))
        !ws;
      step !ws sweep_rngs;
      Array.concat
        (List.map
           (fun (w : Walker.t) ->
             let pos =
               List.init (Walker.n_particles w) (fun i ->
                   let p = Walker.Aos.get w.Walker.r i in
                   [| p.Vec3.x; p.Vec3.y; p.Vec3.z |])
             in
             Array.concat (pos @ [ [| w.Walker.log_psi; w.Walker.e_local |] ]))
           (Array.to_list !ws)))

let measure_and_save (e : Engine_api.t) (w : Walker.t) =
  w.Walker.e_local <- e.Engine_api.measure ();
  e.Engine_api.save_walker w

(* The invariant of the carried rows: every row is a pure function of
   the stored positions, so walkers that lose their rows every
   generation (and rebuild them) follow the trajectory of walkers that
   keep them, bit for bit.  NiO-32 r16 Current at f32 through a crowd of
   3 (rows narrowed to f32, proposals rounded to f32), and Ref at f64
   through the scalar sweep. *)
let test_carried_rows_invariant () =
  let sys = Lazy.force nio32_r16 in
  let gens = 3 and walkers = 3 in
  let check name ~e0 ~step =
    let keep = carried_rows_run ~lose:false ~gens ~walkers ~e0 ~step
    and lose = carried_rows_run ~lose:true ~gens ~walkers ~e0 ~step in
    List.iteri
      (fun g (a, b) ->
        same_float_array
          (Printf.sprintf "%s gen %d: positions, log psi, local energies"
             name g)
          a b)
      (List.combine keep lose)
  in
  let current = Build.factory ~variant:Variant.Current ~seed:3 sys in
  let cr = Crowd.create ~factory:current ~base:0 ~size:walkers () in
  check "Current f32 crowd 3" ~e0:(Crowd.engine cr 0) ~step:(fun ws rngs ->
      Array.iteri
        (fun s w -> (Crowd.engine cr s).Engine_api.restore_walker w)
        ws;
      ignore
        (Crowd.sweep cr ~active:walkers ~rng:(fun s -> rngs.(s)) ~tau:0.1);
      Array.iteri (fun s w -> measure_and_save (Crowd.engine cr s) w) ws);
  let e = Build.engine ~variant:Variant.Ref ~seed:3 sys in
  check "Ref f64 scalar" ~e0:e ~step:(fun ws rngs ->
      Array.iteri
        (fun s w ->
          e.Engine_api.restore_walker w;
          ignore (e.Engine_api.sweep rngs.(s) ~tau:0.1);
          measure_and_save e w)
        ws)

(* [Walker.copy] gives the copy its own rows: equal contents, separate
   storage. *)
let test_walker_copy_rows () =
  let sys = Lazy.force nio32_r16 in
  let e = Build.engine ~variant:Variant.Current ~seed:3 sys in
  let w = Walker.create e.Engine_api.n_electrons in
  e.Engine_api.register_walker w;
  let c = Walker.copy w in
  check_bool "copy has the rows" true
    (c.Walker.rows <> Walker.No_rows && c.Walker.rows = w.Walker.rows);
  check_bool "equal rows deviate by 0" true
    (Walker.rows_deviation ~truth:w c = 0.);
  (match c.Walker.rows with
  | Walker.Rows_f32 a -> Bigarray.Array1.set a 0 (Bigarray.Array1.get a 0 +. 1.)
  | Walker.Rows_f64 _ | Walker.No_rows -> Alcotest.fail "Current rows are f32");
  check_bool "original untouched by a write to the copy" true
    (Walker.rows_deviation ~truth:w c > 0.1)

(* ---------- Ref walker state in whole blocks ---------- *)

(* The Store variants at both widths: Ref keeps its Jastrow matrices in
   f64, Ref+MP in f32 (widened into the f64 pool, narrowed back out). *)
let store_variants =
  [ ("Ref f64", Variant.Ref); ("Ref+MP f32", Variant.Ref_mp) ]

(* A registered NiO-32 r16 walker; with [~sweep], one sweep away from
   its random start (incrementally updated state) and saved again. *)
let store_walker ~sweep (e : Engine_api.t) =
  let w = Walker.create e.Engine_api.n_electrons in
  e.Engine_api.randomize (Xoshiro.create 81);
  e.Engine_api.register_walker w;
  if sweep then begin
    ignore (e.Engine_api.sweep (Xoshiro.create 82) ~tau:0.1);
    e.Engine_api.save_walker w
  end;
  w

(* save -> restore -> save reproduces the walker buffer bit for bit, on
   an engine whose own state was scrambled in between. *)
let test_store_save_restore_save () =
  let sys = Lazy.force nio32_r16 in
  List.iter
    (fun (name, variant) ->
      let e = Build.engine ~variant ~seed:3 sys in
      let w = store_walker ~sweep:true e in
      let saved = Wbuffer.contents w.Walker.buffer in
      e.Engine_api.randomize (Xoshiro.create 83);
      e.Engine_api.restore_walker w;
      e.Engine_api.save_walker w;
      same_float_array (name ^ ": buffer") saved
        (Wbuffer.contents w.Walker.buffer))
    store_variants

(* An engine that restored a walker from its buffer reads the same
   ratios and gradients (the drift of a sweep), and measures the same
   local energy, as an engine that rebuilt it with [load_walker], bit
   for bit; the sweep after it then saves the same state.  The walker
   was saved from a full evaluation: a swept walker's incremental state
   differs from a rebuild in the last bits by design. *)
let test_store_restore_equals_load () =
  let sys = Lazy.force nio32_r16 in
  List.iter
    (fun (name, variant) ->
      let w =
        store_walker ~sweep:false (Build.engine ~variant ~seed:3 sys)
      in
      let observe ~restore =
        let e = Build.engine ~variant ~seed:3 sys in
        e.Engine_api.randomize (Xoshiro.create 84);
        let w = Walker.copy w in
        if restore then e.Engine_api.restore_walker w
        else e.Engine_api.load_walker w;
        let pbp = e.Engine_api.pbp in
        let ratios =
          List.init e.Engine_api.n_electrons (fun k ->
              pbp.Engine_api.prepare k;
              let p = pbp.Engine_api.current_pos k in
              pbp.Engine_api.propose k (Vec3.add p (Vec3.make 0.1 0. (-0.05)));
              let r, g = pbp.Engine_api.ratio_grad k in
              pbp.Engine_api.reject k;
              [| r; g.Vec3.x; g.Vec3.y; g.Vec3.z |])
        in
        let el = e.Engine_api.measure () in
        let sw = e.Engine_api.sweep (Xoshiro.create 85) ~tau:0.1 in
        let el' = e.Engine_api.measure () in
        e.Engine_api.save_walker w;
        Array.concat
          (ratios
          @ [
              [| el; float_of_int sw.Engine_api.accepted; el' |];
              [| w.Walker.log_psi |];
              Wbuffer.contents w.Walker.buffer;
            ])
      in
      same_float_array
        (name ^ ": ratio_grad, measure, sweep, saved state")
        (observe ~restore:true) (observe ~restore:false))
    store_variants

(* A walker off the wire, out of a checkpoint or through a fault flip
   holds its pool at exact size, with the same contents. *)
let test_reloaded_pool_exact () =
  let sys = Lazy.force nio32_r16 in
  let w =
    store_walker ~sweep:true (Build.engine ~variant:Variant.Ref ~seed:3 sys)
  in
  let contents = Wbuffer.contents w.Walker.buffer in
  let exact = Obj.reachable_words (Obj.repr (Wbuffer.copy w.Walker.buffer)) in
  check_bool "registration leaves spare capacity" true
    (Obj.reachable_words (Obj.repr w.Walker.buffer) > exact);
  let check what (b : Wbuffer.t) =
    check_int (what ^ ": no spare capacity") exact
      (Obj.reachable_words (Obj.repr b));
    check_int (what ^ ": cursor") 0 (Wbuffer.cursor b);
    same_float_array (what ^ ": contents") contents (Wbuffer.contents b)
  in
  let buf = Buffer.create 4096 in
  Walker.encode buf w;
  let decoded = Walker.decode (Buffer.contents buf) (ref 0) in
  check "decode" decoded.Walker.buffer;
  let path = Filename.temp_file "oqmc_pool" ".chk" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Checkpoint.save ~path ~e_trial:0. [ w ];
        snd (Checkpoint.load ~path))
  in
  List.iter (fun (l : Walker.t) -> check "checkpoint" l.Walker.buffer) loaded;
  let flipped = Walker.copy w in
  Fault.flip_buffer_bit flipped ~index:0 ~bit:3;
  Fault.flip_buffer_bit flipped ~index:0 ~bit:3;
  check "fault flip" flipped.Walker.buffer

(* Crowd batching composed with delayed determinant updates: the whole
   VMC trajectory at crowd 1 and 3 is the scalar sweep's at equal
   delay. *)
let test_vmc_crowd_identity_delayed () =
  let sys = Lazy.force harmonic_sys in
  let dfactory = Build.factory ~delay:4 ~variant:Variant.Current ~seed:3 sys in
  check_vmc_vs_scalar ~name:"vmc delay=4" ~factory:dfactory ~crowds:[ 1; 3 ]
    vmc_params;
  let one = Vmc.run ~crowd:1 ~factory:dfactory vmc_params in
  let crowd = Vmc.run ~crowd:3 ~factory:dfactory vmc_params in
  check_bool "vmc delay=4 energy identical" true
    (Float.equal one.Vmc.energy crowd.Vmc.energy);
  check_bool "vmc delay=4 acceptance identical" true
    (Float.equal one.Vmc.acceptance crowd.Vmc.acceptance)

let () =
  Alcotest.run "pool"
    [
      ( "runner",
        [
          Alcotest.test_case "grain size" `Quick test_grain_for;
          Alcotest.test_case "explicit grain" `Quick test_explicit_grain;
          Alcotest.test_case "exactly-once coverage" `Quick
            test_coverage_exactly_once;
          Alcotest.test_case "spawn accounting" `Quick test_spawn_count;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "merged timers cover every slot" `Quick
            test_merged_timers_all_slots;
        ] );
      ( "batched kernels",
        [
          Alcotest.test_case "vgh batch f64 bit-identical" `Quick
            test_vgh_batch_identity_f64;
          Alcotest.test_case "vgh batch f32 ulp" `Quick
            test_vgh_batch_identity_f32;
          Alcotest.test_case "v batch bit-identical" `Quick
            test_v_batch_identity;
          Alcotest.test_case "bounds" `Quick test_batch_bounds;
          Alcotest.test_case "spo batch identity" `Quick
            test_spo_batch_identity;
          Alcotest.test_case "serial fallback" `Quick
            test_serial_fallback_identity;
        ] );
      ( "crowd",
        [
          Alcotest.test_case "vmc crowd bit-identical" `Quick
            test_vmc_crowd_identity;
          Alcotest.test_case "vmc crowd bspline" `Quick
            test_vmc_crowd_identity_bspline;
          Alcotest.test_case "dmc crowd bit-identical" `Quick
            test_dmc_crowd_identity;
          Alcotest.test_case "pipeline active" `Quick
            test_crowd_pipeline_active;
          Alcotest.test_case "pipeline vs staged vs scalar" `Quick
            test_crowd_pipeline_vs_staged;
          Alcotest.test_case "crowd 1 vs 3 at f32" `Quick
            test_crowd_one_vs_three_f32;
          Alcotest.test_case "crowd width per variant" `Quick
            test_crowd_width;
          Alcotest.test_case "restore equals a full refresh" `Quick
            test_restore_equals_refresh;
          Alcotest.test_case "vmc crowd delayed bit-identical" `Quick
            test_vmc_crowd_identity_delayed;
          Alcotest.test_case "carried rows: same trajectory without them"
            `Quick test_carried_rows_invariant;
          Alcotest.test_case "walker copy copies the rows" `Quick
            test_walker_copy_rows;
          Alcotest.test_case "one SPO evaluation per move" `Quick
            test_spo_evaluations_per_move;
          Alcotest.test_case "store save -> restore -> save bit-identical"
            `Quick test_store_save_restore_save;
          Alcotest.test_case "store restore equals load_walker" `Quick
            test_store_restore_equals_load;
          Alcotest.test_case "reloaded walker pool is exact-size" `Quick
            test_reloaded_pool_exact;
        ] );
    ]
