(* Persistent domain pool + crowd-batched kernels.

   Pins the pool's contract (exactly n_domains - 1 spawns per lifetime,
   exactly-once dynamic scheduling for uneven walker counts, idempotent
   shutdown) and the batched-kernel contract (batch results identical to
   scalar calls, including positions on the periodic wrap planes; crowd
   drivers bit-identical to the scalar reference path). *)

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
      Runner.with_runner ~n_domains ~factory:(factory sys) @@ fun runner ->
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
      Runner.with_runner ~n_domains ~factory:(factory sys) @@ fun runner ->
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
  (Runner.with_runner ~n_domains:3 ~factory:(factory sys) @@ fun runner ->
   for _ = 1 to 50 do
     let sink = Atomic.make 0 in
     Runner.parallel_for runner ~n:11 ~f:(fun ~domain:_ _ ->
         Atomic.incr sink);
     check_int "region covers all" 11 (Atomic.get sink)
   done);
  check_int "exactly n_domains - 1 spawns for 50 regions" 2
    (Runner.total_spawns () - before);
  let before = Runner.total_spawns () in
  (Runner.with_runner ~n_domains:1 ~factory:(factory sys) @@ fun runner ->
   Runner.parallel_for runner ~n:5 ~f:(fun ~domain:_ _ -> ()));
  check_int "single domain never spawns" 0 (Runner.total_spawns () - before)

let test_shutdown_idempotent () =
  let sys = Lazy.force harmonic_sys in
  let runner = Runner.create ~n_domains:2 ~factory:(factory sys) in
  Runner.parallel_for runner ~n:4 ~f:(fun ~domain:_ _ -> ());
  Runner.shutdown runner;
  Runner.shutdown runner;
  check_bool "parallel_for after shutdown rejected" true
    (match
       Runner.parallel_for runner ~n:4 ~f:(fun ~domain:_ _ -> ())
     with
    | () -> false
    | exception Invalid_argument _ -> true)

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

let test_vmc_crowd_identity () =
  let sys = Lazy.force harmonic_sys in
  let scalar = Vmc.run ~crowd:1 ~factory:(factory sys) vmc_params in
  List.iter
    (fun crowd ->
      let r = Vmc.run ~crowd ~factory:(factory sys) vmc_params in
      same_float_array
        (Printf.sprintf "vmc crowd=%d block energies" crowd)
        scalar.Vmc.block_energies r.Vmc.block_energies;
      check_bool "energy identical" true
        (Float.equal scalar.Vmc.energy r.Vmc.energy);
      check_bool "acceptance identical" true
        (Float.equal scalar.Vmc.acceptance r.Vmc.acceptance))
    [ 2; 4; 6; 13 (* clamped to n_walkers *) ]

let test_vmc_crowd_identity_bspline () =
  (* End-to-end through the native batched B-spline kernels. *)
  let sys = Builder.make ~reduction:16 ~with_nlpp:false Spec.nio32 in
  let params = { vmc_params with Vmc.n_walkers = 4; blocks = 2; warmup = 2; steps_per_block = 3; tau = 0.1 } in
  let scalar = Vmc.run ~crowd:1 ~factory:(factory sys) params in
  let crowd = Vmc.run ~crowd:4 ~factory:(factory sys) params in
  same_float_array "bspline vmc block energies" scalar.Vmc.block_energies
    crowd.Vmc.block_energies;
  check_bool "bspline vmc energy identical" true
    (Float.equal scalar.Vmc.energy crowd.Vmc.energy)

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
  let scalar = Dmc.run ~crowd:1 ~factory:(factory sys) params in
  let crowd = Dmc.run ~crowd:3 ~factory:(factory sys) params in
  same_float_array "dmc energy series" scalar.Dmc.energy_series
    crowd.Dmc.energy_series;
  check_bool "dmc energy identical" true
    (Float.equal scalar.Dmc.energy crowd.Dmc.energy);
  check_int "dmc final population identical"
    (List.length scalar.Dmc.final_walkers)
    (List.length crowd.Dmc.final_walkers)

(* Guard against a silent fallback: the full-pipeline batched path must
   actually be engaged for the Otf (Current) variants, and must decline
   gracefully for the Store-layout reference variants. *)
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
  let off = Crowd.create ~pipeline:false ~factory:(factory sys) ~base:0 ~size:3 () in
  check_bool "pipeline:false honoured" false (Crowd.pipelined off);
  let cref =
    Crowd.create
      ~factory:(Build.factory ~variant:Variant.Ref ~seed:3 sys)
      ~base:0 ~size:3 ()
  in
  check_bool "Store layout falls back" false (Crowd.pipelined cref)

(* The pipelined sweep, the staged (PR2) sweep and the scalar per-engine
   sweep must produce bit-identical trajectories. *)
let test_crowd_pipeline_vs_staged () =
  let sys = Lazy.force harmonic_sys in
  let size = 3 in
  let run_crowd ~pipeline =
    let cr = Crowd.create ~pipeline ~factory:(factory sys) ~base:0 ~size () in
    check_bool "pipelined as requested" pipeline (Crowd.pipelined cr);
    let rngs = Xoshiro.streams ~seed:77 size in
    for s = 0 to size - 1 do
      (Crowd.engine cr s).Engine_api.randomize rngs.(s)
    done;
    let sweep_rngs = Xoshiro.streams ~seed:123 size in
    let acc = ref 0 in
    for _ = 1 to 6 do
      let rs =
        Crowd.sweep cr ~active:size ~rng:(fun s -> sweep_rngs.(s)) ~tau:0.3
      in
      Array.iter (fun r -> acc := !acc + r.Engine_api.accepted) rs
    done;
    let es =
      Array.init size (fun s -> (Crowd.engine cr s).Engine_api.measure ())
    in
    (!acc, es)
  in
  let run_scalar () =
    let engines = Array.init size (factory sys) in
    let rngs = Xoshiro.streams ~seed:77 size in
    Array.iteri (fun s e -> e.Engine_api.randomize rngs.(s)) engines;
    let sweep_rngs = Xoshiro.streams ~seed:123 size in
    let acc = ref 0 in
    for _ = 1 to 6 do
      Array.iteri
        (fun s e ->
          let r = e.Engine_api.sweep sweep_rngs.(s) ~tau:0.3 in
          acc := !acc + r.Engine_api.accepted)
        engines
    done;
    (!acc, Array.map (fun e -> e.Engine_api.measure ()) engines)
  in
  let acc_p, e_p = run_crowd ~pipeline:true in
  let acc_s, e_s = run_crowd ~pipeline:false in
  let acc_r, e_r = run_scalar () in
  check_int "accepts pipeline = staged" acc_s acc_p;
  check_int "accepts pipeline = scalar" acc_r acc_p;
  same_float_array "local energies pipeline = staged" e_s e_p;
  same_float_array "local energies pipeline = scalar" e_r e_p

(* Crowd batching composed with delayed determinant updates: the whole
   VMC trajectory stays bit-identical to the scalar path at equal
   delay. *)
let test_vmc_crowd_identity_delayed () =
  let sys = Lazy.force harmonic_sys in
  let dfactory = Build.factory ~delay:4 ~variant:Variant.Current ~seed:3 sys in
  let scalar = Vmc.run ~crowd:1 ~factory:dfactory vmc_params in
  let crowd = Vmc.run ~crowd:3 ~factory:dfactory vmc_params in
  same_float_array "vmc delay=4 block energies" scalar.Vmc.block_energies
    crowd.Vmc.block_energies;
  check_bool "vmc delay=4 energy identical" true
    (Float.equal scalar.Vmc.energy crowd.Vmc.energy);
  check_bool "vmc delay=4 acceptance identical" true
    (Float.equal scalar.Vmc.acceptance crowd.Vmc.acceptance)

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
          Alcotest.test_case "vmc crowd delayed bit-identical" `Quick
            test_vmc_crowd_identity_delayed;
        ] );
    ]
