open Oqmc_containers
open Oqmc_core
open Oqmc_rng

(* Pool + crowd-batching benchmark: the machine-readable perf trajectory
   for the persistent-domain-pool work.

   Four measurements, printed as a table and optionally written as JSON
   (BENCH_pool.json) so regressions are diffable across PRs:

   1. generation dispatch: spawn/join-per-generation (the old Runner)
      vs. the persistent pool, in the spawn-bound regime (many
      generations, tiny per-walker work);
   2. Bspline-vgh ns/op: scalar loop vs. batched kernel at several
      crowd sizes, both precisions;
   3. allocation per evaluation: the batched kernel must not allocate
      (scratch lives in the arena) — asserted, not just reported;
   4. end-to-end VMC walker throughput, scalar vs. crowd path, with the
      bit-identity of the two paths asserted on the total energy. *)

module B3_64 = Oqmc_spline.Bspline3d.Make (Precision.F64)
module B3_32 = Oqmc_spline.Bspline3d.Make (Precision.F32)

let time_per ~reps f =
  let t0 = Timers.now () in
  for _ = 1 to reps do
    f ()
  done;
  (Timers.now () -. t0) /. float_of_int reps

(* ---- 1. generation dispatch: spawn-per-generation vs pool ---- *)

(* The pre-pool Runner, inlined as the reference: spawn + join every
   generation with static contiguous chunks. *)
let spawn_iter ~n_domains ~n ~f =
  let chunk = (n + n_domains - 1) / n_domains in
  let work d () =
    let lo = d * chunk in
    let hi = min n (lo + chunk) in
    for i = lo to hi - 1 do
      f d i
    done
  in
  let handles =
    Array.init (n_domains - 1) (fun d -> Domain.spawn (work (d + 1)))
  in
  work 0 ();
  Array.iter Domain.join handles

type dispatch = {
  n_domains : int;
  generations : int;
  walkers : int;
  spawn_per_gen_ns : float;
  pool_per_gen_ns : float;
  speedup : float;
}

let bench_dispatch () =
  let n_domains = 2 and generations = 500 and walkers = 8 in
  let sink = Array.make walkers 0. in
  let body _d i = sink.(i) <- sink.(i) +. 1. in
  let spawn_t =
    time_per ~reps:generations (fun () ->
        spawn_iter ~n_domains ~n:walkers ~f:body)
  in
  let sys = Oqmc_workloads.Validation.harmonic ~n:2 ~omega:1.0 in
  let factory = Build.factory ~variant:Variant.Current ~seed:1 sys in
  let pool_t =
    Runner.with_runner ~crowd:1 ~walkers ~n_domains ~factory (fun runner ->
        (* one warm region so workers are parked, not spawning *)
        Runner.parallel_for runner ~n:walkers ~f:(fun ~domain i ->
            body domain i);
        time_per ~reps:generations (fun () ->
            Runner.parallel_for runner ~n:walkers ~f:(fun ~domain i ->
                body domain i)))
  in
  {
    n_domains;
    generations;
    walkers;
    spawn_per_gen_ns = spawn_t *. 1e9;
    pool_per_gen_ns = pool_t *. 1e9;
    speedup = spawn_t /. pool_t;
  }

(* ---- 2./3. Bspline-vgh: scalar loop vs batched kernel ---- *)

type vgh_point = {
  precision : string;
  crowd : int;
  scalar_ns_per_op : float;
  batch_ns_per_op : float;
  batch_speedup : float;
}

type alloc = { scalar_words_per_op : float; batch_words_per_op : float }

let minor_words_per ~reps f =
  f ();
  (* warmup: first-touch, lazy init *)
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let synthetic ~orb ~i ~j ~k =
  sin (float_of_int ((orb * 7) + (i * 3) + (j * 5) + (k * 11)))

(* [scalar ~u0 ~u1 ~u2] evaluates one position into a reused buffer;
   [batch ~n ~u0 ~u1 ~u2] evaluates [n] positions through the arena. *)
let bench_vgh ~precision ~scalar ~batch crowds =
  let rng = Xoshiro.create 42 in
  List.map
    (fun crowd ->
      let u0 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
      let u1 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
      let u2 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
      let reps = max 1 (20_000 / crowd) in
      let scalar_t =
        time_per ~reps (fun () ->
            for s = 0 to crowd - 1 do
              scalar ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s)
            done)
      in
      let batch_t = time_per ~reps (fun () -> batch ~n:crowd ~u0 ~u1 ~u2) in
      let per = float_of_int crowd in
      {
        precision;
        crowd;
        scalar_ns_per_op = scalar_t *. 1e9 /. per;
        batch_ns_per_op = batch_t *. 1e9 /. per;
        batch_speedup = scalar_t /. batch_t;
      })
    crowds

let bench_vgh_all () =
  let crowds = [ 1; 8; 16 ] in
  let t64 = B3_64.create ~nx:16 ~ny:16 ~nz:16 ~n_orb:32 () in
  B3_64.fill t64 synthetic;
  let buf64 = B3_64.make_vgh_buf t64 in
  let arena64 = B3_64.make_vgh_batch t64 ~cap:16 in
  let f64 =
    bench_vgh ~precision:"f64"
      ~scalar:(fun ~u0 ~u1 ~u2 -> B3_64.eval_vgh t64 ~u0 ~u1 ~u2 buf64)
      ~batch:(fun ~n ~u0 ~u1 ~u2 ->
        B3_64.eval_vgh_batch t64 arena64 ~n ~u0 ~u1 ~u2)
      crowds
  in
  let t32 = B3_32.create ~nx:16 ~ny:16 ~nz:16 ~n_orb:32 () in
  B3_32.fill t32 synthetic;
  let buf32 = B3_32.make_vgh_buf t32 in
  let arena32 = B3_32.make_vgh_batch t32 ~cap:16 in
  let f32 =
    bench_vgh ~precision:"f32"
      ~scalar:(fun ~u0 ~u1 ~u2 -> B3_32.eval_vgh t32 ~u0 ~u1 ~u2 buf32)
      ~batch:(fun ~n ~u0 ~u1 ~u2 ->
        B3_32.eval_vgh_batch t32 arena32 ~n ~u0 ~u1 ~u2)
      crowds
  in
  f64 @ f32

let bench_alloc () =
  let table = B3_64.create ~nx:16 ~ny:16 ~nz:16 ~n_orb:32 () in
  B3_64.fill table synthetic;
  let buf = B3_64.make_vgh_buf table in
  let crowd = 8 in
  let arena = B3_64.make_vgh_batch table ~cap:crowd in
  let rng = Xoshiro.create 43 in
  let u0 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
  let u1 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
  let u2 = Array.init crowd (fun _ -> Xoshiro.uniform rng) in
  let reps = 2000 in
  let scalar =
    minor_words_per ~reps (fun () ->
        for s = 0 to crowd - 1 do
          B3_64.eval_vgh table ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) buf
        done)
    /. float_of_int crowd
  in
  let batch_w =
    minor_words_per ~reps (fun () ->
        B3_64.eval_vgh_batch table arena ~n:crowd ~u0 ~u1 ~u2)
    /. float_of_int crowd
  in
  (* The whole point of the arena: zero allocation on the batched path.
     Hard assertion so the bench harness doubles as a regression test. *)
  if batch_w > 1. then
    failwith
      (Printf.sprintf
         "pool_bench: eval_vgh_batch allocates %.1f words/op (want 0)"
         batch_w);
  { scalar_words_per_op = scalar; batch_words_per_op = batch_w }

(* ---- 4. end-to-end VMC walker throughput ---- *)

type vmc_point = { vcrowd : int; samples_per_s : float; energy : float }

let bench_vmc () =
  let sys = Oqmc_workloads.Validation.harmonic ~n:6 ~omega:1.0 in
  let factory = Build.factory ~variant:Variant.Current ~seed:5 sys in
  let params =
    {
      Vmc.n_walkers = 8;
      warmup = 10;
      blocks = 3;
      steps_per_block = 20;
      tau = 0.3;
      seed = 9;
      n_domains = 1;
    }
  in
  List.map
    (fun crowd ->
      let res = Vmc.run ~crowd ~factory params in
      {
        vcrowd = crowd;
        samples_per_s = res.Vmc.throughput;
        energy = res.Vmc.energy;
      })
    [ 1; 8 ]

(* ---- reporting ---- *)

let json_of ~dispatch ~vgh ~alloc ~vmc =
  let b = Buffer.create 2048 in
  let f = Printf.bprintf in
  f b "{\n";
  f b "%s" (Report.bench_header ~precision:"f32" ~delay:1);
  f b "  \"pool\": {\n";
  f b "    \"n_domains\": %d,\n" dispatch.n_domains;
  f b "    \"generations\": %d,\n" dispatch.generations;
  f b "    \"walkers\": %d,\n" dispatch.walkers;
  f b "    \"spawn_per_gen_ns\": %.1f,\n" dispatch.spawn_per_gen_ns;
  f b "    \"pool_per_gen_ns\": %.1f,\n" dispatch.pool_per_gen_ns;
  f b "    \"speedup\": %.2f\n" dispatch.speedup;
  f b "  },\n";
  f b "  \"bspline_vgh\": [\n";
  List.iteri
    (fun i p ->
      f b
        "    {\"precision\": %S, \"crowd\": %d, \"scalar_ns_per_op\": %.1f, \
         \"batch_ns_per_op\": %.1f, \"batch_speedup\": %.3f}%s\n"
        p.precision p.crowd p.scalar_ns_per_op p.batch_ns_per_op
        p.batch_speedup
        (if i = List.length vgh - 1 then "" else ","))
    vgh;
  f b "  ],\n";
  f b "  \"alloc_words_per_op\": {\"scalar\": %.1f, \"batch\": %.2f},\n"
    alloc.scalar_words_per_op alloc.batch_words_per_op;
  f b "  \"vmc_throughput\": [\n";
  List.iteri
    (fun i p ->
      f b "    {\"crowd\": %d, \"samples_per_s\": %.1f, \"energy\": %.6f}%s\n"
        p.vcrowd p.samples_per_s p.energy
        (if i = List.length vmc - 1 then "" else ","))
    vmc;
  f b "  ]\n";
  f b "}\n";
  Buffer.contents b

let run ?json () =
  Printf.printf "== persistent pool vs spawn-per-generation ==\n%!";
  let dispatch = bench_dispatch () in
  Printf.printf
    "  %d domains, %d walkers: spawn %.1f us/gen, pool %.1f us/gen  \
     (speedup %.1fx)\n"
    dispatch.n_domains dispatch.walkers
    (dispatch.spawn_per_gen_ns /. 1e3)
    (dispatch.pool_per_gen_ns /. 1e3)
    dispatch.speedup;
  Printf.printf "== Bspline-vgh scalar vs batched ==\n%!";
  let vgh = bench_vgh_all () in
  List.iter
    (fun p ->
      Printf.printf
        "  %s crowd %2d: scalar %.0f ns/op, batch %.0f ns/op  (%.2fx)\n"
        p.precision p.crowd p.scalar_ns_per_op p.batch_ns_per_op
        p.batch_speedup)
    vgh;
  let alloc = bench_alloc () in
  Printf.printf
    "== allocation: scalar %.1f words/op, batch %.2f words/op ==\n%!"
    alloc.scalar_words_per_op alloc.batch_words_per_op;
  Printf.printf "== VMC walker throughput ==\n%!";
  let vmc = bench_vmc () in
  List.iter
    (fun p ->
      Printf.printf "  crowd %2d: %.1f samples/s  (E = %.6f)\n" p.vcrowd
        p.samples_per_s p.energy)
    vmc;
  (match vmc with
  | a :: rest ->
      List.iter
        (fun b ->
          if not (Float.equal b.energy a.energy) then
            failwith
              "pool_bench: crowd VMC energy deviates from crowd 1")
        rest
  | [] -> ());
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of ~dispatch ~vgh ~alloc ~vmc);
      close_out oc;
      Printf.printf "wrote %s\n%!" path
