open Oqmc_containers
open Oqmc_rng

(* B-spline SPO miniapp (Sec. 7.1): value-only (Bspline-v) and
   value-gradient-hessian (Bspline-vgh) evaluation over grid size and
   orbital count, at both storage precisions — the memory-latency-bound
   kernel whose single-precision table is the paper's earliest
   optimization. *)

module B32 = Oqmc_spline.Bspline3d.Make (Precision.F32)
module B64 = Oqmc_spline.Bspline3d.Make (Precision.F64)

let bench_one (type table) ~create ~fill ~eval_v ~eval_vgh ~bytes ~grid ~n_orb
    ~evals ~seed =
  ignore (seed : int);
  let (t : table) = create ~grid ~n_orb in
  fill t;
  let rng = Xoshiro.create 3 in
  let points =
    Array.init 128 (fun _ ->
        (Xoshiro.uniform rng, Xoshiro.uniform rng, Xoshiro.uniform rng))
  in
  let time f =
    let t0 = Timers.now () in
    for i = 1 to evals do
      let x, y, z = points.(i land 127) in
      f x y z
    done;
    (Timers.now () -. t0) /. float_of_int evals
  in
  let tv = time (eval_v t) in
  let tvgh = time (eval_vgh t) in
  (tv, tvgh, bytes t)

let run grids orbitals evals seed =
  Printf.printf "%-6s %-6s %14s %14s %14s %14s %10s\n" "grid" "orbs"
    "v-f32(ns)" "v-f64(ns)" "vgh-f32(ns)" "vgh-f64(ns)" "tableMB";
  List.iter
    (fun g ->
      List.iter
        (fun n_orb ->
          let v32, vgh32, b32 =
            bench_one
              ~create:(fun ~grid ~n_orb ->
                B32.create ~nx:grid ~ny:grid ~nz:grid ~n_orb ())
              ~fill:(fun t ->
                let rng = Xoshiro.create seed in
                B32.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
                    Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.))
              ~eval_v:(fun t ->
                let out = Array.make n_orb 0. in
                fun x y z -> B32.eval_v t ~u0:x ~u1:y ~u2:z out)
              ~eval_vgh:(fun t ->
                let buf = B32.make_vgh_buf t in
                fun x y z -> B32.eval_vgh t ~u0:x ~u1:y ~u2:z buf)
              ~bytes:B32.bytes ~grid:g ~n_orb ~evals ~seed
          in
          let v64, vgh64, _ =
            bench_one
              ~create:(fun ~grid ~n_orb ->
                B64.create ~nx:grid ~ny:grid ~nz:grid ~n_orb ())
              ~fill:(fun t ->
                let rng = Xoshiro.create seed in
                B64.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
                    Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.))
              ~eval_v:(fun t ->
                let out = Array.make n_orb 0. in
                fun x y z -> B64.eval_v t ~u0:x ~u1:y ~u2:z out)
              ~eval_vgh:(fun t ->
                let buf = B64.make_vgh_buf t in
                fun x y z -> B64.eval_vgh t ~u0:x ~u1:y ~u2:z buf)
              ~bytes:B64.bytes ~grid:g ~n_orb ~evals ~seed
          in
          Printf.printf "%-6d %-6d %14.0f %14.0f %14.0f %14.0f %10.1f\n" g
            n_orb (1e9 *. v32) (1e9 *. v64) (1e9 *. vgh32) (1e9 *. vgh64)
            (float_of_int b32 /. 1e6))
        orbitals)
    grids

open Cmdliner

let grids =
  Arg.(value & opt (list int) [ 16; 32 ] & info [ "g" ] ~doc:"Grid sizes.")

let orbitals =
  Arg.(
    value & opt (list int) [ 32; 128 ] & info [ "o" ] ~doc:"Orbital counts.")

let evals =
  Arg.(value & opt int 5000 & info [ "evals" ] ~doc:"Evaluations timed.")

let seed = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"RNG seed.")

let cmd =
  Cmd.v
    (Cmd.info "mini_bspline" ~doc:"3-D B-spline SPO kernel miniapp")
    Term.(const run $ grids $ orbitals $ evals $ seed)

let () = exit (Cmd.eval cmd)
