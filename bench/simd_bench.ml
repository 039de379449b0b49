open Oqmc_containers

(* The paper's SIMD ablation for the B-spline orbital kernels, measured:
   µs per position for the OCaml loops kept as the test oracle, for the
   C accumulation built with -fno-tree-vectorize (a second copy of
   lib/spline/bspline3d_stubs.c compiled into this executable with
   renamed entry points), and for the library's vectorized build.  Each
   at f32 and f64, on a NiO-32/r8-sized table (40³ grid, 24 orbitals)
   evaluated in crowds of 8 at random positions.  Every implementation
   must return the same doubles; the bench checks that before timing.

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

let run () =
  Printf.printf
    "== SIMD ablation: B-spline kernels, %d^3 grid, %d orbitals, crowds of \
     %d, median of %d rounds ==\n%!"
    grid n_orb crowd rounds;
  Run32.run ();
  Run64.run ()
