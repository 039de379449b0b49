open Oqmc_containers
open Oqmc_spline

module B3_64 = Bspline3d.Make (Precision.F64)
module B3_32 = Bspline3d.Make (Precision.F32)

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* ---------- basis ---------- *)

let test_basis_partition_of_unity () =
  List.iter
    (fun t ->
      checkf 1e-14 "partition of unity" 1. (Bspline_basis.sum (Bspline_basis.value t));
      checkf 1e-14 "derivative sums to 0" 0.
        (Bspline_basis.sum (Bspline_basis.first t));
      checkf 1e-13 "second derivative sums to 0" 0.
        (Bspline_basis.sum (Bspline_basis.second t)))
    [ 0.; 0.25; 0.5; 0.75; 0.999 ]

let test_basis_derivative_fd () =
  let h = 1e-6 in
  List.iter
    (fun t ->
      let w1 = Bspline_basis.value (t +. h) and w0 = Bspline_basis.value (t -. h) in
      let d = Bspline_basis.first t in
      let fd =
        Array.map2 (fun a b -> (a -. b) /. (2. *. h))
          (Bspline_basis.to_array w1) (Bspline_basis.to_array w0)
      in
      Array.iteri
        (fun i f -> checkf 1e-5 "fd matches" f (Bspline_basis.to_array d).(i))
        fd)
    [ 0.2; 0.5; 0.8 ]

(* ---------- 1-D spline ---------- *)

let test_spline1d_interpolates () =
  let f r = exp (-.r) *. cos r in
  let s = Cubic_spline_1d.fit ~f ~cutoff:4. ~intervals:40 () in
  for i = 0 to 40 do
    let r = 4. *. float_of_int i /. 40. in
    if r < 4. then checkf 1e-10 "interpolation at knots" (f r) (Cubic_spline_1d.evaluate s r)
  done

let test_spline1d_accuracy_between_knots () =
  let f r = sin r in
  let s = Cubic_spline_1d.fit ~f ~deriv0:(Some 1.) ~deriv_cut:(Some (cos 3.))
      ~cutoff:3. ~intervals:60 ()
  in
  let max_err = ref 0. in
  for i = 0 to 599 do
    let r = 3. *. (float_of_int i +. 0.5) /. 600. in
    max_err := Float.max !max_err (abs_float (Cubic_spline_1d.evaluate s r -. f r))
  done;
  check_bool "midpoint error small" true (!max_err < 1e-6)

let test_spline1d_cutoff_zero () =
  let s = Cubic_spline_1d.fit ~f:(fun r -> 1. -. r) ~cutoff:1. ~intervals:8 () in
  checkf 1e-12 "at cutoff" 0. (Cubic_spline_1d.evaluate s 1.);
  checkf 1e-12 "beyond cutoff" 0. (Cubic_spline_1d.evaluate s 5.);
  let v, dv, d2v = Cubic_spline_1d.evaluate_vgl s 2. in
  checkf 1e-12 "vgl v" 0. v;
  checkf 1e-12 "vgl dv" 0. dv;
  checkf 1e-12 "vgl d2v" 0. d2v

let test_spline1d_cusp () =
  (* Prescribed derivative at 0 (the Jastrow cusp condition). *)
  let cusp = -0.5 in
  let f r = -0.3 *. exp (-2. *. r) in
  let s = Cubic_spline_1d.fit ~f ~deriv0:(Some cusp) ~cutoff:3. ~intervals:30 () in
  let _, dv, _ = Cubic_spline_1d.evaluate_vgl s 1e-12 in
  checkf 1e-6 "cusp slope" cusp dv

let test_spline1d_vgl_fd () =
  let f r = exp (-.r *. r) in
  let s = Cubic_spline_1d.fit ~f ~cutoff:2.5 ~intervals:50 () in
  let h = 1e-5 in
  List.iter
    (fun r ->
      let v, dv, d2v = Cubic_spline_1d.evaluate_vgl s r in
      let vp = Cubic_spline_1d.evaluate s (r +. h) in
      let vm = Cubic_spline_1d.evaluate s (r -. h) in
      checkf 1e-12 "value consistent" v (Cubic_spline_1d.evaluate s r);
      checkf 1e-5 "first derivative" ((vp -. vm) /. (2. *. h)) dv;
      checkf 1e-3 "second derivative" ((vp +. vm -. (2. *. v)) /. (h *. h)) d2v)
    [ 0.3; 0.9; 1.7; 2.2 ]

let test_spline1d_invalid () =
  Alcotest.check_raises "too few coefficients"
    (Invalid_argument "Cubic_spline_1d: need at least 4 coefficients")
    (fun () -> ignore (Cubic_spline_1d.of_coefficients ~cutoff:1. [| 1.; 2. |]))

let test_spline1d_narrow () =
  (* narrow rounds every control point once through f32 storage
     (the precision_jastrow knob): idempotent, halves the footprint,
     and since the cubic basis weights are a partition of unity the
     evaluated values move by at most one f32 rounding of the largest
     coefficient. *)
  let f r = -0.3 *. exp (-1.7 *. r) in
  let s = Cubic_spline_1d.fit ~f ~cutoff:3. ~intervals:24 () in
  check_bool "fresh table is wide" false (Cubic_spline_1d.is_narrowed s);
  let n1 = Cubic_spline_1d.narrow s in
  let n2 = Cubic_spline_1d.narrow n1 in
  check_bool "narrowed" true (Cubic_spline_1d.is_narrowed n1);
  check_bool "idempotent" true (n1 == n2);
  check_bool "wide table untouched" false (Cubic_spline_1d.is_narrowed s);
  Alcotest.(check int) "bytes halve"
    (Cubic_spline_1d.bytes s / 2)
    (Cubic_spline_1d.bytes n1);
  let cmax =
    Array.fold_left
      (fun a c -> Float.max a (abs_float c))
      0.
      (Cubic_spline_1d.coefficients s)
  in
  let bound = cmax *. 1.2e-7 in
  List.iter
    (fun r ->
      let v = Cubic_spline_1d.evaluate s r in
      let vn = Cubic_spline_1d.evaluate n1 r in
      check_bool "eval drift bounded" true (abs_float (v -. vn) <= bound))
    [ 0.; 0.2; 0.77; 1.3; 2.1; 2.9 ]

(* ---------- tridiag ---------- *)

let test_tridiag_simple () =
  (* [4 1; 1 4; .. ] x = b, verified by multiplying back. *)
  let n = 12 in
  let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
  let x = Tridiag.solve ~diag:4. ~off:1. rhs in
  for i = 0 to n - 1 do
    let v =
      (4. *. x.(i))
      +. (if i > 0 then x.(i - 1) else 0.)
      +. if i < n - 1 then x.(i + 1) else 0.
    in
    checkf 1e-10 "residual" rhs.(i) v
  done

let test_tridiag_cyclic () =
  let n = 16 in
  let rhs = Array.init n (fun i -> sin (float_of_int i)) in
  let x = Tridiag.solve_cyclic ~diag:4. ~off:1. rhs in
  for i = 0 to n - 1 do
    let v =
      (4. *. x.(i)) +. x.((i + 1) mod n) +. x.((i - 1 + n) mod n)
    in
    checkf 1e-10 "cyclic residual" rhs.(i) v
  done

(* ---------- 3-D spline ---------- *)

let test_bspline3d_constant () =
  (* A constant function must be reproduced exactly (partition of unity). *)
  let t = B3_64.create ~nx:6 ~ny:6 ~nz:6 ~n_orb:2 () in
  B3_64.fill t (fun ~orb ~i:_ ~j:_ ~k:_ -> if orb = 0 then 2.5 else -1.
  );
  let out = Array.make 2 0. in
  List.iter
    (fun (x, y, z) ->
      B3_64.eval_v t ~u0:x ~u1:y ~u2:z out;
      checkf 1e-12 "constant orb0" 2.5 out.(0);
      checkf 1e-12 "constant orb1" (-1.) out.(1))
    [ (0.1, 0.2, 0.3); (0.9, 0.95, 0.05); (0.5, 0.5, 0.5) ]

let wrap_xy x = x

let test_bspline3d_interpolation () =
  (* Fit a smooth periodic function and check mid-grid accuracy. *)
  let nx = 16 and ny = 16 and nz = 16 in
  let f x y z =
    cos (2. *. Float.pi *. x) *. sin (2. *. Float.pi *. y)
    +. (0.5 *. cos (2. *. Float.pi *. z))
  in
  let t = B3_64.create ~nx ~ny ~nz ~n_orb:1 () in
  B3_64.fit_periodic t ~samples:(fun ~orb:_ ~ix ~iy ~iz ->
      f
        (float_of_int ix /. float_of_int nx)
        (float_of_int iy /. float_of_int ny)
        (float_of_int iz /. float_of_int nz));
  let out = Array.make 1 0. in
  (* At grid points the spline interpolates exactly. *)
  B3_64.eval_v t ~u0:0.25 ~u1:0.5 ~u2:0.75 out;
  checkf 1e-10 "grid point" (f 0.25 0.5 0.75) out.(0);
  (* Between grid points the cubic converges ~h⁴; 16³ gives ≲1e-3. *)
  let max_err = ref 0. in
  for i = 0 to 20 do
    let x = (float_of_int i +. 0.5) /. 21. in
    B3_64.eval_v t ~u0:x ~u1:(wrap_xy x) ~u2:0.31 out;
    max_err := Float.max !max_err (abs_float (out.(0) -. f x (wrap_xy x) 0.31))
  done;
  check_bool "midpoint accuracy" true (!max_err < 5e-3)

let test_bspline3d_vgh_fd () =
  let nx = 12 and ny = 12 and nz = 12 in
  let f x y z =
    exp (cos (2. *. Float.pi *. x)) *. sin (2. *. Float.pi *. (y +. z))
  in
  let t = B3_64.create ~nx ~ny ~nz ~n_orb:1 () in
  B3_64.fit_periodic t ~samples:(fun ~orb:_ ~ix ~iy ~iz ->
      f
        (float_of_int ix /. float_of_int nx)
        (float_of_int iy /. float_of_int ny)
        (float_of_int iz /. float_of_int nz));
  let buf = B3_64.make_vgh_buf t in
  let out = Array.make 1 0. in
  let h = 1e-5 in
  let eval x y z =
    B3_64.eval_v t ~u0:x ~u1:y ~u2:z out;
    out.(0)
  in
  List.iter
    (fun (x, y, z) ->
      B3_64.eval_vgh t ~u0:x ~u1:y ~u2:z buf;
      checkf 1e-10 "v" (eval x y z) buf.B3_64.v.(0);
      checkf 2e-4 "gx"
        ((eval (x +. h) y z -. eval (x -. h) y z) /. (2. *. h))
        buf.B3_64.gx.(0);
      checkf 2e-4 "gy"
        ((eval x (y +. h) z -. eval x (y -. h) z) /. (2. *. h))
        buf.B3_64.gy.(0);
      checkf 2e-4 "gz"
        ((eval x y (z +. h) -. eval x y (z -. h)) /. (2. *. h))
        buf.B3_64.gz.(0);
      checkf 0.5 "hxx"
        ((eval (x +. h) y z +. eval (x -. h) y z -. (2. *. eval x y z))
        /. (h *. h))
        buf.B3_64.hxx.(0);
      checkf 0.5 "hxy"
        ((eval (x +. h) (y +. h) z -. eval (x +. h) (y -. h) z
          -. eval (x -. h) (y +. h) z +. eval (x -. h) (y -. h) z)
        /. (4. *. h *. h))
        buf.B3_64.hxy.(0))
    [ (0.13, 0.41, 0.77); (0.6, 0.2, 0.9) ]

let test_bspline3d_periodic_wrap () =
  let t = B3_64.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:1 () in
  let rng = Oqmc_rng.Xoshiro.create 9 in
  B3_64.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let a = Array.make 1 0. and b = Array.make 1 0. in
  B3_64.eval_v t ~u0:0.125 ~u1:0.3 ~u2:0.99 a;
  B3_64.eval_v t ~u0:1.125 ~u1:(-0.7) ~u2:(0.99 -. 3.) b;
  checkf 1e-12 "periodic images equal" a.(0) b.(0)

let test_bspline3d_f32_close_to_f64 () =
  let nx = 8 in
  (* n_orb = 16 so both precisions pad to the same orbital stride and the
     byte comparison isolates the element width. *)
  let t64 = B3_64.create ~nx ~ny:nx ~nz:nx ~n_orb:16 () in
  let t32 = B3_32.create ~nx ~ny:nx ~nz:nx ~n_orb:16 () in
  let rng = Oqmc_rng.Xoshiro.create 10 in
  let vals = Array.init (nx * nx * nx * 16) (fun _ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
  in
  let idx ~orb ~i ~j ~k = ((((i * nx) + j) * nx) + k) * 16 + orb in
  B3_64.fill t64 (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  B3_32.fill t32 (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  let o64 = Array.make 16 0. and o32 = Array.make 16 0. in
  B3_64.eval_v t64 ~u0:0.3 ~u1:0.6 ~u2:0.9 o64;
  B3_32.eval_v t32 ~u0:0.3 ~u1:0.6 ~u2:0.9 o32;
  for m = 0 to 15 do
    check_bool "f32 close" true (abs_float (o64.(m) -. o32.(m)) < 1e-5)
  done;
  check_bool "f32 table half the size" true
    (B3_32.bytes t32 * 2 = B3_64.bytes t64)

let test_bspline3d_table_bytes () =
  (* Table 1's B-spline column corresponds to complex double coefficients
     (16 bytes): NiO-64 (80³ grid, 240 SPOs) → 2.1 GB, and the other three
     workloads match as well. *)
  let gb ~nx ~ny ~nz ~n_orb =
    float_of_int (B3_64.table_bytes ~nx ~ny ~nz ~n_orb ~elt_bytes:16) /. 1e9
  in
  let near label expect got =
    check_bool label true (abs_float (got -. expect) /. expect < 0.15)
  in
  near "NiO-64 ~2.1 GB" 2.1 (gb ~nx:80 ~ny:80 ~nz:80 ~n_orb:240);
  near "NiO-32 ~1.3 GB" 1.3 (gb ~nx:80 ~ny:80 ~nz:80 ~n_orb:144);
  near "Be-64 ~1.4 GB" 1.4 (gb ~nx:84 ~ny:84 ~nz:144 ~n_orb:81);
  near "Graphite ~0.1 GB" 0.1 (gb ~nx:28 ~ny:28 ~nz:80 ~n_orb:80)

(* ---------- batched kernels vs the scalar oracle ----------

   The batched kernels stage each slot's weights and products once and
   accumulate each orbital in the scalar kernels' order, so at f64 every
   slot must agree with the scalar oracle EXACTLY — float equality, not a
   tolerance. *)

let random_table ~seed ~nx ~n_orb =
  let rng = Oqmc_rng.Xoshiro.create seed in
  let vals = Array.init (nx * nx * nx * n_orb) (fun _ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
  in
  let t = B3_64.create ~nx ~ny:nx ~nz:nx ~n_orb () in
  B3_64.fill t (fun ~orb ~i ~j ~k ->
      vals.(((((i * nx) + j) * nx) + k) * n_orb + orb));
  t

let vgh_fields (b : B3_64.vgh_buf) =
  [ b.B3_64.v; b.B3_64.gx; b.B3_64.gy; b.B3_64.gz; b.B3_64.hxx;
    b.B3_64.hxy; b.B3_64.hxz; b.B3_64.hyy; b.B3_64.hyz; b.B3_64.hzz ]

let same_vgh a b = List.for_all2 ( = ) (vgh_fields a) (vgh_fields b)

(* Batched v and vgh over the first [n] positions, in arenas of [cap]
   slots, equal the scalar kernels at every evaluated slot. *)
let batch_matches_scalar ?(cap = 0) t ~n ~u0 ~u1 ~u2 =
  let cap = max cap n in
  let hb = B3_64.make_vgh_batch t ~cap in
  let vb = B3_64.make_v_batch t ~cap in
  B3_64.eval_vgh_batch t hb ~n ~u0 ~u1 ~u2;
  B3_64.eval_v_batch t vb ~n ~u0 ~u1 ~u2;
  let buf = B3_64.make_vgh_buf t in
  let out = Array.make (B3_64.n_orb t) 0. in
  List.for_all
    (fun s ->
      B3_64.eval_vgh t ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) buf;
      B3_64.eval_v t ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) out;
      same_vgh buf (B3_64.outs hb).(s) && out = (B3_64.vouts vb).(s))
    (List.init n Fun.id)

(* The batched crowd path — the production kernel — against the scalar
   oracle, for full and partial crowds. *)
let test_tiled_batch_bit_identical () =
  let nx = 8 and n_orb = 10 and cap = 5 in
  let t = random_table ~seed:77 ~nx ~n_orb in
  let rng = Oqmc_rng.Xoshiro.create 78 in
  let u () = Array.init cap (fun _ -> Oqmc_rng.Xoshiro.uniform rng) in
  let u0 = u () in
  let u1 = u () in
  let u2 = u () in
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "crowd %d/%d batch = scalar oracle" n cap)
        true
        (batch_matches_scalar ~cap t ~n ~u0 ~u1 ~u2))
    [ 1; 3; cap ]

let test_tiled_shapes () =
  let t = B3_64.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:10 () in
  Alcotest.(check int) "orbitals" 10 (B3_64.n_orb t);
  (* einspline's flat table: 11³ points × 10 orbitals padded to the
     alignment width. *)
  Alcotest.(check int) "bytes" (11 * 11 * 11 * 16 * 8) (B3_64.bytes t);
  Alcotest.check_raises "orb range"
    (Invalid_argument "Bspline3d: orbital out of range") (fun () ->
      ignore (B3_64.get_base t ~orb:10 ~i:0 ~j:0 ~k:0));
  Alcotest.check_raises "grid below 4"
    (Invalid_argument
       "Bspline3d.create: grid must be at least 4 per dimension") (fun () ->
      ignore (B3_64.create ~nx:3 ~ny:8 ~nz:8 ~n_orb:10 ()));
  Alcotest.check_raises "no orbitals"
    (Invalid_argument "Bspline3d.create: n_orb < 1") (fun () ->
      ignore (B3_64.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:0 ()))

(* Two domains sharing one table through the scalar kernels (as
   NLPP quadrature and multi-domain scalar sweeps do) must each get
   exactly the sequential results: the kernels write only the caller's
   buffers. *)
let test_concurrent_scalar_kernels () =
  let nx = 8 and n_orb = 24 and n_pos = 2000 and reps = 5 in
  let t = random_table ~seed:5 ~nx ~n_orb in
  let rng = Oqmc_rng.Xoshiro.create 6 in
  let pos =
    Array.init n_pos (fun _ ->
        Array.init 3 (fun _ -> Oqmc_rng.Xoshiro.uniform rng))
  in
  let expect_v =
    Array.map
      (fun p ->
        let o = Array.make n_orb 0. in
        B3_64.eval_v t ~u0:p.(0) ~u1:p.(1) ~u2:p.(2) o;
        o)
      pos
  in
  let expect_vgh =
    Array.map
      (fun p ->
        let b = B3_64.make_vgh_buf t in
        B3_64.eval_vgh t ~u0:p.(0) ~u1:p.(1) ~u2:p.(2) b;
        b)
      pos
  in
  (* The second domain walks the positions backwards, so the two are
     never evaluating the same position at the same time. *)
  let worker ~rev () =
    let o = Array.make n_orb 0. and b = B3_64.make_vgh_buf t in
    let bad = ref 0 in
    for _ = 1 to reps do
      for q = 0 to n_pos - 1 do
        let i = if rev then n_pos - 1 - q else q in
        let p = pos.(i) in
        B3_64.eval_v t ~u0:p.(0) ~u1:p.(1) ~u2:p.(2) o;
        if o <> expect_v.(i) then incr bad;
        B3_64.eval_vgh t ~u0:p.(0) ~u1:p.(1) ~u2:p.(2) b;
        if not (same_vgh b expect_vgh.(i)) then incr bad
      done
    done;
    !bad
  in
  let other = Domain.spawn (worker ~rev:true) in
  let mine = worker ~rev:false () in
  let theirs = Domain.join other in
  Alcotest.(check int) "evaluations differing from sequential" 0
    (mine + theirs)

(* ---------- the C kernels against the OCaml oracle ---------- *)

(* One table at one precision: [lib] and [oracle] evaluate a crowd of
   positions through all four entry points (scalar v and vgh per slot,
   then batched v and vgh) and return every result row in that order. *)
type kernels = {
  label : string;
  n_orb : int;
  lib : float array -> float array -> float array -> float array list;
  oracle : float array -> float array -> float array -> float array list;
}

module Kernels (R : Precision.REAL) = struct
  module B3 = Bspline3d.Make (R)
  module O = Bspline_oracle.Make (R)

  let fields (b : B3.vgh_buf) =
    [ b.v; b.gx; b.gy; b.gz; b.hxx; b.hxy; b.hxz; b.hyy; b.hyz; b.hzz ]

  (* A 5×6×7 grid (distinct extents catch a swapped stride) of random
     coefficients, with crowd arenas of 8. *)
  let make ~seed ~n_orb =
    let nx = 5 and ny = 6 and nz = 7 in
    let t = B3.create ~nx ~ny ~nz ~n_orb () in
    let rng = Oqmc_rng.Xoshiro.create seed in
    B3.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
        Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
    let o = O.of_table t ~nx ~ny ~nz in
    let cap = 8 in
    let hb = B3.make_vgh_batch t ~cap and vb = B3.make_v_batch t ~cap in
    let ohb = Array.init cap (fun _ -> B3.make_vgh_buf t) in
    let ovb = Array.init cap (fun _ -> Array.make n_orb 0.) in
    let rows ~eval_v ~eval_vgh ~v_batch ~vgh_batch ~vouts ~outs u0 u1 u2 =
      let n = Array.length u0 in
      let scalar =
        List.concat_map
          (fun s ->
            let out = Array.make n_orb 0. and b = B3.make_vgh_buf t in
            eval_v ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) out;
            eval_vgh ~u0:u0.(s) ~u1:u1.(s) ~u2:u2.(s) b;
            out :: fields b)
          (List.init n Fun.id)
      in
      v_batch ~n ~u0 ~u1 ~u2;
      vgh_batch ~n ~u0 ~u1 ~u2;
      let slot f = List.init n (fun s -> f s) in
      scalar
      @ slot (fun s -> Array.copy vouts.(s))
      @ List.concat (slot (fun s -> List.map Array.copy (fields outs.(s))))
    in
    {
      label = Printf.sprintf "%s n_orb %d" R.name n_orb;
      n_orb;
      lib =
        rows ~eval_v:(B3.eval_v t) ~eval_vgh:(B3.eval_vgh t)
          ~v_batch:(B3.eval_v_batch t vb) ~vgh_batch:(B3.eval_vgh_batch t hb)
          ~vouts:(B3.vouts vb) ~outs:(B3.outs hb);
      oracle =
        rows ~eval_v:(O.eval_v o) ~eval_vgh:(O.eval_vgh o)
          ~v_batch:(O.eval_v_batch o ovb) ~vgh_batch:(O.eval_vgh_batch o ohb)
          ~vouts:ovb ~outs:ohb;
    }
end

module K64 = Kernels (Precision.F64)
module K32 = Kernels (Precision.F32)

(* n_orb 1, 7, 24 and 33 put every orbital count through the vector
   loops' remainder paths at both widths. *)
let kernel_sets =
  List.concat_map
    (fun n_orb ->
      [ K64.make ~seed:(100 + n_orb) ~n_orb; K32.make ~seed:(200 + n_orb) ~n_orb ])
    [ 1; 7; 24; 33 ]

(* Every row of every entry point equals the oracle's bit for bit. *)
let matches_oracle k ~u0 ~u1 ~u2 =
  let same a b =
    let ok = ref true in
    for m = 0 to k.n_orb - 1 do
      if not (Int64.equal (Int64.bits_of_float a.(m)) (Int64.bits_of_float b.(m)))
      then ok := false
    done;
    !ok
  in
  List.for_all2 same (k.lib u0 u1 u2) (k.oracle u0 u1 u2)

let prop_kernels_match_oracle =
  let pos = QCheck.float_range (-1.5) 2.5 in
  QCheck.Test.make ~name:"C kernels equal the OCaml oracle bit for bit"
    ~count:40
    QCheck.(list_of_size Gen.(1 -- 8) (triple pos pos pos))
    (fun slots ->
      let coord f = Array.of_list (List.map f slots) in
      let u0 = coord (fun (x, _, _) -> x)
      and u1 = coord (fun (_, y, _) -> y)
      and u2 = coord (fun (_, _, z) -> z) in
      List.for_all (fun k -> matches_oracle k ~u0 ~u1 ~u2) kernel_sets)

(* Positions no walker should reach still locate inside the grid: the C
   kernels have no bounds checks, so a stray origin would read outside
   the table.  Finite ones give the oracle's results (for |s| < 2^62
   the two wraps agree); huge ones wrap to a grid point, so a constant
   table reads back its constants. *)
let test_extreme_positions () =
  let odd =
    [| nan; infinity; neg_infinity; 1e300; -1e300; -0.; 1. -. epsilon_float;
       -1e-20 |]
  in
  (* -1e-20 wraps to exactly 1.0, the one finite case the clamp to the
     last cell decides. *)
  let finite = [ -0.; 1. -. epsilon_float; -.epsilon_float; -1e-20 ] in
  List.iter
    (fun k ->
      ignore (k.lib odd (Array.map (fun _ -> 0.3) odd) odd);
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "%s at %h equals the oracle" k.label s)
            true
            (matches_oracle k ~u0:[| s; 0.5 |] ~u1:[| 0.25; s |]
               ~u2:[| s; s |]))
        finite)
    kernel_sets;
  let t = B3_32.create ~nx:5 ~ny:6 ~nz:7 ~n_orb:3 () in
  B3_32.fill t (fun ~orb ~i:_ ~j:_ ~k:_ -> float_of_int (orb + 1));
  let out = Array.make 3 0. in
  List.iter
    (fun s ->
      B3_32.eval_v t ~u0:s ~u1:s ~u2:0.5 out;
      Array.iteri
        (fun m c ->
          checkf 1e-12 (Printf.sprintf "constant table at %h" s)
            (float_of_int (m + 1)) c)
        out)
    [ 1e300; -1e300 ]

(* A caller buffer shorter than the table's orbital count is refused
   before the kernel runs. *)
let test_short_buffers () =
  let t = B3_64.create ~nx:5 ~ny:6 ~nz:7 ~n_orb:9 () in
  let v_err = Invalid_argument "Bspline3d.eval_v: output shorter than n_orb"
  and vgh_err =
    Invalid_argument "Bspline3d.eval_vgh: buffer shorter than n_orb"
  in
  Alcotest.check_raises "eval_v" v_err (fun () ->
      B3_64.eval_v t ~u0:0.1 ~u1:0.2 ~u2:0.3 (Array.make 8 0.));
  let ok = B3_64.make_vgh_buf t and short = Array.make 8 0. in
  let shortened =
    [ { ok with B3_64.v = short }; { ok with gx = short };
      { ok with gy = short }; { ok with gz = short };
      { ok with hxx = short }; { ok with hxy = short };
      { ok with hxz = short }; { ok with hyy = short };
      { ok with hyz = short }; { ok with hzz = short } ]
  in
  List.iteri
    (fun f b ->
      Alcotest.check_raises (Printf.sprintf "eval_vgh field %d" f) vgh_err
        (fun () -> B3_64.eval_vgh t ~u0:0.1 ~u1:0.2 ~u2:0.3 b))
    shortened;
  let u = [| 0.1; 0.2 |] in
  let hb = B3_64.make_vgh_batch t ~cap:2 and vb = B3_64.make_v_batch t ~cap:2 in
  (B3_64.outs hb).(1) <- List.nth shortened 9;
  Alcotest.check_raises "vgh batch slot" vgh_err (fun () ->
      B3_64.eval_vgh_batch t hb ~n:2 ~u0:u ~u1:u ~u2:u);
  (B3_64.vouts vb).(1) <- short;
  Alcotest.check_raises "v batch slot" v_err (fun () ->
      B3_64.eval_v_batch t vb ~n:2 ~u0:u ~u1:u ~u2:u);
  Alcotest.check_raises "vgh batch n > cap"
    (Invalid_argument "Bspline3d.eval_vgh_batch: bad n") (fun () ->
      B3_64.eval_vgh_batch t hb ~n:3 ~u0:u ~u1:u ~u2:u);
  Alcotest.check_raises "v batch n > cap"
    (Invalid_argument "Bspline3d.eval_v_batch: bad n") (fun () ->
      B3_64.eval_v_batch t vb ~n:3 ~u0:u ~u1:u ~u2:u)

let prop_partition_of_unity =
  QCheck.Test.make ~name:"basis partition of unity" ~count:500
    QCheck.(float_range 0. 0.999999)
    (fun t -> abs_float (Bspline_basis.sum (Bspline_basis.value t) -. 1.) < 1e-12)

(* Random crowds at random positions: every batched slot equals the
   scalar oracle exactly, for both eval_v and eval_vgh. *)
let prop_tile_invariant =
  let nx = 6 and n_orb = 7 in
  let t = random_table ~seed:91 ~nx ~n_orb in
  let pos = QCheck.float_range 0. 0.999 in
  QCheck.Test.make ~name:"tile size never changes batched results" ~count:30
    QCheck.(list_of_size Gen.(1 -- 8) (triple pos pos pos))
    (fun slots ->
      let coord f = Array.of_list (List.map f slots) in
      batch_matches_scalar t ~n:(List.length slots)
        ~u0:(coord (fun (x, _, _) -> x))
        ~u1:(coord (fun (_, y, _) -> y))
        ~u2:(coord (fun (_, _, z) -> z)))

let prop_spline_zero_outside =
  QCheck.Test.make ~name:"1d spline zero outside cutoff" ~count:200
    QCheck.(pair (float_range 1.0 10.) (float_range 0. 20.))
    (fun (cutoff, r) ->
      let s =
        Cubic_spline_1d.fit ~f:(fun x -> 1. +. x) ~cutoff ~intervals:10 ()
      in
      r < cutoff || Cubic_spline_1d.evaluate s r = 0.)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spline"
    [
      ( "basis",
        [
          Alcotest.test_case "partition of unity" `Quick
            test_basis_partition_of_unity;
          Alcotest.test_case "derivative fd" `Quick test_basis_derivative_fd;
        ] );
      ( "spline1d",
        [
          Alcotest.test_case "interpolates" `Quick test_spline1d_interpolates;
          Alcotest.test_case "between knots" `Quick
            test_spline1d_accuracy_between_knots;
          Alcotest.test_case "cutoff zero" `Quick test_spline1d_cutoff_zero;
          Alcotest.test_case "cusp" `Quick test_spline1d_cusp;
          Alcotest.test_case "vgl fd" `Quick test_spline1d_vgl_fd;
          Alcotest.test_case "invalid" `Quick test_spline1d_invalid;
          Alcotest.test_case "narrow (f32 coefficients)" `Quick
            test_spline1d_narrow;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "simple" `Quick test_tridiag_simple;
          Alcotest.test_case "cyclic" `Quick test_tridiag_cyclic;
        ] );
      ( "bspline3d",
        [
          Alcotest.test_case "constant" `Quick test_bspline3d_constant;
          Alcotest.test_case "interpolation" `Quick test_bspline3d_interpolation;
          Alcotest.test_case "vgh fd" `Quick test_bspline3d_vgh_fd;
          Alcotest.test_case "periodic wrap" `Quick test_bspline3d_periodic_wrap;
          Alcotest.test_case "f32 vs f64" `Quick test_bspline3d_f32_close_to_f64;
          Alcotest.test_case "table bytes" `Quick test_bspline3d_table_bytes;
          (* "tiled" names predate the single table; kept so test
             histories line up. *)
          Alcotest.test_case "tiled batch bit-identical" `Quick
            test_tiled_batch_bit_identical;
          Alcotest.test_case "tiled shapes" `Quick test_tiled_shapes;
          Alcotest.test_case "concurrent scalar kernels" `Quick
            test_concurrent_scalar_kernels;
          Alcotest.test_case "extreme positions" `Quick
            test_extreme_positions;
          Alcotest.test_case "short buffers refused" `Quick
            test_short_buffers;
        ] );
      ( "properties",
        qt
          [
            prop_partition_of_unity; prop_spline_zero_outside;
            prop_tile_invariant; prop_kernels_match_oracle;
          ] );
    ]
