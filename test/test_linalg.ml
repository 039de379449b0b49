open Oqmc_containers
open Oqmc_linalg
open Oqmc_rng

module M = Matrix.Make (Precision.F64)
module A = Aligned.Make (Precision.F64)
module B = Blas.Make (Precision.F64)
module L = Lu.Make (Precision.F64)
module Sm = Sherman_morrison.Make (Precision.F64)
module Du = Delayed_update.Make (Precision.F64)

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let random_matrix rng n =
  (* Diagonally dominated so tests never hit a near-singular matrix. *)
  M.init n n (fun i j ->
      Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.
      +. if i = j then 4. else 0.)

let random_vec rng n =
  A.of_array (Array.init n (fun _ -> Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.))

(* ---------- BLAS ---------- *)

let test_dot_axpy () =
  let x = A.of_array [| 1.; 2.; 3. |] and y = A.of_array [| 4.; 5.; 6. |] in
  checkf 1e-12 "dot" 32. (B.dot x y 3);
  B.axpy 2. x y 3;
  checkf 1e-12 "axpy" 6. (A.get y 0);
  checkf 1e-12 "nrm2" (sqrt 14.) (B.nrm2 x 3);
  checkf 1e-12 "asum" 6. (B.asum x 3)

let test_gemv () =
  let a = M.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let x = A.of_array [| 1.; -1. |] in
  let y = A.create 3 in
  B.gemv a x y;
  checkf 1e-12 "y0" (-1.) (A.get y 0);
  checkf 1e-12 "y1" (-1.) (A.get y 1);
  checkf 1e-12 "y2" (-1.) (A.get y 2);
  let z = A.create 2 in
  let w = A.of_array [| 1.; 1.; 1. |] in
  B.gemv_t a w z;
  checkf 1e-12 "z0" 9. (A.get z 0);
  checkf 1e-12 "z1" 12. (A.get z 1)

let test_ger () =
  let a = M.create 2 2 in
  let x = A.of_array [| 1.; 2. |] and y = A.of_array [| 3.; 4. |] in
  B.ger 2. x y a;
  checkf 1e-12 "a00" 6. (M.get a 0 0);
  checkf 1e-12 "a11" 16. (M.get a 1 1)

let test_gemm_identity () =
  let rng = Xoshiro.create 1 in
  let a = random_matrix rng 5 in
  let i5 = M.identity 5 in
  let c = M.create 5 5 in
  B.gemm a i5 c;
  check_bool "A·I = A" true (M.max_abs_diff a c < 1e-12)

let test_gemm_assoc () =
  let rng = Xoshiro.create 2 in
  let a = random_matrix rng 4 and b = random_matrix rng 4 in
  let c = random_matrix rng 4 in
  let ab = M.create 4 4 and bc = M.create 4 4 in
  let abc1 = M.create 4 4 and abc2 = M.create 4 4 in
  B.gemm a b ab;
  B.gemm ab c abc1;
  B.gemm b c bc;
  B.gemm a bc abc2;
  check_bool "(AB)C = A(BC)" true (M.max_abs_diff abc1 abc2 < 1e-10)

(* ---------- LU ---------- *)

let test_lu_det_2x2 () =
  let m = M.of_arrays [| [| 3.; 1. |]; [| 2.; 5. |] |] in
  checkf 1e-10 "det" 13. (L.det m)

let test_lu_det_permutation () =
  (* Permutation matrix determinant is the permutation sign. *)
  let m = M.of_arrays [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |] in
  checkf 1e-12 "cyclic perm det" 1. (L.det m);
  let m2 = M.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  checkf 1e-12 "swap det" (-1.) (L.det m2)

let test_lu_singular () =
  let m = M.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () -> ignore (L.det m))

let test_invert_transpose () =
  let rng = Xoshiro.create 3 in
  let n = 16 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  let _sign, _logd = L.invert_transpose ~src:m ~dst:binv in
  (* binv = m⁻ᵀ, so m ᵀ· binvᵀ should be... check directly: binvᵀ · m = I. *)
  let prod = M.create n n in
  B.gemm (M.transpose binv) m prod;
  check_bool "B^T M = I" true (M.max_abs_diff prod (M.identity n) < 1e-9)

let test_solve_vec () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let d = Lu.decompose_arrays a 2 in
  let x = Lu.solve_vec d [| 5.; 10. |] in
  checkf 1e-12 "x0" 1. x.(0);
  checkf 1e-12 "x1" 3. x.(1)

(* ---------- Sherman-Morrison ---------- *)

let test_sm_ratio_matches_det () =
  let rng = Xoshiro.create 4 in
  let n = 12 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv);
  let k = 5 in
  let v = random_vec rng n in
  (* Build the row-replaced matrix directly and compare determinants. *)
  let m' = M.copy m in
  for j = 0 to n - 1 do
    M.set m' k j (A.get v j)
  done;
  let expected = L.det m' /. L.det m in
  let ratio = Sm.ratio binv k v in
  checkf 1e-8 "ratio = det ratio" expected ratio

let test_sm_update_consistency () =
  let rng = Xoshiro.create 5 in
  let n = 10 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv);
  let ws = Sm.make_workspace n in
  (* Accept several row replacements; binv must track m⁻ᵀ throughout. *)
  let m_cur = M.copy m in
  List.iter
    (fun k ->
      let v = random_vec rng n in
      let ratio = Sm.ratio binv k v in
      Sm.update_row binv k v ~ratio ~ws;
      for j = 0 to n - 1 do
        M.set m_cur k j (A.get v j)
      done)
    [ 0; 3; 7; 3; 9 ];
  let fresh = M.create n n in
  ignore (L.invert_transpose ~src:m_cur ~dst:fresh);
  check_bool "binv tracks inverse" true (M.max_abs_diff binv fresh < 1e-7)

let test_sm_zero_ratio_rejected () =
  let binv = M.identity 3 in
  let v = A.of_array [| 0.; 0.; 0. |] in
  let ws = Sm.make_workspace 3 in
  Alcotest.check_raises "zero ratio"
    (Invalid_argument "Sherman_morrison.update_row: zero ratio") (fun () ->
      Sm.update_row binv 0 v ~ratio:0. ~ws)

(* ---------- Delayed update ---------- *)

let test_delayed_matches_sm_ratios () =
  let rng = Xoshiro.create 6 in
  let n = 14 in
  let m = random_matrix rng n in
  let binv_sm = M.create n n and binv_du = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv_sm);
  M.blit ~src:binv_sm ~dst:binv_du;
  let du = Du.create ~delay:4 binv_du in
  let ws = Sm.make_workspace n in
  (* Ordered sweep over all electrons; every proposed ratio must agree. *)
  for k = 0 to n - 1 do
    let v = random_vec rng n in
    let r_sm = Sm.ratio binv_sm k v in
    let r_du = Du.ratio du k v in
    checkf 1e-7 (Printf.sprintf "ratio k=%d" k) r_sm r_du;
    if abs_float r_sm > 0.3 then begin
      Sm.update_row binv_sm k v ~ratio:r_sm ~ws;
      Du.accept du k v
    end
  done;
  Du.flush du;
  check_bool "inverses agree after flush" true
    (M.max_abs_diff binv_sm (Du.binv du) < 1e-6)

let test_delayed_autoflush () =
  let rng = Xoshiro.create 7 in
  let n = 8 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv);
  let du = Du.create ~delay:2 binv in
  let v1 = random_vec rng n and v2 = random_vec rng n in
  Du.accept du 0 v1;
  Alcotest.(check int) "one pending" 1 (Du.pending du);
  Du.accept du 1 v2;
  Alcotest.(check int) "auto flush at delay" 0 (Du.pending du)

let test_delayed_repeat_row_flushes () =
  let rng = Xoshiro.create 8 in
  let n = 8 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv);
  let du = Du.create ~delay:8 binv in
  let v1 = random_vec rng n and v2 = random_vec rng n in
  Du.accept du 3 v1;
  Du.accept du 3 v2;
  Alcotest.(check int) "flushed on repeat" 1 (Du.pending du)

let test_delayed_invalid () =
  let m = M.create 3 4 in
  Alcotest.check_raises "not square"
    (Invalid_argument "Delayed_update.create: not square") (fun () ->
      ignore (Du.create m))

(* Unblocked reference for the delayed-update flush: the same Woodbury
   queue as {!Delayed_update} (bordered Schur-inverse extension, distinct
   rows, flush when full or on a repeat) with the pre-blocking loop
   structure — one dot per Y element and per-rank read-modify-write
   stores into B₀.  Written out here, not reused from the library, so
   the library's blocked flush is checked against an independent
   implementation. *)
module Du_ref = struct
  type t = {
    b0 : M.t;
    delay : int;
    mutable rows : int list; (* newest first *)
    mutable vs : float array list;
    mutable brows : float array list;
    mutable sinv : float array array;
  }

  let create ~delay b0 =
    { b0; delay = min delay (M.rows b0); rows = []; vs = []; brows = [];
      sinv = [||] }

  let dot x y =
    let acc = ref 0. in
    Array.iteri (fun i xi -> acc := !acc +. (xi *. y.(i))) x;
    !acc

  let row t r = Array.init (M.cols t.b0) (fun b -> M.get t.b0 r b)

  let flush t =
    let k = List.length t.rows in
    if k > 0 then begin
      let n = M.rows t.b0 in
      let rows = Array.of_list (List.rev t.rows) in
      let vs = Array.of_list (List.rev t.vs) in
      let brows = Array.of_list (List.rev t.brows) in
      (* T(i,:) = Σ_j S⁻¹(j,i) · brows(j,:) *)
      let tm =
        Array.init k (fun i ->
            let ti = Array.make n 0. in
            for j = 0 to k - 1 do
              let c = t.sinv.(j).(i) in
              if c <> 0. then
                Array.iteri (fun b w -> ti.(b) <- ti.(b) +. (c *. w)) brows.(j)
            done;
            ti)
      in
      (* Y(a,i) = B₀[a]·v_i − δ_{a,r_i} *)
      let y =
        Array.init n (fun a ->
            let ra = row t a in
            Array.init k (fun i ->
                let d = dot ra vs.(i) in
                if rows.(i) = a then d -. 1. else d))
      in
      for a = 0 to n - 1 do
        for i = 0 to k - 1 do
          let yi = y.(a).(i) in
          if yi <> 0. then
            for b = 0 to n - 1 do
              M.set t.b0 a b (M.get t.b0 a b -. (yi *. tm.(i).(b)))
            done
        done
      done;
      t.rows <- [];
      t.vs <- [];
      t.brows <- [];
      t.sinv <- [||]
    end

  let accept t r v =
    if List.mem r t.rows then flush t;
    let k = List.length t.rows in
    let v = Array.init (M.cols t.b0) (fun b -> A.get v b) in
    let w = row t r in
    let vs = Array.of_list (List.rev t.vs) in
    let brows = Array.of_list (List.rev t.brows) in
    let sinv = t.sinv in
    (* Bordered extension of S⁻¹ by the new row/column. *)
    let bcol = Array.init k (fun i -> dot w vs.(i)) in
    let crow = Array.init k (fun i -> dot brows.(i) v) in
    let d = dot w v in
    let sb =
      Array.init k (fun i ->
          let acc = ref 0. in
          for j = 0 to k - 1 do
            acc := !acc +. (sinv.(i).(j) *. bcol.(j))
          done;
          !acc)
    in
    let cs =
      Array.init k (fun j ->
          let acc = ref 0. in
          for i = 0 to k - 1 do
            acc := !acc +. (crow.(i) *. sinv.(i).(j))
          done;
          !acc)
    in
    let schur = ref d in
    for i = 0 to k - 1 do
      schur := !schur -. (crow.(i) *. sb.(i))
    done;
    let inv_s = 1. /. !schur in
    t.sinv <-
      Array.init (k + 1) (fun i ->
          Array.init (k + 1) (fun j ->
              if i < k && j < k then
                sinv.(i).(j) +. (sb.(i) *. cs.(j) *. inv_s)
              else if i < k then -.sb.(i) *. inv_s
              else if j < k then -.cs.(j) *. inv_s
              else inv_s));
    t.rows <- r :: t.rows;
    t.vs <- v :: t.vs;
    t.brows <- w :: t.brows;
    if k + 1 = t.delay then flush t
end

let test_delayed_blocked_bit_identical () =
  (* The library's blocked GEMM-shaped flush evaluates each element
     through the same left-associative fused chain as the unblocked
     per-rank reference, so at f64 the two must agree to the last bit,
     not merely to rounding — after every automatic flush and at the
     end. *)
  let rng = Xoshiro.create 23 in
  let n = 24 in
  let m = random_matrix rng n in
  let binv = M.create n n in
  ignore (L.invert_transpose ~src:m ~dst:binv);
  let b_blk = M.create n n and b_ref = M.create n n in
  M.blit ~src:binv ~dst:b_blk;
  M.blit ~src:binv ~dst:b_ref;
  let du = Du.create ~delay:8 b_blk in
  let du_ref = Du_ref.create ~delay:8 b_ref in
  let flushes = ref 0 in
  for k = 0 to n - 1 do
    (* A diagonally dominant replacement row keeps the ratio near 1, so
       most moves are accepted and the queue fills several times. *)
    let v = random_vec rng n in
    A.set v k (A.get v k +. 4.);
    if abs_float (Du.ratio du k v) > 0.3 then begin
      Du.accept du k v;
      Du_ref.accept du_ref k v;
      if Du.pending du = 0 then begin
        incr flushes;
        checkf 0.
          (Printf.sprintf "inverses bit-identical after flush %d" !flushes)
          0.
          (M.max_abs_diff (Du.binv du) b_ref)
      end
    end
  done;
  check_bool "the queue filled at least once" true (!flushes > 0);
  Du.flush du;
  Du_ref.flush du_ref;
  checkf 0. "flushed inverses bit-identical" 0.
    (M.max_abs_diff (Du.binv du) b_ref)

(* ---------- properties ---------- *)

let prop_det_product =
  QCheck.Test.make ~name:"det(AB) = det(A)det(B)" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Xoshiro.create seed in
      let a = random_matrix rng 6 and b = random_matrix rng 6 in
      let ab = M.create 6 6 in
      B.gemm a b ab;
      let da = L.det a and db = L.det b and dab = L.det ab in
      abs_float (dab -. (da *. db)) <= 1e-6 *. abs_float dab +. 1e-9)

let prop_sm_sequence =
  QCheck.Test.make ~name:"SM inverse tracks over random sweeps" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Xoshiro.create seed in
      let n = 8 in
      let m = random_matrix rng n in
      let binv = M.create n n in
      ignore (L.invert_transpose ~src:m ~dst:binv);
      let ws = Sm.make_workspace n in
      let m_cur = M.copy m in
      for _ = 1 to 12 do
        let k = Xoshiro.int rng n in
        let v = random_vec rng n in
        let r = Sm.ratio binv k v in
        if abs_float r > 0.3 then begin
          Sm.update_row binv k v ~ratio:r ~ws;
          for j = 0 to n - 1 do
            M.set m_cur k j (A.get v j)
          done
        end
      done;
      let fresh = M.create n n in
      ignore (L.invert_transpose ~src:m_cur ~dst:fresh);
      M.max_abs_diff binv fresh < 1e-6)

let prop_delayed_equals_direct =
  QCheck.Test.make ~name:"delayed update equals direct inverse" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 1 6))
    (fun (seed, delay) ->
      let rng = Xoshiro.create seed in
      let n = 10 in
      let m = random_matrix rng n in
      let binv = M.create n n in
      ignore (L.invert_transpose ~src:m ~dst:binv);
      let du = Du.create ~delay binv in
      let m_cur = M.copy m in
      for k = 0 to n - 1 do
        let v = random_vec rng n in
        let r = Du.ratio du k v in
        if abs_float r > 0.3 then begin
          Du.accept du k v;
          for j = 0 to n - 1 do
            M.set m_cur k j (A.get v j)
          done
        end
      done;
      Du.flush du;
      let fresh = M.create n n in
      ignore (L.invert_transpose ~src:m_cur ~dst:fresh);
      M.max_abs_diff (Du.binv du) fresh < 1e-6)

(* ---------- C kernels against the OCaml oracles ---------- *)

(* The determinant kernels of det_kernels_stubs.c against the OCaml loops
   they replaced (test/det_oracle.ml), bit for bit, at inverse precision
   [R]: Sherman–Morrison ratios and updates, the delayed queue's ratios,
   its multi-vector dots (correction computed once per call) and the
   proposal dots (gradient components narrowed only while a queue is
   pending) at every pending count, flushes when full and on a repeated
   row, and the blocked flush kernels on their own. *)
module Det_check (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)
  module L = Lu.Make (R)
  module B = Blas.Make (R)
  module Sm = Sherman_morrison.Make (R)
  module Du = Delayed_update.Make (R)
  module O = Det_oracle.Make (R)
  module Spo = Oqmc_wavefunction.Spo

  (* The proposal-dot entry points the determinant calls. *)
  external sm_vgl_dots : M.t -> int -> A.t -> Spo.vgl -> float array -> unit
    = "oqmc_sm_vgl_dots"
  [@@noalloc]

  external du_vgl_dots : Du.t -> int -> A.t -> Spo.vgl -> float array -> unit
    = "oqmc_du_vgl_dots"
  [@@noalloc]

  let bits = Int64.bits_of_float
  let same ok a b = if bits a <> bits b then ok := false

  let same_matrix ok (a : M.t) (b : M.t) =
    for i = 0 to M.rows a - 1 do
      for j = 0 to M.cols a - 1 do
        same ok (M.get a i j) (M.get b i j)
      done
    done

  let uniform rng = Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.

  (* Two copies of one inverse: row-padded, so ld > cols for most n. *)
  let inverses rng n =
    let m =
      M.init n n (fun i j -> uniform rng +. if i = j then 4. else 0.)
    in
    let b = M.create ~padded:true n n in
    ignore (L.invert_transpose ~src:m ~dst:b);
    (b, M.copy b)

  (* A replacement for row r that keeps the ratio near 1. *)
  let row_vec rng n r =
    let v = A.of_array (Array.init n (fun _ -> uniform rng)) in
    A.set v r (A.get v r +. 4.);
    v

  let proposal rng n =
    let a () = Array.init n (fun _ -> uniform rng) in
    { Spo.v = a (); gx = a (); gy = a (); gz = a (); lap = a () }

  let check_proposal ok ?du ?od (bc : M.t) (bo : M.t) r (p : Spo.vgl) =
    let n = M.cols bc in
    let out = Array.make 4 0. in
    let psiv = A.create n and psiv_o = A.create n and tmp = A.create n in
    (match du with
    | Some d -> du_vgl_dots d r psiv p out
    | None -> sm_vgl_dots bc r psiv p out);
    let r0, r1, r2, r3 =
      O.proposal_dots ?du:od bo r ~psiv:psiv_o ~tmp p.Spo.v
        [| p.Spo.gx; p.Spo.gy; p.Spo.gz |]
    in
    List.iter2 (same ok) (Array.to_list out) [ r0; r1; r2; r3 ];
    for b = 0 to n - 1 do
      same ok (A.get psiv b) (A.get psiv_o b)
    done

  let sherman_morrison ~n ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let bc, bo = inverses rng n in
    let ws = Sm.make_workspace n and ows = O.make_workspace n in
    for _ = 1 to min n 12 do
      let r = Xoshiro.int rng n in
      let v = row_vec rng n r in
      let rc = Sm.ratio bc r v and ro = O.sm_ratio bo r v in
      same ok rc ro;
      let src = A.of_array (Array.init (3 * n) (fun _ -> uniform rng)) in
      let out = Array.make 3 0. in
      Sm.dots bc r src ~pos:0 out;
      for c = 0 to 2 do
        same ok out.(c) (O.sm_ratio bo r (A.sub src ~pos:(c * n) ~len:n))
      done;
      check_proposal ok bc bo r (proposal rng n);
      if abs_float rc > 0.3 then begin
        Sm.update_row bc r v ~ratio:rc ~ws;
        O.sm_update bo r v ~ratio:ro ~ws:ows;
        same_matrix ok bc bo
      end
    done;
    !ok

  (* Rows cycle so every pending count 0 .. delay − 1 is seen, and every
     third accept repeats a pending row (the flush-on-repeat path). *)
  let delayed ~n ~delay ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let bc, bo = inverses rng n in
    let du = Du.create ~delay bc and od = O.du_create ~delay bo in
    let last = ref 0 in
    for step = 0 to (3 * n) + 4 do
      let r =
        if step mod 3 = 2 && Du.pending du > 0 then !last
        else Xoshiro.int rng n
      in
      let v = row_vec rng n r in
      let rc = Du.ratio du r v and ro = O.du_ratio od r v in
      same ok rc ro;
      (* Three stored vectors in one call against one oracle call each. *)
      let src = A.of_array (Array.init (3 * n) (fun _ -> uniform rng)) in
      let out = Array.make 3 0. in
      Du.dots du r src ~pos:0 out;
      for c = 0 to 2 do
        same ok out.(c) (O.du_ratio od r (A.sub src ~pos:(c * n) ~len:n))
      done;
      check_proposal ok ~du ~od bc bo r (proposal rng n);
      if abs_float rc > 0.3 then begin
        Du.accept du r v;
        O.du_accept od r v;
        last := r;
        if Du.pending du <> O.pending od then ok := false;
        same_matrix ok bc bo
      end
    done;
    Du.flush du;
    O.du_flush od;
    same_matrix ok bc bo;
    !ok

  (* Y = B Vᵀ and B −= Y·T for k rows, zero coefficients included, flat
     (C) against row arrays (oracle). *)
  let flush_kernels ~n ~k ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let bc, bo = inverses rng n in
    let rows () = Array.init k (fun _ -> Array.init n (fun _ -> uniform rng)) in
    let vs = rows () and tm = rows () in
    let ystride = k + 1 in
    let yc = Array.make (n * ystride) 0. and yo = Array.make (n * ystride) 0. in
    B.mul_vt bc ~vs:(Array.concat (Array.to_list vs)) ~k ~y:yc ~ystride;
    O.mul_vt bo ~vs ~k ~y:yo ~ystride ~scratch:(Array.make n 0.);
    Array.iteri (fun i y -> same ok y yo.(i)) yc;
    (* Knock out some coefficients so the skip path runs. *)
    Array.iteri (fun i _ -> if i mod 3 = 1 then (yc.(i) <- 0.; yo.(i) <- 0.)) yc;
    B.rank_update bc ~y:yc ~ystride ~tm:(Array.concat (Array.to_list tm)) ~k;
    O.rank_update bo ~y:yo ~ystride ~tm ~k ~scratch:(Array.make n 0.);
    same_matrix ok bc bo;
    !ok
end

module Det64 = Det_check (Precision.F64)
module Det32 = Det_check (Precision.F32)

let oracle_sizes = QCheck.oneofl [ 1; 7; 24; 48; 65 ]

let prop_sm_equals_oracle =
  QCheck.Test.make ~name:"Sherman-Morrison C equals the oracle bit for bit"
    ~count:20
    QCheck.(triple bool oracle_sizes (int_range 1 10000))
    (fun (f32, n, seed) ->
      if f32 then Det32.sherman_morrison ~n ~seed
      else Det64.sherman_morrison ~n ~seed)

let prop_delayed_equals_oracle =
  QCheck.Test.make ~name:"delayed update C equals the oracle bit for bit"
    ~count:30
    QCheck.(quad bool oracle_sizes (int_range 1 4) (int_range 1 10000))
    (fun (f32, n, delay, seed) ->
      if f32 then Det32.delayed ~n ~delay ~seed
      else Det64.delayed ~n ~delay ~seed)

let prop_flush_kernels_equal_oracle =
  QCheck.Test.make ~name:"flush kernels C equal the oracle bit for bit"
    ~count:20
    QCheck.(quad bool oracle_sizes (int_range 1 9) (int_range 1 10000))
    (fun (f32, n, k, seed) ->
      if f32 then Det32.flush_kernels ~n ~k ~seed
      else Det64.flush_kernels ~n ~k ~seed)

(* The C flush against the independent unblocked reference above, at f64,
   across sizes and delays. *)
let prop_blocked_flush_equals_unblocked =
  QCheck.Test.make ~name:"blocked C flush equals the unblocked apply"
    ~count:20
    QCheck.(triple oracle_sizes (int_range 1 4) (int_range 1 10000))
    (fun (n, delay, seed) ->
      let rng = Xoshiro.create seed in
      let m = random_matrix rng n in
      let binv = M.create n n in
      ignore (L.invert_transpose ~src:m ~dst:binv);
      let b_blk = M.copy binv and b_ref = M.copy binv in
      let du = Du.create ~delay b_blk in
      let du_ref = Du_ref.create ~delay b_ref in
      let ok = ref true in
      for step = 0 to 2 * n do
        let k = step mod n in
        let v = random_vec rng n in
        A.set v k (A.get v k +. 4.);
        if abs_float (Du.ratio du k v) > 0.3 then begin
          Du.accept du k v;
          Du_ref.accept du_ref k v;
          if M.max_abs_diff (Du.binv du) b_ref <> 0. then ok := false
        end
      done;
      Du.flush du;
      Du_ref.flush du_ref;
      !ok && M.max_abs_diff (Du.binv du) b_ref = 0.)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "linalg"
    [
      ( "blas",
        [
          Alcotest.test_case "dot/axpy" `Quick test_dot_axpy;
          Alcotest.test_case "gemv" `Quick test_gemv;
          Alcotest.test_case "ger" `Quick test_ger;
          Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
          Alcotest.test_case "gemm assoc" `Quick test_gemm_assoc;
        ] );
      ( "lu",
        [
          Alcotest.test_case "det 2x2" `Quick test_lu_det_2x2;
          Alcotest.test_case "det permutation" `Quick test_lu_det_permutation;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "invert transpose" `Quick test_invert_transpose;
          Alcotest.test_case "solve" `Quick test_solve_vec;
        ] );
      ( "sherman_morrison",
        [
          Alcotest.test_case "ratio = det ratio" `Quick test_sm_ratio_matches_det;
          Alcotest.test_case "update consistency" `Quick test_sm_update_consistency;
          Alcotest.test_case "zero ratio" `Quick test_sm_zero_ratio_rejected;
        ] );
      ( "delayed_update",
        [
          Alcotest.test_case "matches SM" `Quick test_delayed_matches_sm_ratios;
          Alcotest.test_case "autoflush" `Quick test_delayed_autoflush;
          Alcotest.test_case "repeat row" `Quick test_delayed_repeat_row_flushes;
          Alcotest.test_case "invalid" `Quick test_delayed_invalid;
          Alcotest.test_case "blocked flush bit-identical" `Quick
            test_delayed_blocked_bit_identical;
        ] );
      ( "properties",
        qt [ prop_det_product; prop_sm_sequence; prop_delayed_equals_direct ] );
      ( "c_oracle",
        qt
          [
            prop_sm_equals_oracle;
            prop_delayed_equals_oracle;
            prop_flush_kernels_equal_oracle;
            prop_blocked_flush_equals_unblocked;
          ] );
    ]
