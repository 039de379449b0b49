open Oqmc_containers

let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module A64 = Aligned.Make (Precision.F64)
module A32 = Aligned.Make (Precision.F32)
module Aos64 = Pos_aos.Make (Precision.F64)
module Vsc64 = Vsc.Make (Precision.F64)
module Vsc32 = Vsc.Make (Precision.F32)
module M64 = Matrix.Make (Precision.F64)
module M32 = Matrix.Make (Precision.F32)

(* ---------- Vec3 ---------- *)

let test_vec3_ops () =
  let a = Vec3.make 1. 2. 3. and b = Vec3.make 4. (-5.) 6. in
  check_float "dot" 12. (Vec3.dot a b);
  check_float "norm2" 14. (Vec3.norm2 a);
  check_float "dist" (Vec3.norm (Vec3.sub a b)) (Vec3.dist a b);
  let c = Vec3.cross a b in
  check_float "cross orthogonal to a" 0. (Vec3.dot c a);
  check_float "cross orthogonal to b" 0. (Vec3.dot c b);
  check_float "scale" 6. (Vec3.scale 2. a).Vec3.z;
  check_float "get 1" 2. (Vec3.get a 1);
  check_bool "equal with tol" true
    (Vec3.equal ~tol:1e-9 a (Vec3.make 1.0000000001 2. 3.))

let test_vec3_get_invalid () =
  Alcotest.check_raises "bad dimension"
    (Invalid_argument "Vec3.get: dimension 3") (fun () ->
      ignore (Vec3.get Vec3.zero 3))

let test_vec3_normalize () =
  let v = Vec3.normalize (Vec3.make 3. 4. 0.) in
  check_float "unit norm" 1. (Vec3.norm v);
  check_bool "zero stays zero" true (Vec3.equal (Vec3.normalize Vec3.zero) Vec3.zero)

(* ---------- Aligned ---------- *)

let test_round_up () =
  check_int "exact" 16 (Aligned.round_up 16 8);
  check_int "round" 24 (Aligned.round_up 17 8);
  check_int "zero" 8 (Aligned.round_up 0 8);
  Alcotest.check_raises "bad multiple"
    (Invalid_argument "Aligned.round_up: multiple <= 0") (fun () ->
      ignore (Aligned.round_up 4 0))

let test_aligned_padding () =
  check_int "f64 lanes" 8 (A64.padded_len 5);
  check_int "f64 exact" 16 (A64.padded_len 16);
  check_int "f32 lanes" 16 (A32.padded_len 5);
  check_int "f32 17" 32 (A32.padded_len 17)

let test_aligned_roundtrip () =
  let xs = Array.init 13 (fun i -> float_of_int i *. 0.5) in
  let a = A64.of_array xs in
  Alcotest.(check (array (float 0.))) "roundtrip" xs (A64.to_array a);
  check_int "bytes" (13 * 8) (A64.bytes a)

let test_aligned_f32_rounds () =
  let a = A32.create 4 in
  A32.set a 0 0.1;
  check_bool "storage narrowed" true (A32.get a 0 <> 0.1);
  check_bool "close to 0.1" true (abs_float (A32.get a 0 -. 0.1) < 1e-7)

let test_aligned_sub_shares () =
  let a = A64.create 10 in
  let s = A64.sub a ~pos:2 ~len:4 in
  A64.set s 0 42.;
  check_float "shared storage" 42. (A64.get a 2)

let test_aligned_fold () =
  let a = A64.of_array [| 1.; 2.; 3.; 4. |] in
  check_float "fold sum" 10. (A64.fold ( +. ) 0. a)

(* ---------- Pos_aos ---------- *)

let test_aos_interleaving () =
  let p = Aos64.create 3 in
  Aos64.set p 1 (Vec3.make 1. 2. 3.);
  let d = Aos64.data p in
  check_float "x at 3" 1. (Aos64.A.get d 3);
  check_float "y at 4" 2. (Aos64.A.get d 4);
  check_float "z at 5" 3. (Aos64.A.get d 5);
  check_float "unsafe_y" 2. (Aos64.unsafe_y p 1)

let test_aos_roundtrip () =
  let vs = Array.init 7 (fun i ->
      Vec3.make (float_of_int i) (float_of_int (i * i)) (-.float_of_int i))
  in
  let p = Aos64.of_vec3s vs in
  Array.iteri
    (fun i v -> check_bool "vec roundtrip" true (Vec3.equal v (Aos64.get p i)))
    (Aos64.to_vec3s p);
  ignore vs

(* ---------- Vsc ---------- *)

let test_vsc_layout () =
  let s = Vsc64.create 5 in
  check_int "padded stride" 8 (Vsc64.stride s);
  Vsc64.set s 2 (Vec3.make 7. 8. 9.);
  check_float "xs row" 7. (Vsc64.A.get (Vsc64.xs s) 2);
  check_float "ys row" 8. (Vsc64.A.get (Vsc64.ys s) 2);
  check_float "zs row" 9. (Vsc64.A.get (Vsc64.zs s) 2)

let test_vsc_aos_assign () =
  let n = 11 in
  let aos = Aos64.create n in
  for i = 0 to n - 1 do
    Aos64.set aos i (Vec3.make (float_of_int i) (2. *. float_of_int i) 1.)
  done;
  let s = Vsc64.create n in
  Vsc64.assign_from_aos s aos;
  for i = 0 to n - 1 do
    check_bool "match" true (Vec3.equal (Aos64.get aos i) (Vsc64.get s i))
  done;
  let back = Vsc64.to_aos s in
  for i = 0 to n - 1 do
    check_bool "roundtrip" true (Vec3.equal (Aos64.get aos i) (Aos64.get back i))
  done

let test_vsc_size_mismatch () =
  let s = Vsc64.create 4 and aos = Aos64.create 5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vsc.assign_from_aos: size mismatch") (fun () ->
      Vsc64.assign_from_aos s aos)

(* ---------- Wbuffer ---------- *)

let test_wbuffer_protocol () =
  let b = Wbuffer.create ~capacity:2 () in
  Wbuffer.extend b 1;
  Wbuffer.extend b 5;
  check_int "size" 6 (Wbuffer.size b);
  check_bool "extend zeroes" true (Wbuffer.contents b = Array.make 6 0.);
  Wbuffer.rewind b;
  Wbuffer.put b 1.5;
  Wbuffer.put_array b [| 2.; 3.; 4. |];
  check_int "block at cursor" 4 (Wbuffer.block b 2);
  (Wbuffer.pool b).(4) <- 5.;
  (Wbuffer.pool b).(5) <- 6.;
  check_int "cursor" 6 (Wbuffer.cursor b);
  Wbuffer.rewind b;
  check_float "get" 1.5 (Wbuffer.get b);
  let dst = Array.make 5 0. in
  Wbuffer.get_into b dst;
  check_bool "get_into" true (dst = [| 2.; 3.; 4.; 5.; 6. |]);
  check_int "bytes" 48 (Wbuffer.bytes b);
  (* A cleared pool extends to zeros again, not to its old contents. *)
  Wbuffer.clear b;
  Wbuffer.extend b 3;
  check_bool "re-extend zeroes" true (Wbuffer.contents b = Array.make 3 0.)

let test_wbuffer_overrun () =
  let b = Wbuffer.create () in
  Wbuffer.extend b 1;
  Wbuffer.rewind b;
  ignore (Wbuffer.get b);
  Alcotest.check_raises "overrun"
    (Invalid_argument "Wbuffer.get: past end of pool") (fun () ->
      ignore (Wbuffer.get b));
  Wbuffer.rewind b;
  Alcotest.check_raises "block overrun"
    (Invalid_argument "Wbuffer.block: past end of pool") (fun () ->
      ignore (Wbuffer.block b 2));
  check_int "failed block leaves the cursor" 0 (Wbuffer.cursor b)

(* [load] adopts the array as the pool: exact size, cursor at 0. *)
let test_wbuffer_load_exact () =
  let b = Wbuffer.create () in
  Wbuffer.extend b 3;
  ignore (Wbuffer.get b);
  let a = [| 7.; 8.; 9.; 10.; 11. |] in
  Wbuffer.load b a;
  check_int "size" 5 (Wbuffer.size b);
  check_int "cursor" 0 (Wbuffer.cursor b);
  check_bool "no spare capacity" true (Wbuffer.pool b == a);
  check_float "first" 7. (Wbuffer.get b);
  Wbuffer.load b [||];
  check_int "empty" 0 (Wbuffer.size b);
  Wbuffer.extend b 2;
  check_int "grows from empty" 2 (Wbuffer.size b)

(* Storage rows cross the pool whole, bit for bit at f64 and rounded
   exactly like a per-element store at f32. *)
let test_aligned_buffer_blocks () =
  let xs = Array.init 7 (fun i -> (float_of_int i *. 0.1) +. 1e-9) in
  let a64 = A64.of_array xs and a32 = A32.of_array xs in
  let b = Wbuffer.create () in
  Wbuffer.extend b 1;
  Wbuffer.extend b 9;
  Wbuffer.rewind b;
  Wbuffer.put b 42.;
  A64.to_buffer a64 ~pos:2 ~n:5 b;
  A32.to_buffer a32 ~pos:3 ~n:4 b;
  let pool = Wbuffer.contents b in
  check_float "scalar kept" 42. pool.(0);
  for i = 0 to 4 do
    check_bool "f64 bits" true (pool.(1 + i) = xs.(2 + i))
  done;
  for i = 0 to 3 do
    check_bool "f32 widened" true (pool.(6 + i) = A32.get a32 (3 + i))
  done;
  let c64 = A64.create 7 and c32 = A32.create 7 in
  Wbuffer.rewind b;
  ignore (Wbuffer.get b);
  A64.of_buffer b c64 ~pos:0 ~n:5;
  A32.of_buffer b c32 ~pos:1 ~n:4;
  for i = 0 to 4 do
    check_bool "f64 back" true (A64.get c64 i = xs.(2 + i))
  done;
  for i = 0 to 3 do
    check_bool "f32 back" true (A32.get c32 (1 + i) = A32.get a32 (3 + i))
  done;
  (* Narrowing through the pool rounds like [set]. *)
  Wbuffer.load b (Array.copy xs);
  A32.of_buffer b c32 ~pos:0 ~n:7;
  for i = 0 to 6 do
    check_bool "f32 rounds like set" true (A32.get c32 i = A32.get a32 i)
  done

let test_wbuffer_copy_independent () =
  let b = Wbuffer.create () in
  Wbuffer.extend b 1;
  Wbuffer.rewind b;
  Wbuffer.put b 1.;
  let c = Wbuffer.copy b in
  Wbuffer.rewind b;
  Wbuffer.put b 2.;
  Wbuffer.rewind c;
  check_float "copy unchanged" 1. (Wbuffer.get c)

(* ---------- Matrix ---------- *)

let test_matrix_basic () =
  let m = M64.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  check_float "get" 12. (M64.get m 1 2);
  let tr = M64.transpose m in
  check_float "transpose" 12. (M64.get tr 2 1);
  check_int "ld unpadded" 4 (M64.ld m);
  let p = M64.create ~padded:true 3 4 in
  check_int "ld padded f64" 8 (M64.ld p)

let test_matrix_row_shares () =
  let m = M64.create 3 3 in
  let r = M64.row m 1 in
  M64.A.set r 2 5.;
  check_float "row view shares" 5. (M64.get m 1 2)

let test_matrix_identity_diff () =
  let i3 = M64.identity 3 in
  let j3 = M64.init 3 3 (fun i j -> if i = j then 1. else 0.) in
  check_float "identity" 0. (M64.max_abs_diff i3 j3)

let test_matrix_of_arrays_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Matrix.of_arrays: ragged rows") (fun () ->
      ignore (M64.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

(* ---------- timers ---------- *)

let test_timers () =
  let t = Timers.create () in
  let r = Timers.time t "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "returns value" 42 r;
  Timers.add t "work" 0.5;
  Alcotest.(check int) "count" 2 (Timers.count t "work");
  check_bool "sum includes manual add" true (Timers.total t "work" >= 0.5);
  let t2 = Timers.create () in
  Timers.add t2 "other" 0.25;
  Timers.merge ~into:t t2;
  check_bool "merged key" true (Timers.total t "other" = 0.25);
  let prof = Timers.profile t in
  let total = List.fold_left (fun a (_, f) -> a +. f) 0. prof in
  check_bool "profile normalized" true (abs_float (total -. 1.) < 1e-9);
  Timers.reset t;
  check_bool "reset" true (Timers.grand_total t = 0.);
  (* the disabled set must run thunks without recording *)
  let x = Timers.time Timers.null "skip" (fun () -> 7) in
  Alcotest.(check int) "null passthrough" 7 x

(* ---------- qcheck properties ---------- *)

let vec3_gen =
  QCheck.Gen.(
    map3 (fun x y z -> Vec3.make x y z) (float_range (-100.) 100.)
      (float_range (-100.) 100.) (float_range (-100.) 100.))

let arb_vec3 = QCheck.make ~print:Vec3.to_string vec3_gen

let prop_cross_antisym =
  QCheck.Test.make ~name:"vec3 cross antisymmetric" ~count:200
    (QCheck.pair arb_vec3 arb_vec3) (fun (a, b) ->
      Vec3.equal ~tol:1e-9 (Vec3.cross a b) (Vec3.neg (Vec3.cross b a)))

let prop_triangle_inequality =
  QCheck.Test.make ~name:"vec3 triangle inequality" ~count:200
    (QCheck.pair arb_vec3 arb_vec3) (fun (a, b) ->
      Vec3.norm (Vec3.add a b) <= Vec3.norm a +. Vec3.norm b +. 1e-9)

let prop_vsc_roundtrip =
  QCheck.Test.make ~name:"vsc aos roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) arb_vec3)
    (fun vs ->
      let vs = Array.of_list vs in
      let aos = Aos64.of_vec3s vs in
      let s = Vsc64.create (Array.length vs) in
      Vsc64.assign_from_aos s aos;
      Array.for_all2 (fun a b -> Vec3.equal a b)
        (Aos64.to_vec3s (Vsc64.to_aos s))
        vs)

let prop_f32_roundtrip_error =
  QCheck.Test.make ~name:"f32 storage error bounded" ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun x ->
      let a = A32.create 1 in
      A32.set a 0 x;
      abs_float (A32.get a 0 -. x) <= abs_float x *. 1.2e-7 +. 1e-30)

let prop_round_up =
  QCheck.Test.make ~name:"round_up properties" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 1 64))
    (fun (n, m) ->
      let r = Aligned.round_up n m in
      r mod m = 0 && r >= n && (n <= 0 || r - n < m))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "containers"
    [
      ( "vec3",
        [
          Alcotest.test_case "ops" `Quick test_vec3_ops;
          Alcotest.test_case "get invalid" `Quick test_vec3_get_invalid;
          Alcotest.test_case "normalize" `Quick test_vec3_normalize;
        ] );
      ( "aligned",
        [
          Alcotest.test_case "round_up" `Quick test_round_up;
          Alcotest.test_case "padding" `Quick test_aligned_padding;
          Alcotest.test_case "roundtrip" `Quick test_aligned_roundtrip;
          Alcotest.test_case "f32 rounds" `Quick test_aligned_f32_rounds;
          Alcotest.test_case "sub shares" `Quick test_aligned_sub_shares;
          Alcotest.test_case "fold" `Quick test_aligned_fold;
        ] );
      ( "pos_aos",
        [
          Alcotest.test_case "interleaving" `Quick test_aos_interleaving;
          Alcotest.test_case "roundtrip" `Quick test_aos_roundtrip;
        ] );
      ( "vsc",
        [
          Alcotest.test_case "layout" `Quick test_vsc_layout;
          Alcotest.test_case "aos assign" `Quick test_vsc_aos_assign;
          Alcotest.test_case "size mismatch" `Quick test_vsc_size_mismatch;
        ] );
      ( "wbuffer",
        [
          Alcotest.test_case "protocol" `Quick test_wbuffer_protocol;
          Alcotest.test_case "overrun" `Quick test_wbuffer_overrun;
          Alcotest.test_case "load is exact" `Quick test_wbuffer_load_exact;
          Alcotest.test_case "aligned blocks" `Quick test_aligned_buffer_blocks;
          Alcotest.test_case "copy" `Quick test_wbuffer_copy_independent;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "basic" `Quick test_matrix_basic;
          Alcotest.test_case "row shares" `Quick test_matrix_row_shares;
          Alcotest.test_case "identity" `Quick test_matrix_identity_diff;
          Alcotest.test_case "ragged" `Quick test_matrix_of_arrays_ragged;
        ] );
      ("timers", [ Alcotest.test_case "accumulate/merge" `Quick test_timers ]);
      ( "properties",
        qt
          [
            prop_cross_antisym;
            prop_triangle_inequality;
            prop_vsc_roundtrip;
            prop_f32_roundtrip_error;
            prop_round_up;
          ] );
    ]
