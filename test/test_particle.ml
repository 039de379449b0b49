open Oqmc_containers
open Oqmc_particle
open Oqmc_rng

module Ps = Particle_set.Make (Precision.F64)
module AAref = Dt_aa_ref.Make (Precision.F64)
module AAfwd = Dt_aa_forward.Make (Precision.F64)
module AAsoa = Dt_aa_soa.Make (Precision.F64) (Precision.F64)
module ABref = Dt_ab_ref.Make (Precision.F64)
module ABsoa = Dt_ab_soa.Make (Precision.F64) (Precision.F64)

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let electrons ~lattice n = Ps.create ~lattice [ { Particle_set.name = "e"; charge = -1.; count = n } ]

let random_ps ~lattice ~seed n =
  let ps = electrons ~lattice n in
  let rng = Xoshiro.create seed in
  Ps.randomize ps (fun () -> Xoshiro.uniform rng);
  (ps, rng)

(* ---------- lattice ---------- *)

let test_lattice_frac_roundtrip () =
  let l = Lattice.orthorhombic 3. 4. 5. in
  let r = Vec3.make 1.2 (-0.7) 9.9 in
  let s = Lattice.to_frac l r in
  check_bool "roundtrip" true (Vec3.equal ~tol:1e-12 r (Lattice.to_cart l s))

let test_lattice_general_roundtrip () =
  (* Hexagonal (graphite-like) cell. *)
  let a = 2.46 and c = 6.7 in
  let l =
    Lattice.general
      [|
        Vec3.make a 0. 0.;
        Vec3.make (-.a /. 2.) (a *. sqrt 3. /. 2.) 0.;
        Vec3.make 0. 0. c;
      |]
  in
  let r = Vec3.make 0.3 1.1 2.2 in
  let s = Lattice.to_frac l r in
  check_bool "roundtrip" true (Vec3.equal ~tol:1e-12 r (Lattice.to_cart l s));
  checkf 1e-10 "volume" (a *. (a *. sqrt 3. /. 2.) *. c) (Lattice.volume l)

let test_min_image_ortho () =
  let l = Lattice.cubic 10. in
  let d = Lattice.min_image_disp l (Vec3.make 9. 0. 0.) in
  checkf 1e-12 "wraps" (-1.) d.Vec3.x;
  let d2 = Lattice.min_image_disp l (Vec3.make 4.9 (-5.1) 20.) in
  checkf 1e-12 "x stays" 4.9 d2.Vec3.x;
  checkf 1e-12 "y wraps" 4.9 d2.Vec3.y;
  checkf 1e-12 "z multi-cell" 0. d2.Vec3.z

let test_min_image_general_matches_ortho () =
  (* A cube expressed as a general cell must agree with the fast path. *)
  let lo = Lattice.cubic 7. in
  let lg =
    Lattice.general
      [| Vec3.make 7. 0. 0.; Vec3.make 0. 7. 0.; Vec3.make 0. 0. 7. |]
  in
  let rng = Xoshiro.create 1 in
  for _ = 1 to 200 do
    let dr =
      Vec3.make
        (Xoshiro.uniform_range rng ~lo:(-20.) ~hi:20.)
        (Xoshiro.uniform_range rng ~lo:(-20.) ~hi:20.)
        (Xoshiro.uniform_range rng ~lo:(-20.) ~hi:20.)
    in
    let a = Lattice.min_image_disp lo dr and b = Lattice.min_image_disp lg dr in
    checkf 1e-9 "same norm" (Vec3.norm a) (Vec3.norm b)
  done

let test_min_image_shortest () =
  (* The minimum-image displacement is never longer than any image. *)
  let l =
    Lattice.general
      [|
        Vec3.make 3. 0. 0.; Vec3.make 1. 3. 0.; Vec3.make 0.5 0.4 3.;
      |]
  in
  let rng = Xoshiro.create 2 in
  let vs = Lattice.vectors l in
  for _ = 1 to 100 do
    let dr =
      Vec3.make
        (Xoshiro.uniform_range rng ~lo:(-5.) ~hi:5.)
        (Xoshiro.uniform_range rng ~lo:(-5.) ~hi:5.)
        (Xoshiro.uniform_range rng ~lo:(-5.) ~hi:5.)
    in
    let m = Lattice.min_image_disp l dr in
    for i = -1 to 1 do
      for j = -1 to 1 do
        for k = -1 to 1 do
          let img =
            Vec3.add dr
              (Vec3.add
                 (Vec3.scale (float_of_int i) vs.(0))
                 (Vec3.add
                    (Vec3.scale (float_of_int j) vs.(1))
                    (Vec3.scale (float_of_int k) vs.(2))))
          in
          check_bool "min image shortest" true
            (Vec3.norm m <= Vec3.norm img +. 1e-9)
        done
      done
    done
  done

let test_wigner_seitz () =
  checkf 1e-12 "cubic" 3.5 (Lattice.wigner_seitz_radius (Lattice.cubic 7.));
  checkf 1e-12 "ortho" 1.5
    (Lattice.wigner_seitz_radius (Lattice.orthorhombic 3. 8. 9.));
  check_bool "open infinite" true
    (Lattice.wigner_seitz_radius Lattice.open_cell = infinity)

let test_wrap_position () =
  let l = Lattice.cubic 4. in
  let w = Lattice.wrap_position l (Vec3.make 5. (-1.) 8.5 ) in
  checkf 1e-12 "x" 1. w.Vec3.x;
  checkf 1e-12 "y" 3. w.Vec3.y;
  checkf 1e-12 "z" 0.5 w.Vec3.z

(* ---------- particle set ---------- *)

let test_ps_species () =
  let l = Lattice.cubic 5. in
  let ps =
    Ps.create ~lattice:l
      [
        { Particle_set.name = "u"; charge = -1.; count = 3 };
        { Particle_set.name = "d"; charge = -1.; count = 2 };
      ]
  in
  Alcotest.(check int) "n" 5 (Ps.n ps);
  Alcotest.(check int) "species of 2" 0 (Ps.species_index ps 2);
  Alcotest.(check int) "species of 3" 1 (Ps.species_index ps 3);
  Alcotest.(check string) "name" "d" (Ps.species_of ps 4).Particle_set.name;
  Alcotest.(check (option int)) "first d" (Some 3) (Ps.first_of_species ps 1)

let test_ps_move_protocol () =
  let ps, _ = random_ps ~lattice:(Lattice.cubic 5.) ~seed:3 4 in
  let orig = Ps.get ps 2 in
  let newpos = Vec3.make 1. 2. 3. in
  Ps.propose ps 2 newpos;
  check_bool "containers untouched" true (Vec3.equal orig (Ps.get ps 2));
  Ps.reject ps;
  Alcotest.(check int) "no active" (-1) (Ps.active ps);
  Ps.propose ps 2 newpos;
  Ps.accept ps;
  check_bool "aos updated" true (Vec3.equal newpos (Ps.get ps 2));
  check_bool "soa updated" true (Vec3.equal newpos (Ps.Vs.get (Ps.soa ps) 2))

let test_ps_walker_roundtrip () =
  let ps, _ = random_ps ~lattice:(Lattice.cubic 5.) ~seed:4 6 in
  let w = Walker.create 6 in
  Ps.store_walker ps w;
  let ps2 = electrons ~lattice:(Lattice.cubic 5.) 6 in
  Ps.load_walker ps2 w;
  for i = 0 to 5 do
    check_bool "positions transferred" true
      (Vec3.equal (Ps.get ps i) (Ps.get ps2 i));
    check_bool "soa synced" true
      (Vec3.equal (Ps.get ps i) (Ps.Vs.get (Ps.soa ps2) i))
  done

let test_ps_accept_requires_active () =
  let ps, _ = random_ps ~lattice:(Lattice.cubic 5.) ~seed:5 3 in
  Alcotest.check_raises "no active"
    (Invalid_argument "Particle_set.accept: no active move") (fun () ->
      Ps.accept ps)

(* ---------- walker ---------- *)

let test_walker_copy () =
  let w = Walker.create 3 in
  w.Walker.weight <- 0.7;
  Walker.Aos.set w.Walker.r 0 (Vec3.make 1. 1. 1.);
  let c = Walker.copy w in
  check_bool "distinct ids" true (c.Walker.id <> w.Walker.id);
  Walker.Aos.set c.Walker.r 0 (Vec3.make 2. 2. 2.);
  check_bool "deep copy" true
    (Vec3.equal (Walker.Aos.get w.Walker.r 0) (Vec3.make 1. 1. 1.));
  checkf 1e-12 "weight copied" 0.7 c.Walker.weight

(* ---------- distance tables ---------- *)

let brute_dist lattice ps i j =
  Lattice.min_image_dist lattice (Ps.get ps i) (Ps.get ps j)

let test_aa_tables_agree () =
  let lattice = Lattice.cubic 6. in
  let ps, _ = random_ps ~lattice ~seed:6 12 in
  let tref = AAref.create ps and tsoa = AAsoa.create ps in
  AAref.evaluate tref ps;
  AAsoa.evaluate tsoa ps;
  for i = 0 to 11 do
    for j = 0 to 11 do
      if i <> j then begin
        let expect = brute_dist lattice ps i j in
        checkf 1e-9 "ref dist" expect (AAref.dist tref i j);
        checkf 1e-9 "soa dist" expect (AAsoa.dist tsoa i j);
        (* Displacement conventions: ref displ i j = r_j − r_i;
           soa row k entry i = r_i − r_k. *)
        check_bool "displacements opposite" true
          (Vec3.equal ~tol:1e-9 (AAref.displ tref i j) (AAsoa.displ tsoa i j))
      end
    done
  done

let test_aa_move_accept_cycle () =
  let lattice = Lattice.cubic 6. in
  let ps, rng = random_ps ~lattice ~seed:7 10 in
  let tref = AAref.create ps and tsoa = AAsoa.create ps in
  AAref.evaluate tref ps;
  AAsoa.evaluate tsoa ps;
  (* A PbyP sweep with mixed accepts and rejects. *)
  for k = 0 to 9 do
    let p = Ps.get ps k in
    let newpos =
      Vec3.add p
        (Vec3.make (Xoshiro.gaussian rng) (Xoshiro.gaussian rng)
           (Xoshiro.gaussian rng))
    in
    AAref.move tref ps k newpos;
    AAsoa.move tsoa ps k newpos;
    (* Temp rows agree between layouts. *)
    for i = 0 to 9 do
      if i <> k then
        checkf 1e-9 "temp dist"
          (Lattice.min_image_dist lattice newpos (Ps.get ps i))
          (AAsoa.A.get (AAsoa.temp_dist tsoa) i)
    done;
    if k mod 2 = 0 then begin
      Ps.propose ps k newpos;
      Ps.accept ps;
      AAref.update tref k;
      AAsoa.accept tsoa k
    end
  done;
  (* After the sweep the Ref table must match brute force everywhere. *)
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j then
        checkf 1e-9 "ref after sweep" (brute_dist lattice ps i j)
          (AAref.dist tref i j)
    done
  done;
  (* The SoA compute-on-the-fly table is only guaranteed per-row at move
     time; a full evaluate restores global consistency for measurements. *)
  AAsoa.evaluate tsoa ps;
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j then
        checkf 1e-9 "soa after evaluate" (brute_dist lattice ps i j)
          (AAsoa.dist tsoa i j)
    done
  done

let test_aa_soa_row_fresh_on_move () =
  (* Row k must be correct at move time even if other electrons moved
     since the last evaluate — the compute-on-the-fly guarantee. *)
  let lattice = Lattice.cubic 6. in
  let ps, _ = random_ps ~lattice ~seed:8 8 in
  let t = AAsoa.create ps in
  AAsoa.evaluate t ps;
  (* Move electron 0 and accept without telling the table rows 1..7. *)
  Ps.propose ps 0 (Vec3.make 0.5 0.5 0.5);
  Ps.accept ps;
  AAsoa.move t ps 0 (Vec3.make 1. 1. 1.);
  AAsoa.accept t 0;
  (* Now prepare electron 3: its refreshed row must see electron 0's new
     position. *)
  AAsoa.prepare t ps 3;
  checkf 1e-9 "row sees current positions"
    (brute_dist lattice ps 3 0)
    (AAsoa.dist t 3 0)

let ions ~lattice =
  let ps =
    Ps.create ~lattice [ { Particle_set.name = "ion"; charge = 4.; count = 4 } ]
  in
  Ps.set_all ps
    [|
      Vec3.make 0.5 0.5 0.5; Vec3.make 2. 2. 2.; Vec3.make 4. 1. 3.;
      Vec3.make 1. 4. 2.;
    |];
  ps

let test_ab_tables_agree () =
  let lattice = Lattice.cubic 6. in
  let ion_ps = ions ~lattice in
  let ps, _ = random_ps ~lattice ~seed:9 7 in
  let tref = ABref.create ~sources:ion_ps ps in
  let tsoa = ABsoa.create ~sources:ion_ps ps in
  ABref.evaluate tref ps;
  ABsoa.evaluate tsoa ps;
  for k = 0 to 6 do
    for i = 0 to 3 do
      let expect =
        Lattice.min_image_dist lattice (Ps.get ps k) (Ps.get ion_ps i)
      in
      checkf 1e-9 "ref" expect (ABref.dist tref k i);
      checkf 1e-9 "soa" expect (ABsoa.dist tsoa k i);
      check_bool "displ agree" true
        (Vec3.equal ~tol:1e-9 (ABref.displ tref k i) (ABsoa.displ tsoa k i))
    done
  done

let test_ab_move_accept () =
  let lattice = Lattice.cubic 6. in
  let ion_ps = ions ~lattice in
  let ps, _ = random_ps ~lattice ~seed:10 5 in
  let t = ABsoa.create ~sources:ion_ps ps in
  ABsoa.evaluate t ps;
  let newpos = Vec3.make 3. 3. 3. in
  ABsoa.move t newpos;
  for i = 0 to 3 do
    checkf 1e-9 "temp" (Lattice.min_image_dist lattice newpos (Ps.get ion_ps i))
      (ABsoa.A.get (ABsoa.temp_dist t) i)
  done;
  Ps.propose ps 2 newpos;
  Ps.accept ps;
  ABsoa.accept t 2;
  for i = 0 to 3 do
    checkf 1e-9 "row updated"
      (Lattice.min_image_dist lattice newpos (Ps.get ion_ps i))
      (ABsoa.dist t 2 i)
  done

(* f32 distance-row storage: the rows hold f32-rounded values but every
   distance is computed in f64 and rounded ONCE at the store, so the
   drift against the f64 table is bounded by one f32 rounding of the
   stored value — it never accumulates across a sweep of moves and
   accepts.  Two sizes shaped like the reduced NiO-32 and graphite
   electron counts. *)
module AAsoa32 = Dt_aa_soa.Make (Precision.F64) (Precision.F32)
module ABsoa32 = Dt_ab_soa.Make (Precision.F64) (Precision.F32)

let test_dt_f32_drift_bounded () =
  List.iter
    (fun (n, box, seed) ->
      let lattice = Lattice.cubic box in
      let ps, rng = random_ps ~lattice ~seed n in
      let ion_ps = ions ~lattice in
      let t64 = AAsoa.create ps and t32 = AAsoa32.create ps in
      let b64 = ABsoa.create ~sources:ion_ps ps in
      let b32 = ABsoa32.create ~sources:ion_ps ps in
      AAsoa.evaluate t64 ps;
      AAsoa32.evaluate t32 ps;
      ABsoa.evaluate b64 ps;
      ABsoa32.evaluate b32 ps;
      (* Mirrored PbyP sweep with mixed accepts and rejects. *)
      for k = 0 to n - 1 do
        let newpos =
          Vec3.add (Ps.get ps k)
            (Vec3.make
               (Xoshiro.gaussian rng *. 0.3)
               (Xoshiro.gaussian rng *. 0.3)
               (Xoshiro.gaussian rng *. 0.3))
        in
        AAsoa.move t64 ps k newpos;
        AAsoa32.move t32 ps k newpos;
        ABsoa.move b64 newpos;
        ABsoa32.move b32 newpos;
        if k mod 2 = 0 then begin
          Ps.propose ps k newpos;
          Ps.accept ps;
          AAsoa.accept t64 k;
          AAsoa32.accept t32 k;
          ABsoa.accept b64 k;
          ABsoa32.accept b32 k
        end
      done;
      AAsoa.evaluate t64 ps;
      AAsoa32.evaluate t32 ps;
      ABsoa.evaluate b64 ps;
      ABsoa32.evaluate b32 ps;
      (* One f32 rounding: relative 2^-24, so absolute ~d · 6e-8; a
         box-scaled absolute bound with slack covers it. *)
      let bound = 1e-5 *. box in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            check_bool "AA f32 drift bounded" true
              (abs_float (AAsoa.dist t64 i j -. AAsoa32.dist t32 i j)
              <= bound)
        done;
        for s = 0 to 3 do
          check_bool "AB f32 drift bounded" true
            (abs_float (ABsoa.dist b64 i s -. ABsoa32.dist b32 i s) <= bound)
        done
      done)
    [ (48, 7.9, 41); (32, 6.3, 42) ]

let test_tables_general_lattice () =
  (* Hexagonal cell exercises the general minimum-image path. *)
  let a = 4.6 in
  let lattice =
    Lattice.general
      [|
        Vec3.make a 0. 0.;
        Vec3.make (-.a /. 2.) (a *. sqrt 3. /. 2.) 0.;
        Vec3.make 0. 0. 6.7;
      |]
  in
  let ps, _ = random_ps ~lattice ~seed:11 9 in
  let tref = AAref.create ps and tsoa = AAsoa.create ps in
  AAref.evaluate tref ps;
  AAsoa.evaluate tsoa ps;
  for i = 0 to 8 do
    for j = 0 to 8 do
      if i <> j then
        checkf 1e-9 "hex layouts agree" (AAref.dist tref i j)
          (AAsoa.dist tsoa i j)
    done
  done

let test_aa_memory_scaling () =
  let lattice = Lattice.cubic 6. in
  let ps32, _ = random_ps ~lattice ~seed:12 32 in
  let ps64, _ = random_ps ~lattice ~seed:12 64 in
  let b32 = AAsoa.bytes (AAsoa.create ps32) in
  let b64 = AAsoa.bytes (AAsoa.create ps64) in
  (* Full-table storage grows ~4x when N doubles. *)
  check_bool "O(N^2) growth" true
    (float_of_int b64 /. float_of_int b32 > 3.4);
  (* The packed Ref triangle is about half the SoA distance storage. *)
  let ref64 = AAref.bytes (AAref.create ps64) in
  check_bool "triangle smaller" true (ref64 < b64)

let test_forward_table_sweep_invariant () =
  (* Through a full ordered sweep with mixed accepts, the pair (i,j) read
     from the larger row must always match brute force — the forward
     update's correctness invariant (Fig. 6b). *)
  let lattice = Lattice.cubic 6. in
  let ps, rng = random_ps ~lattice ~seed:21 10 in
  let t = AAfwd.create ps in
  AAfwd.evaluate t ps;
  for k = 0 to 9 do
    let newpos =
      Vec3.add (Ps.get ps k)
        (Vec3.make (Xoshiro.gaussian rng) (Xoshiro.gaussian rng)
           (Xoshiro.gaussian rng))
    in
    AAfwd.move t ps k newpos;
    if k mod 2 = 0 then begin
      Ps.propose ps k newpos;
      Ps.accept ps;
      AAfwd.update t k
    end;
    (* invariant check after every move: pairs (i,j) with max(i,j) <= k
       moved already; all pairs must read correctly from the larger row *)
    for i = 0 to 9 do
      for j = 0 to 9 do
        if i <> j then begin
          checkf 1e-9 "pair from larger row" (brute_dist lattice ps i j)
            (AAfwd.dist t i j);
          check_bool "displacement consistent" true
            (Vec3.equal ~tol:1e-9 (AAfwd.displ t i j)
               (Lattice.min_image_disp lattice
                  (Vec3.sub (Ps.get ps j) (Ps.get ps i))))
        end
      done
    done
  done

let test_forward_matches_other_layouts () =
  let lattice = Lattice.cubic 6. in
  let ps, _ = random_ps ~lattice ~seed:22 8 in
  let tf = AAfwd.create ps and ts = AAsoa.create ps in
  AAfwd.evaluate tf ps;
  AAsoa.evaluate ts ps;
  for i = 0 to 7 do
    for j = 0 to 7 do
      if i <> j then
        checkf 1e-9 "forward = soa" (AAsoa.dist ts i j) (AAfwd.dist tf i j)
    done
  done

(* ---------- crowd-batched kernels ---------- *)

(* The batched kernels must reproduce the scalar per-table protocol
   bit-for-bit: compare whole backing arrays through their IEEE bits. *)
let same_bits name (a : AAsoa.A.t) (b : AAsoa.A.t) =
  let ok = ref (AAsoa.A.length a = AAsoa.A.length b) in
  if !ok then
    for i = 0 to AAsoa.A.length a - 1 do
      if
        Int64.bits_of_float (AAsoa.A.get a i)
        <> Int64.bits_of_float (AAsoa.A.get b i)
      then ok := false
    done;
  check_bool name true !ok

let same_f64 name a b =
  check_bool name true (Int64.bits_of_float a = Int64.bits_of_float b)

(* Points that pin the kernels' minimum-image rounding: a pair exactly
   half a box apart on every axis, a negative zero, a pair an ulp inside
   half a box, and coordinates several boxes out, an odd number of half
   boxes from the origin.  In a cell whose extents have inexact
   inverses (5.1, 11.3, 6.7) some of these pairs round differently under
   division and [Float.round] than under multiply-by-inverse and
   truncation.  Open and General cells use a nominal box. *)
let edge_points lattice =
  let lx, ly, lz =
    Option.value (Lattice.ortho_dims lattice) ~default:(4., 5., 6.)
  in
  [|
    Vec3.make 0. 0. 0.;
    Vec3.make (lx /. 2.) (ly /. 2.) (lz /. 2.);
    Vec3.make (-0.) (-0.) (-0.);
    Vec3.make (Float.pred (lx /. 2.)) (Float.succ (-.ly /. 2.)) (lz /. 2.);
    Vec3.make (7.5 *. lx) (-6.5 *. ly) (3.5 *. lz);
  |]

(* The first edge points into the first particles of a set. *)
let place_edges ~set ~n lattice =
  let e = edge_points lattice in
  for i = 0 to min n (Array.length e) - 1 do
    set i e.(i)
  done

(* Every scalar and batched entry point of the SoA tables against the
   per-element oracle, bit for bit, self entries included: [evaluate]
   (AA and AB), [prepare], [move] and the three [*_batch] calls, at
   table precision [D] over f64 positions.  Scalar and batched callers
   share one kernel, so the batch-identity tests below hold their rows
   to the oracle through these helpers too. *)
module Oracle_check (D : Precision.REAL) = struct
  module AA = Dt_aa_soa.Make (Precision.F64) (D)
  module AB = Dt_ab_soa.Make (Precision.F64) (D)
  module O = Dt_oracle.Make (Precision.F64) (D)
  module A = AA.A

  let same ok (a : A.t) ~apos (b : A.t) ~n =
    for i = 0 to n - 1 do
      if
        Int64.bits_of_float (A.get a (apos + i))
        <> Int64.bits_of_float (A.get b i)
      then ok := false
    done

  let same_row ok (d, dx, dy, dz) ~apos ~n (od, odx, ody, odz) =
    same ok d ~apos od ~n;
    same ok dx ~apos odx ~n;
    same ok dy ~apos ody ~n;
    same ok dz ~apos odz ~n

  let aa_row t k =
    ( (AA.dist_data t, AA.dx_data t, AA.dy_data t, AA.dz_data t),
      k * AA.row_stride t )

  let ab_row t k =
    ( (AB.dist_data t, AB.dx_data t, AB.dy_data t, AB.dz_data t),
      k * AB.row_stride t )

  let aa_temp t = (AA.temp_dist t, AA.temp_dx t, AA.temp_dy t, AA.temp_dz t)
  let ab_temp t = (AB.temp_dist t, AB.temp_dx t, AB.temp_dy t, AB.temp_dz t)

  let run ~lattice ~n ~seed =
    let ok = ref true in
    let rng = Xoshiro.create seed in
    let u () = Xoshiro.uniform rng in
    let place ps =
      Ps.randomize ~spread:4. ps u;
      place_edges ~set:(Ps.set ps) ~n:(Ps.n ps) lattice
    in
    let ps = electrons ~lattice n in
    place ps;
    let ions =
      Ps.create ~lattice [ { Particle_set.name = "ion"; charge = 2.; count = 5 } ]
    in
    place ions;
    let aa = AA.create ps and ab = AB.create ~sources:ions ps in
    AA.evaluate aa ps;
    AB.evaluate ab ps;
    for k = 0 to n - 1 do
      let p = Ps.get ps k in
      let rows, apos = aa_row aa k in
      same_row ok rows ~apos (O.row ~self:k ps p) ~n;
      let rows, apos = ab_row ab k in
      same_row ok rows ~apos (O.row ions p) ~n:5
    done;
    (* A crowd of this table and a second one, stepped alongside the
       scalar calls. *)
    let ps2 = electrons ~lattice n in
    place ps2;
    let aa2 = AA.create ps2 and ab2 = AB.create ~sources:ions ps2 in
    AA.evaluate aa2 ps2;
    AB.evaluate ab2 ps2;
    let aab = AA.make_batch [| (aa2, ps2); (aa, ps) |] in
    let abb = AB.make_batch [| ab2; ab |] in
    let px = Array.make 2 0. and py = Array.make 2 0. in
    let pz = Array.make 2 0. and acc = [| true; true |] in
    let step () = Vec3.make (u () -. 0.5) (u () -. 0.5) (u () -. 0.5) in
    for k = 0 to n - 1 do
      (* scalar protocol on [aa]/[ab] *)
      AA.prepare aa ps k;
      let rows, apos = aa_row aa k in
      same_row ok rows ~apos (O.row ~self:k ps (Ps.get ps k)) ~n;
      let np = Vec3.add (Ps.get ps k) (step ()) in
      AA.move aa ps k np;
      AB.move ab np;
      same_row ok (aa_temp aa) ~apos:0 (O.row ~self:k ps np) ~n;
      same_row ok (ab_temp ab) ~apos:0 (O.row ions np) ~n:5;
      AA.accept aa k;
      AB.accept ab k;
      Ps.propose ps k np;
      Ps.accept ps;
      (* batched protocol on both slots *)
      AA.prepare_batch aab ~k ~m:2;
      let moves = [| (ps2, aa2, ab2); (ps, aa, ab) |] in
      Array.iteri
        (fun s (q, t, _) ->
          let rows, apos = aa_row t k in
          same_row ok rows ~apos (O.row ~self:k q (Ps.get q k)) ~n;
          let np = Vec3.add (Ps.get q k) (step ()) in
          px.(s) <- np.Vec3.x;
          py.(s) <- np.Vec3.y;
          pz.(s) <- np.Vec3.z)
        moves;
      AA.move_batch aab ~k ~px ~py ~pz ~m:2;
      AB.move_batch abb ~px ~py ~pz ~m:2;
      Array.iteri
        (fun s (q, t, b) ->
          let np = Vec3.make px.(s) py.(s) pz.(s) in
          same_row ok (aa_temp t) ~apos:0 (O.row ~self:k q np) ~n;
          same_row ok (ab_temp b) ~apos:0 (O.row ions np) ~n:5;
          Ps.propose q k np;
          Ps.accept q)
        moves;
      AA.accept_batch aab ~k ~acc ~m:2;
      AB.accept_batch abb ~k ~acc ~m:2
    done;
    (* After accepted moves every AB row is current: compare them all. *)
    for k = 0 to n - 1 do
      let rows, apos = ab_row ab k in
      same_row ok rows ~apos (O.row ions (Ps.get ps k)) ~n:5
    done;
    !ok
end

module Check64 = Oracle_check (Precision.F64)
module Check32 = Oracle_check (Precision.F32)

(* Random per-slot moves and accept decisions shared between the batched
   and the scalar runs of one test. *)
let gauss_move rng ps k =
  Vec3.add (Ps.get ps k)
    (Vec3.make (Xoshiro.gaussian rng) (Xoshiro.gaussian rng)
       (Xoshiro.gaussian rng))

let test_aa_soa_batch_identity () =
  let lattice = Lattice.cubic 6. in
  let n = 7 and slots = 4 in
  let psb = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(100 + s) n)) in
  let pss = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(100 + s) n)) in
  let mk ps = let t = AAsoa.create ps in AAsoa.evaluate t ps; t in
  let tb = Array.map mk psb and ts = Array.map mk pss in
  let batch = AAsoa.make_batch (Array.init slots (fun s -> (tb.(s), psb.(s)))) in
  check_bool "batch cap" true (AAsoa.batch_cap batch = slots);
  let oracle_ok = ref true in
  check_bool "batch table" true (AAsoa.batch_table batch 0 == tb.(0));
  let rng = Xoshiro.create 5 in
  let px = Array.make slots 0.
  and py = Array.make slots 0.
  and pz = Array.make slots 0.
  and acc = Array.make slots false in
  for _sweep = 1 to 3 do
    for k = 0 to n - 1 do
      AAsoa.prepare_batch batch ~k ~m:slots;
      for s = 0 to slots - 1 do
        AAsoa.prepare ts.(s) pss.(s) k;
        let rows, apos = Check64.aa_row tb.(s) k in
        Check64.same_row oracle_ok rows ~apos ~n
          (Check64.O.row ~self:k psb.(s) (Ps.get psb.(s) k))
      done;
      let newpos = Array.init slots (fun s -> gauss_move rng psb.(s) k) in
      for s = 0 to slots - 1 do
        px.(s) <- newpos.(s).Vec3.x;
        py.(s) <- newpos.(s).Vec3.y;
        pz.(s) <- newpos.(s).Vec3.z;
        acc.(s) <- Xoshiro.uniform rng < 0.6
      done;
      AAsoa.move_batch batch ~k ~px ~py ~pz ~m:slots;
      for s = 0 to slots - 1 do
        AAsoa.move ts.(s) pss.(s) k newpos.(s);
        same_bits "temp row" (AAsoa.temp_dist tb.(s)) (AAsoa.temp_dist ts.(s));
        Check64.same_row oracle_ok (Check64.aa_temp tb.(s)) ~apos:0 ~n
          (Check64.O.row ~self:k psb.(s) newpos.(s))
      done;
      AAsoa.accept_batch batch ~k ~acc ~m:slots;
      for s = 0 to slots - 1 do
        if acc.(s) then begin
          AAsoa.accept ts.(s) k;
          Ps.propose psb.(s) k newpos.(s);
          Ps.accept psb.(s);
          Ps.propose pss.(s) k newpos.(s);
          Ps.accept pss.(s)
        end
      done
    done
  done;
  check_bool "prepared and temp rows = oracle" true !oracle_ok;
  for s = 0 to slots - 1 do
    same_bits "dist data" (AAsoa.dist_data tb.(s)) (AAsoa.dist_data ts.(s));
    same_bits "dx data" (AAsoa.dx_data tb.(s)) (AAsoa.dx_data ts.(s));
    same_bits "dy data" (AAsoa.dy_data tb.(s)) (AAsoa.dy_data ts.(s));
    same_bits "dz data" (AAsoa.dz_data tb.(s)) (AAsoa.dz_data ts.(s))
  done

let test_ab_soa_batch_identity () =
  let lattice = Lattice.cubic 6. in
  let slots = 3 and n = 6 and ni = 4 in
  let mk_ions () =
    let io =
      Ps.create ~lattice
        [ { Particle_set.name = "ion"; charge = 4.; count = ni } ]
    in
    let rng = Xoshiro.create 77 in
    Ps.randomize io (fun () -> Xoshiro.uniform rng);
    io
  in
  let psb = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(200 + s) n)) in
  let pss = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(200 + s) n)) in
  let ions = mk_ions () in
  let mk ps = let t = ABsoa.create ~sources:(mk_ions ()) ps in ABsoa.evaluate t ps; t in
  let tb = Array.map mk psb and ts = Array.map mk pss in
  let batch = ABsoa.make_batch tb in
  check_bool "batch cap" true (ABsoa.batch_cap batch = slots);
  let oracle_ok = ref true in
  let rng = Xoshiro.create 8 in
  let px = Array.make slots 0.
  and py = Array.make slots 0.
  and pz = Array.make slots 0.
  and acc = Array.make slots false in
  for _sweep = 1 to 3 do
    for k = 0 to n - 1 do
      let newpos = Array.init slots (fun s -> gauss_move rng psb.(s) k) in
      for s = 0 to slots - 1 do
        px.(s) <- newpos.(s).Vec3.x;
        py.(s) <- newpos.(s).Vec3.y;
        pz.(s) <- newpos.(s).Vec3.z;
        acc.(s) <- Xoshiro.uniform rng < 0.6
      done;
      ABsoa.move_batch batch ~px ~py ~pz ~m:slots;
      for s = 0 to slots - 1 do
        ABsoa.move ts.(s) newpos.(s);
        same_bits "temp row" (ABsoa.temp_dist tb.(s)) (ABsoa.temp_dist ts.(s));
        Check64.same_row oracle_ok (Check64.ab_temp tb.(s)) ~apos:0 ~n:ni
          (Check64.O.row ions newpos.(s))
      done;
      ABsoa.accept_batch batch ~k ~acc ~m:slots;
      for s = 0 to slots - 1 do
        if acc.(s) then begin
          ABsoa.accept ts.(s) k;
          Ps.propose psb.(s) k newpos.(s);
          Ps.accept psb.(s);
          Ps.propose pss.(s) k newpos.(s);
          Ps.accept pss.(s)
        end
      done
    done
  done;
  check_bool "temp rows = oracle" true !oracle_ok;
  for s = 0 to slots - 1 do
    same_bits "dist data" (ABsoa.dist_data tb.(s)) (ABsoa.dist_data ts.(s));
    same_bits "dx data" (ABsoa.dx_data tb.(s)) (ABsoa.dx_data ts.(s));
    same_bits "dy data" (ABsoa.dy_data tb.(s)) (ABsoa.dy_data ts.(s));
    same_bits "dz data" (ABsoa.dz_data tb.(s)) (ABsoa.dz_data ts.(s))
  done

let test_aa_forward_batch_identity () =
  let lattice = Lattice.cubic 6. in
  let n = 6 and slots = 3 in
  let psb = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(300 + s) n)) in
  let pss = Array.init slots (fun s -> fst (random_ps ~lattice ~seed:(300 + s) n)) in
  let mk ps = let t = AAfwd.create ps in AAfwd.evaluate t ps; t in
  let tb = Array.map mk psb and ts = Array.map mk pss in
  let batch = AAfwd.make_batch (Array.init slots (fun s -> (tb.(s), psb.(s)))) in
  let rng = Xoshiro.create 13 in
  let px = Array.make slots 0.
  and py = Array.make slots 0.
  and pz = Array.make slots 0.
  and acc = Array.make slots false in
  for _sweep = 1 to 3 do
    (* The forward scheme's invariant covers one ordered sweep; refresh
       both sides identically between sweeps, as the engine does. *)
    for s = 0 to slots - 1 do
      AAfwd.evaluate tb.(s) psb.(s);
      AAfwd.evaluate ts.(s) pss.(s)
    done;
    for k = 0 to n - 1 do
      let newpos = Array.init slots (fun s -> gauss_move rng psb.(s) k) in
      for s = 0 to slots - 1 do
        px.(s) <- newpos.(s).Vec3.x;
        py.(s) <- newpos.(s).Vec3.y;
        pz.(s) <- newpos.(s).Vec3.z;
        acc.(s) <- Xoshiro.uniform rng < 0.6
      done;
      AAfwd.move_batch batch ~k ~px ~py ~pz ~m:slots;
      for s = 0 to slots - 1 do
        AAfwd.move ts.(s) pss.(s) k newpos.(s);
        same_bits "temp row" (AAfwd.temp_dist tb.(s)) (AAfwd.temp_dist ts.(s))
      done;
      AAfwd.update_batch batch ~k ~acc ~m:slots;
      for s = 0 to slots - 1 do
        if acc.(s) then begin
          AAfwd.update ts.(s) k;
          Ps.propose psb.(s) k newpos.(s);
          Ps.accept psb.(s);
          Ps.propose pss.(s) k newpos.(s);
          Ps.accept pss.(s)
        end
      done;
      for s = 0 to slots - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then
              same_f64 "pair dist" (AAfwd.dist ts.(s) i j)
                (AAfwd.dist tb.(s) i j)
          done
        done
      done
    done
  done


let prop_soa_rows_equal_oracle =
  let lattices =
    [|
      ("ortho", Lattice.orthorhombic 4. 5. 6.);
      ("ortho, inexact inverses", Lattice.orthorhombic 5.1 11.3 6.7);
      ("open", Lattice.open_cell);
      ( "general",
        Lattice.general
          [|
            Vec3.make 4.2 0. 0.;
            Vec3.make (-2.1) (4.2 *. sqrt 3. /. 2.) 0.;
            Vec3.make 0.3 0. 6.7;
          |] );
    |]
  in
  QCheck.Test.make ~name:"SoA rows equal the oracle bit for bit" ~count:24
    QCheck.(
      quad (int_range 0 3) bool (oneofl [ 1; 7; 48; 65 ]) (int_range 1 10000))
    (fun (li, f32, n, seed) ->
      let _, lattice = lattices.(li) in
      if f32 then Check32.run ~lattice ~n ~seed
      else Check64.run ~lattice ~n ~seed)

(* The Ref (AoS) tables against the per-element oracle, bit for bit, at
   positions and table precision [R]: [move] of both Store tables
   against [aos_row], the AA table's [update] scatter against
   [store_update], and both [evaluate] rebuilds against the old
   per-pair and per-row ones.  Random points only: [store_aa] rounds a
   half-box tie differently (see "Store evaluate equals Store move"). *)
module Aos_check (R : Precision.REAL) = struct
  module P = Particle_set.Make (R)
  module AA = Dt_aa_ref.Make (R)
  module AB = Dt_ab_ref.Make (R)
  module O = Dt_oracle.Aos (R)
  module A = Aligned.Make (R)

  let bits = Int64.bits_of_float

  let same_vec ok (v : Vec3.t) (dr : A.t) p =
    if
      bits v.Vec3.x <> bits (A.get dr p)
      || bits v.Vec3.y <> bits (A.get dr (p + 1))
      || bits v.Vec3.z <> bits (A.get dr (p + 2))
    then ok := false

  let same ok a b = if bits a <> bits b then ok := false

  let sets ~lattice ~n ~seed =
    let rng = Xoshiro.create seed in
    let u () = Xoshiro.uniform rng in
    let mk name count =
      let ps =
        P.create ~lattice [ { Particle_set.name; charge = -1.; count } ]
      in
      P.randomize ~spread:4. ps u;
      ps
    in
    (mk "e" n, mk "ion" 5, rng)

  let run ~lattice ~n ~seed =
    let ok = ref true in
    let ps, ions, rng = sets ~lattice ~n ~seed in
    let aa = AA.create ps and ab = AB.create ~sources:ions ps in
    AA.evaluate aa ps;
    AB.evaluate ab ps;
    let od, odr = O.store_aa ps in
    for j = 1 to n - 1 do
      for i = 0 to j - 1 do
        let p = (j * (j - 1) / 2) + i in
        same ok (AA.dist aa i j) (A.get od p);
        same_vec ok (AA.displ aa i j) odr (3 * p)
      done
    done;
    let od, odr = O.store_ab ~sources:ions ps in
    for k = 0 to n - 1 do
      for i = 0 to 4 do
        same ok (AB.dist ab k i) (A.get od ((k * 5) + i));
        same_vec ok (AB.displ ab k i) odr (3 * ((k * 5) + i))
      done
    done;
    (* A shadow of the AA triangle the oracle's scatter keeps up. *)
    let len = n * (n - 1) / 2 in
    let sd = A.create len and sdr = A.create (3 * len) in
    for j = 1 to n - 1 do
      for i = 0 to j - 1 do
        let p = (j * (j - 1) / 2) + i and v = AA.displ aa i j in
        A.set sd p (AA.dist aa i j);
        A.set sdr (3 * p) v.Vec3.x;
        A.set sdr ((3 * p) + 1) v.Vec3.y;
        A.set sdr ((3 * p) + 2) v.Vec3.z
      done
    done;
    for k = 0 to n - 1 do
      let np =
        Vec3.add (P.get ps k)
          (Vec3.make (Xoshiro.gaussian rng) (Xoshiro.gaussian rng)
             (Xoshiro.gaussian rng))
      in
      AA.move aa ps k np;
      AB.move ab np;
      let check_temp nsrc td tdispl (d, dr) =
        for i = 0 to nsrc - 1 do
          same ok (A.get td i) (A.get d i);
          same_vec ok (tdispl i) dr (3 * i)
        done
      in
      let row = O.row ps np in
      check_temp n (AA.temp_dist aa) (AA.temp_displ aa) row;
      check_temp 5 (AB.temp_dist ab) (AB.temp_displ ab) (O.row ions np);
      AA.update aa k;
      AB.update ab k;
      O.store_update ~d:sd ~dr:sdr ~td:(fst row) ~tdr:(snd row) ~n k;
      for j = 1 to n - 1 do
        for i = 0 to j - 1 do
          let p = (j * (j - 1) / 2) + i in
          same ok (AA.dist aa i j) (A.get sd p);
          same_vec ok (AA.displ aa i j) sdr (3 * p)
        done
      done;
      P.propose ps k np;
      P.accept ps
    done;
    !ok

  (* After [evaluate], moving each electron to its own position and
     committing the move leaves both Store tables unchanged, bit for
     bit, edge points included. *)
  let evaluate_is_move ~lattice ~n ~seed =
    let ok = ref true in
    let ps, ions, _ = sets ~lattice ~n ~seed in
    place_edges ~set:(P.set ps) ~n lattice;
    place_edges ~set:(P.set ions) ~n:5 lattice;
    let aa = AA.create ps and ab = AB.create ~sources:ions ps in
    AA.evaluate aa ps;
    AB.evaluate ab ps;
    let aa_snap () =
      List.concat_map
        (fun j ->
          List.concat_map
            (fun i ->
              let v = AA.displ aa i j in
              List.map bits [ AA.dist aa i j; v.Vec3.x; v.Vec3.y; v.Vec3.z ])
            (List.init j Fun.id))
        (List.init n Fun.id)
    in
    let ab_snap () =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun i ->
              let v = AB.displ ab k i in
              List.map bits [ AB.dist ab k i; v.Vec3.x; v.Vec3.y; v.Vec3.z ])
            (List.init 5 Fun.id))
        (List.init n Fun.id)
    in
    let aa0 = aa_snap () and ab0 = ab_snap () in
    for k = 0 to n - 1 do
      let p = P.get ps k in
      AA.move aa ps k p;
      AA.update aa k;
      AB.move ab p;
      AB.update ab k
    done;
    if aa_snap () <> aa0 || ab_snap () <> ab0 then ok := false;
    !ok
end

module Aos64 = Aos_check (Precision.F64)
module Aos32 = Aos_check (Precision.F32)

let aos_lattices =
  [|
    Lattice.orthorhombic 5.1 11.3 6.7;
    Lattice.open_cell;
    Lattice.general
      [|
        Vec3.make 4.2 0. 0.;
        Vec3.make (-2.1) (4.2 *. sqrt 3. /. 2.) 0.;
        Vec3.make 0.3 0. 6.7;
      |];
  |]

let prop_aos_rows_equal_oracle =
  QCheck.Test.make ~name:"AoS rows equal the oracle bit for bit" ~count:24
    QCheck.(
      quad (int_range 0 2) bool (oneofl [ 1; 7; 48; 65 ]) (int_range 1 10000))
    (fun (li, f32, n, seed) ->
      let lattice = aos_lattices.(li) in
      if f32 then Aos32.run ~lattice ~n ~seed else Aos64.run ~lattice ~n ~seed)

let test_store_evaluate_is_move () =
  Array.iteri
    (fun li lattice ->
      List.iter
        (fun n ->
          check_bool
            (Printf.sprintf "f64 lattice %d n %d" li n)
            true
            (Aos64.evaluate_is_move ~lattice ~n ~seed:(11 + n));
          check_bool
            (Printf.sprintf "f32 lattice %d n %d" li n)
            true
            (Aos32.evaluate_is_move ~lattice ~n ~seed:(11 + n)))
        [ 1; 7; 48; 65 ])
    aos_lattices

let prop_aa_symmetry =
  QCheck.Test.make ~name:"AA distances symmetric" ~count:30
    QCheck.(int_range 1 10000)
    (fun seed ->
      let lattice = Lattice.cubic 5. in
      let ps, _ = random_ps ~lattice ~seed 8 in
      let t = AAsoa.create ps in
      AAsoa.evaluate t ps;
      let ok = ref true in
      for i = 0 to 7 do
        for j = 0 to 7 do
          if i <> j then begin
            if abs_float (AAsoa.dist t i j -. AAsoa.dist t j i) > 1e-9 then
              ok := false;
            (* dr(i,j) = −dr(j,i) *)
            if
              not
                (Vec3.equal ~tol:1e-9 (AAsoa.displ t i j)
                   (Vec3.neg (AAsoa.displ t j i)))
            then ok := false
          end
        done
      done;
      !ok)

let prop_dist_below_ws_diameter =
  QCheck.Test.make ~name:"min image dist bounded" ~count:50
    QCheck.(int_range 1 10000)
    (fun seed ->
      let lattice = Lattice.cubic 5. in
      let ps, _ = random_ps ~lattice ~seed 6 in
      let t = AAsoa.create ps in
      AAsoa.evaluate t ps;
      let ok = ref true in
      let dmax = 0.5 *. 5. *. sqrt 3. +. 1e-9 in
      for i = 0 to 5 do
        for j = 0 to 5 do
          if i <> j && AAsoa.dist t i j > dmax then ok := false
        done
      done;
      !ok)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "particle"
    [
      ( "lattice",
        [
          Alcotest.test_case "frac roundtrip" `Quick test_lattice_frac_roundtrip;
          Alcotest.test_case "general roundtrip" `Quick
            test_lattice_general_roundtrip;
          Alcotest.test_case "min image ortho" `Quick test_min_image_ortho;
          Alcotest.test_case "general matches ortho" `Quick
            test_min_image_general_matches_ortho;
          Alcotest.test_case "min image shortest" `Quick test_min_image_shortest;
          Alcotest.test_case "wigner-seitz" `Quick test_wigner_seitz;
          Alcotest.test_case "wrap position" `Quick test_wrap_position;
        ] );
      ( "particle_set",
        [
          Alcotest.test_case "species" `Quick test_ps_species;
          Alcotest.test_case "move protocol" `Quick test_ps_move_protocol;
          Alcotest.test_case "walker roundtrip" `Quick test_ps_walker_roundtrip;
          Alcotest.test_case "accept requires active" `Quick
            test_ps_accept_requires_active;
        ] );
      ("walker", [ Alcotest.test_case "copy" `Quick test_walker_copy ]);
      ( "distance_tables",
        [
          Alcotest.test_case "AA layouts agree" `Quick test_aa_tables_agree;
          Alcotest.test_case "AA move/accept cycle" `Quick
            test_aa_move_accept_cycle;
          Alcotest.test_case "AA row fresh on move" `Quick
            test_aa_soa_row_fresh_on_move;
          Alcotest.test_case "AB layouts agree" `Quick test_ab_tables_agree;
          Alcotest.test_case "AB move/accept" `Quick test_ab_move_accept;
          Alcotest.test_case "f32 rows drift bounded" `Quick
            test_dt_f32_drift_bounded;
          Alcotest.test_case "general lattice" `Quick
            test_tables_general_lattice;
          Alcotest.test_case "memory scaling" `Quick test_aa_memory_scaling;
          Alcotest.test_case "forward sweep invariant" `Quick
            test_forward_table_sweep_invariant;
          Alcotest.test_case "forward matches soa" `Quick
            test_forward_matches_other_layouts;
          Alcotest.test_case "AA batch bit-identical" `Quick
            test_aa_soa_batch_identity;
          Alcotest.test_case "AB batch bit-identical" `Quick
            test_ab_soa_batch_identity;
          Alcotest.test_case "Store evaluate equals Store move" `Quick
            test_store_evaluate_is_move;
          Alcotest.test_case "forward batch bit-identical" `Quick
            test_aa_forward_batch_identity;
        ] );
      ( "properties",
        qt
          [
            prop_aa_symmetry;
            prop_dist_below_ws_diameter;
            prop_soa_rows_equal_oracle;
            prop_aos_rows_equal_oracle;
          ] );
    ]
