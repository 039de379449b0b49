open Oqmc_containers

(* Row kernels shared by the distance tables: distances and displacement
   vectors from one point to every particle of a set, in both layouts.

   These loops ARE the paper's DistTable hot spot.  The SoA kernel streams
   three unit-stride component rows; the AoS kernel walks the interleaved
   x y z groups with stride 3 — the access pattern whose poor
   vectorizability motivated the transformation.  Both run in C
   (dt_kernels_stubs.c, built -O3 -march=native -ffp-contract=off
   -fno-math-errno), so the two layouts are compared in the same
   language: the SoA loop vectorizes, the AoS one is what the compiler
   makes of stride 3.  The C reads the source bigarrays in place, does
   all arithmetic in double and writes the narrowed rows straight into
   the target storage; no call allocates.

   There is one SoA entry point, [soa_rows]: it serves the crowd batches
   and, through a one-slot [single] each table owns, every scalar
   [evaluate]/[prepare]/[move] as well.  [aos_row] is the Ref layout's,
   used by the Store tables' [move] and by their [evaluate] rebuilds, and
   [aos_scatter] is the AA Store table's accept.
   The per-element OCaml loops these replaced are the bit-for-bit test
   oracles ([test/dt_oracle.ml]).

   The orthorhombic minimum-image branch is hoisted out of the loops.
   General (non-orthorhombic) cells have no C path: they keep an OCaml
   branch here, which builds a [Vec3] per element.  No workload builds
   such a cell; the tests do.

   Two precisions parameterize the kernels: [S] is the source precision
   (the particle-set component rows being read) and [O] the output
   precision (the distance/displacement rows being written) — the
   [precision_dt] knob narrows O to f32 while positions stay at the
   walker precision.  Narrowing happens only at the store, exactly like
   a per-element f32 store. *)

module Make (S : Precision.REAL) (O : Precision.REAL) = struct
  module As = Aligned.Make (S)
  module A = Aligned.Make (O)

  (* The orthorhombic extents the C kernels read, or [||] (open cell,
     and the General cells that never reach C). *)
  let box_of lattice =
    match Lattice.kind lattice with
    | Lattice.Ortho (lx, ly, lz) -> [| lx; ly; lz |]
    | Lattice.Open | Lattice.General -> [||]

  let is_general lattice =
    match Lattice.kind lattice with Lattice.General -> true | _ -> false

  let check ok what = if not ok then invalid_arg ("Dt_kernels: " ^ what)

  (* ------------------------------ SoA row ------------------------------ *)

  (* One retargetable slot of the kernel: sources (a SoA component
     triple of [n] particles), an output base array per component and a
     common element offset, so the same slot can aim at matrix row k on
     one call and at the temporary row on the next without allocating
     row proxies.  The C stub reads the fields by index: keep the order
     of the first eleven in step with dt_kernels_stubs.c. *)
  type row_slot = {
    mutable xs : As.t;
    mutable ys : As.t;
    mutable zs : As.t;
    mutable n : int;
    mutable od : A.t; (* distance output *)
    mutable odx : A.t;
    mutable ody : A.t;
    mutable odz : A.t;
    mutable o : int; (* common output offset (row base) *)
    mutable self : int; (* entry written as exact zeros, or -1 *)
    box : float array; (* [box_of lattice] *)
    lattice : Lattice.t;
  }

  let make_row_slot lattice =
    let es = As.create 0 in
    let e = A.create 0 in
    {
      xs = es;
      ys = es;
      zs = es;
      n = 0;
      od = e;
      odx = e;
      ody = e;
      odz = e;
      o = 0;
      self = -1;
      box = box_of lattice;
      lattice;
    }

  (* Point the slot at [n] sources.  The component views are bigarray
     proxies, so tables bind once at creation (and when handed another
     particle set), never per call. *)
  let bind sl ~xs ~ys ~zs ~n =
    check
      (n >= 0
      && As.length xs >= n
      && As.length ys >= n
      && As.length zs >= n)
      "bind: sources shorter than n";
    sl.xs <- xs;
    sl.ys <- ys;
    sl.zs <- zs;
    sl.n <- n

  (* Aim the slot's output at offset [o] of four arrays; entry [self]
     (when >= 0) is committed as exact zeros. *)
  let aim sl ~od ~odx ~ody ~odz ~o ~self =
    let e = o + sl.n in
    check
      (o >= 0 && self < sl.n
      && A.length od >= e
      && A.length odx >= e
      && A.length ody >= e
      && A.length odz >= e)
      "aim: output shorter than the row";
    sl.od <- od;
    sl.odx <- odx;
    sl.ody <- ody;
    sl.odz <- odz;
    sl.o <- o;
    sl.self <- self

  external c_soa_rows :
    row_slot array -> float array -> float array -> float array -> int ->
    unit = "oqmc_dt_soa_rows"
  [@@noalloc]

  (* The General fallback: per element through [Lattice.min_image_disp]. *)
  let general_row sl ~px ~py ~pz =
    let p = Vec3.make px py pz in
    for i = 0 to sl.n - 1 do
      let ri =
        Vec3.make (As.unsafe_get sl.xs i) (As.unsafe_get sl.ys i)
          (As.unsafe_get sl.zs i)
      in
      let dr = Lattice.min_image_disp sl.lattice (Vec3.sub ri p) in
      let j = sl.o + i in
      let self = i = sl.self in
      A.unsafe_set sl.odx j (if self then 0. else dr.Vec3.x);
      A.unsafe_set sl.ody j (if self then 0. else dr.Vec3.y);
      A.unsafe_set sl.odz j (if self then 0. else dr.Vec3.z);
      A.unsafe_set sl.od j (if self then 0. else Vec3.norm dr)
    done

  (* dr(p_s, i) = r_i − p_s, minimum image, for the [n] sources of each
     of the first [m] slots, into each slot's aimed rows, entry [self]
     as exact zeros.  The slots of one call share a cell. *)
  let soa_rows ~(slots : row_slot array) ~(px : float array)
      ~(py : float array) ~(pz : float array) ~m =
    check
      (m <= Array.length slots
      && m <= Array.length px
      && m <= Array.length py
      && m <= Array.length pz)
      "soa_rows: more slots than arrays";
    if m > 0 then
      if is_general slots.(0).lattice then
        for s = 0 to m - 1 do
          general_row slots.(s) ~px:px.(s) ~py:py.(s) ~pz:pz.(s)
        done
      else c_soa_rows slots px py pz m

  (* The scalar tables' entry point: [soa_rows] over one slot with its
     own position cells.  Callers store the point in [qx.(0)], [qy.(0)],
     [qz.(0)] (a float argument would be boxed), [aim] the slot and call
     [single_row]. *)
  type single = {
    slot : row_slot;
    one : row_slot array;
    qx : float array;
    qy : float array;
    qz : float array;
  }

  let make_single lattice =
    let sl = make_row_slot lattice in
    { slot = sl; one = [| sl |]; qx = [| 0. |]; qy = [| 0. |]; qz = [| 0. |] }

  let single_row g = soa_rows ~slots:g.one ~px:g.qx ~py:g.qy ~pz:g.qz ~m:1

  (* Point the single's query cells at source [k] of its own slot. *)
  let query_source g k =
    let sl = g.slot in
    As.get_into sl.xs k g.qx 0;
    As.get_into sl.ys k g.qy 0;
    As.get_into sl.zs k g.qz 0

  (* ------------------------------ AoS row ------------------------------ *)

  (* The same relation over an interleaved AoS source of [an]
     particles; displacements are written interleaved as well (the Ref
     storage format): distances at offset [ao] of [d], displacements at
     offset [3 ao] of [dr], negated when [neg] (the Store triangle holds
     r_j − r_i where the row computes r_i − r_j).  The C stub reads the
     fields by index: keep the order of the first seven in step with
     dt_kernels_stubs.c.  Callers store the point in [q] (a float
     argument would be boxed). *)
  type aos_slot = {
    mutable src : As.t;
    mutable an : int;
    mutable d : A.t;
    mutable dr : A.t;
    mutable ao : int;
    mutable neg : bool;
    abox : float array; (* [box_of lattice] *)
    alattice : Lattice.t;
    q : float array; (* the point: x, y, z *)
  }

  let make_aos_slot lattice =
    let e = A.create 0 in
    {
      src = As.create 0;
      an = 0;
      d = e;
      dr = e;
      ao = 0;
      neg = false;
      abox = box_of lattice;
      alattice = lattice;
      q = [| 0.; 0.; 0. |];
    }

  let bind_aos sl ~src ~n =
    check (n >= 0 && As.length src >= 3 * n) "bind_aos: source shorter than n";
    sl.src <- src;
    sl.an <- n

  let aim_aos sl ~d ~dr ~o ~neg =
    check
      (o >= 0 && A.length d >= o + sl.an && A.length dr >= 3 * (o + sl.an))
      "aim_aos: output shorter than the row";
    sl.d <- d;
    sl.dr <- dr;
    sl.ao <- o;
    sl.neg <- neg

  external c_aos_row :
    aos_slot -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    unit = "oqmc_dt_aos_row_byte" "oqmc_dt_aos_row"
  [@@noalloc]

  let general_aos_row sl =
    let p = Vec3.make sl.q.(0) sl.q.(1) sl.q.(2) in
    let sg = if sl.neg then -1. else 1. in
    for i = 0 to sl.an - 1 do
      let b = 3 * i in
      let ri =
        Vec3.make (As.unsafe_get sl.src b)
          (As.unsafe_get sl.src (b + 1))
          (As.unsafe_get sl.src (b + 2))
      in
      let dd = Lattice.min_image_disp sl.alattice (Vec3.sub ri p) in
      let o = 3 * (sl.ao + i) in
      A.unsafe_set sl.dr o (sg *. dd.Vec3.x);
      A.unsafe_set sl.dr (o + 1) (sg *. dd.Vec3.y);
      A.unsafe_set sl.dr (o + 2) (sg *. dd.Vec3.z);
      A.unsafe_set sl.d (sl.ao + i) (Vec3.norm dd)
    done

  (* dr(p, i) = r_i − p, minimum image, for the slot's [an] sources and
     the point p in [q]. *)
  let aos_row sl =
    if is_general sl.alattice then general_aos_row sl
    else c_aos_row sl sl.q.(0) sl.q.(1) sl.q.(2)

  (* ---------------------------- AoS scatter ---------------------------- *)

  external c_aos_scatter : A.t -> A.t -> A.t -> A.t -> int -> unit
    = "oqmc_dt_aos_scatter"
  [@@noalloc]

  (* The Store triangle's accept: entry (i, j), i < j, of the packed
     triangles [d] and [dr] (at j(j−1)/2 + i, displacements interleaved)
     receives the temporary row of electron [k] — [temp_d.(i)] and
     [temp_dr.(3i ..)] for the pairs (k, i), negated where k is the
     column (i < k).  [temp_d]'s length is the particle count. *)
  let aos_scatter ~(d : A.t) ~(dr : A.t) ~(temp_d : A.t) ~(temp_dr : A.t) ~k
      =
    let n = A.length temp_d in
    let len = n * (n - 1) / 2 in
    check
      (k >= 0 && k < n
      && A.length temp_dr >= 3 * n
      && A.length d >= len
      && A.length dr >= 3 * len)
      "aos_scatter: row or triangle out of range";
    c_aos_scatter d dr temp_d temp_dr k

  (* Point [q] at particle [k] of an interleaved AoS source. *)
  let query_aos sl (src : As.t) k =
    As.get_into src (3 * k) sl.q 0;
    As.get_into src ((3 * k) + 1) sl.q 1;
    As.get_into src ((3 * k) + 2) sl.q 2
end
