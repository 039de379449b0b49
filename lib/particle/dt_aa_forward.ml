open Oqmc_containers

(* Electron-electron (AA) distance table, forward-update design — the
   intermediate scheme of Fig. 6(b) BEFORE the column updates were removed
   by compute-on-the-fly (Sec. 7.4).

   Full padded N × Nᵖ rows as in the Current table, but maintained
   incrementally: accepting the move of electron k copies the temporary
   row into row k (contiguous) and updates column k of the LATER rows
   only (k' > k, strided by Nᵖ) — "leaving the number of copy operations
   unchanged" relative to the packed Ref update while making every read
   unit-stride.

   Invariant: within an ordered particle-by-particle sweep, the pair
   (i, j) is current when read from the row of the LARGER index, which is
   exactly how the sweep (row k reads j < k freshly column-updated) and
   the measurement stage (upper-triangle reads) consume it.  Entries
   (k, j > k) of row k may be one sweep stale — the paper notes "leaving
   U untouched or partially updated as the upper triangle is not used".
   Consumers that need globally fresh rows call [evaluate]. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)
  module Ps = Particle_set.Make (R)
  module K = Dt_kernels.Make (R) (R)

  type t = {
    n : int;
    d : M.t;
    dx : M.t;
    dy : M.t;
    dz : M.t;
    temp_d : A.t;
    temp_dx : A.t;
    temp_dy : A.t;
    temp_dz : A.t;
    mutable src : Ps.Vs.t; (* the SoA positions [g] is bound to *)
    g : K.single; (* kernel slot, also this table's crowd-batch slot *)
  }

  let bind t ps =
    let soa = Ps.soa ps in
    t.src <- soa;
    K.bind t.g.K.slot ~xs:(Ps.Vs.xs soa) ~ys:(Ps.Vs.ys soa)
      ~zs:(Ps.Vs.zs soa) ~n:t.n

  let create (ps : Ps.t) =
    let n = Ps.n ps in
    let mk () = M.create ~padded:true n n in
    let np = M.ld (mk ()) in
    let t =
      {
        n;
        d = mk ();
        dx = mk ();
        dy = mk ();
        dz = mk ();
        temp_d = A.create np;
        temp_dx = A.create np;
        temp_dy = A.create np;
        temp_dz = A.create np;
        src = Ps.soa ps;
        g = K.make_single (Ps.lattice ps);
      }
    in
    bind t ps;
    t

  let n t = t.n

  let rebind t ps = if Ps.soa ps != t.src then bind t ps

  (* Every row at its electron's current position. *)
  let evaluate t ps =
    rebind t ps;
    let g = t.g in
    for k = 0 to t.n - 1 do
      K.query_source g k;
      K.aim g.K.slot ~od:(M.data t.d) ~odx:(M.data t.dx) ~ody:(M.data t.dy)
        ~odz:(M.data t.dz) ~o:(k * M.ld t.d) ~self:k;
      K.single_row g
    done

  let move t ps k (newpos : Vec3.t) =
    rebind t ps;
    let g = t.g in
    g.K.qx.(0) <- newpos.Vec3.x;
    g.K.qy.(0) <- newpos.Vec3.y;
    g.K.qz.(0) <- newpos.Vec3.z;
    K.aim g.K.slot ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy ~odz:t.temp_dz
      ~o:0 ~self:k;
    K.single_row g

  (* Forward update: contiguous row copy + strided column writes for the
     later rows only. *)
  let update t k =
    A.blit ~src:t.temp_d ~dst:(M.row t.d k);
    A.blit ~src:t.temp_dx ~dst:(M.row t.dx k);
    A.blit ~src:t.temp_dy ~dst:(M.row t.dy k);
    A.blit ~src:t.temp_dz ~dst:(M.row t.dz k);
    for i = k + 1 to t.n - 1 do
      (* dr(i,k) = −dr(k,i). *)
      M.unsafe_set t.d i k (A.unsafe_get t.temp_d i);
      M.unsafe_set t.dx i k (-.A.unsafe_get t.temp_dx i);
      M.unsafe_set t.dy i k (-.A.unsafe_get t.temp_dy i);
      M.unsafe_set t.dz i k (-.A.unsafe_get t.temp_dz i)
    done

  (* ------------------- crowd batch context ------------------- *)

  (* Batched forward-update: [move] for every crowd slot in one flat-array
     pass, and the accept-time row copy + k' > k column updates per
     accepted slot.  Per-slot arithmetic is exactly the scalar path's. *)
  type batch = {
    btabs : t array;
    bslots : K.row_slot array;
  }

  let make_batch (pairs : (t * Ps.t) array) =
    if Array.length pairs < 1 then
      invalid_arg "Dt_aa_forward.make_batch: empty crowd";
    let slots =
      Array.map
        (fun ((t : t), ps) ->
          if Ps.n ps <> t.n then
            invalid_arg "Dt_aa_forward.make_batch: table/set size mismatch";
          if Ps.soa ps != t.src then bind t ps;
          t.g.K.slot)
        pairs
    in
    { btabs = Array.map fst pairs; bslots = slots }

  let move_batch b ~k ~(px : float array) ~(py : float array)
      ~(pz : float array) ~m =
    for s = 0 to m - 1 do
      let t = b.btabs.(s) in
      K.aim b.bslots.(s) ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy
        ~odz:t.temp_dz ~o:0 ~self:k
    done;
    K.soa_rows ~slots:b.bslots ~px ~py ~pz ~m

  let update_batch b ~k ~(acc : bool array) ~m =
    for s = 0 to m - 1 do
      if acc.(s) then begin
        let t = b.btabs.(s) in
        let ld = M.ld t.d in
        let o = k * ld in
        let dd = M.data t.d and dxd = M.data t.dx in
        let dyd = M.data t.dy and dzd = M.data t.dz in
        let td = t.temp_d and tx = t.temp_dx in
        let ty = t.temp_dy and tz = t.temp_dz in
        for i = 0 to ld - 1 do
          A.unsafe_set dd (o + i) (A.unsafe_get td i);
          A.unsafe_set dxd (o + i) (A.unsafe_get tx i);
          A.unsafe_set dyd (o + i) (A.unsafe_get ty i);
          A.unsafe_set dzd (o + i) (A.unsafe_get tz i)
        done;
        for i = k + 1 to t.n - 1 do
          let p = (i * ld) + k in
          A.unsafe_set dd p (A.unsafe_get td i);
          A.unsafe_set dxd p (-.A.unsafe_get tx i);
          A.unsafe_set dyd p (-.A.unsafe_get ty i);
          A.unsafe_set dzd p (-.A.unsafe_get tz i)
        done
      end
    done

  (* Pair read from the larger row — the invariant-safe accessor. *)
  let dist t i j = if i >= j then M.get t.d i j else M.get t.d j i

  (* dr(i→j) = r_j − r_i, read from the larger (current) row: row i entry
     j stores r_j − r_i directly; row j entry i stores the negation. *)
  let displ t i j =
    if i = j then Vec3.zero
    else if i > j then
      Vec3.make (M.get t.dx i j) (M.get t.dy i j) (M.get t.dz i j)
    else
      Vec3.neg (Vec3.make (M.get t.dx j i) (M.get t.dy j i) (M.get t.dz j i))

  let row_dist t k = M.row t.d k
  let temp_dist t = t.temp_d

  let bytes t =
    M.bytes t.d + M.bytes t.dx + M.bytes t.dy + M.bytes t.dz
    + A.bytes t.temp_d + A.bytes t.temp_dx + A.bytes t.temp_dy
    + A.bytes t.temp_dz
end
