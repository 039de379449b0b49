open Oqmc_containers

(* Electron-electron (AA) distance table, optimized (Current) design.

   Full N × Nᵖ row storage (Fig. 6b): each padded row k holds d(k,i) and
   dr(k,i) = r_i − r_k with unit stride and SIMD alignment, roughly
   doubling memory versus the packed triangle but enabling contiguous
   streaming in every kernel.

   Compute-on-the-fly update policy (Sec. 7.5): before electron k moves,
   [prepare] recomputes row k from the current positions — eliminating the
   strided column updates of the forward-update intermediate — and [move]
   fills the temporary row v for the proposed position.  [accept] is a
   single contiguous row copy.  Every row goes through the one C row
   kernel ([Dt_kernels.soa_rows]), which reads the positions in place
   and writes straight into the table, so none of these calls
   allocates.  Rows of electrons that have not yet moved in the current
   sweep may be stale in between; [evaluate] refreshes the whole table
   before measurements (it is reused by the Hamiltonian, so the O(N²)
   storage is retained).

   [R] is the walker/positions precision, [D] the table storage precision
   (the [precision_dt] knob): rows and temporaries narrow through [D]
   while every distance is computed in double from the R-precision
   positions and only rounded at the row commit. *)

module Make (R : Precision.REAL) (D : Precision.REAL) = struct
  module A = Aligned.Make (D)
  module M = Matrix.Make (D)
  module Ps = Particle_set.Make (R)
  module K = Dt_kernels.Make (R) (D)

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

  (* Rebind the kernel slot when [ps] is not the set the table was built
     on. *)
  let rebind t ps = if Ps.soa ps != t.src then bind t ps

  (* Row [k] at electron [k]'s current position, self entry exact zeros
     so consumers can guard on i = k cheaply. *)
  let refresh_row t k =
    let g = t.g in
    K.query_source g k;
    K.aim g.K.slot ~od:(M.data t.d) ~odx:(M.data t.dx) ~ody:(M.data t.dy)
      ~odz:(M.data t.dz) ~o:(k * M.ld t.d) ~self:k;
    K.single_row g

  let evaluate t ps =
    rebind t ps;
    for k = 0 to t.n - 1 do
      refresh_row t k
    done

  (* Compute-on-the-fly step 1: refresh row k at the current position
     (called before gradients/ratios of electron k are needed, replacing
     the column updates of the forward-update scheme). *)
  let prepare t ps k =
    rebind t ps;
    refresh_row t k

  (* Step 2: fill the temporary row against the proposed position. *)
  let move t ps k (newpos : Vec3.t) =
    rebind t ps;
    let g = t.g in
    g.K.qx.(0) <- newpos.Vec3.x;
    g.K.qy.(0) <- newpos.Vec3.y;
    g.K.qz.(0) <- newpos.Vec3.z;
    K.aim g.K.slot ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy ~odz:t.temp_dz
      ~o:0 ~self:k;
    K.single_row g

  (* Contiguous copy of the whole padded temporary row. *)
  let accept t k =
    let ld = M.ld t.d in
    let o = k * ld in
    A.copy_within ~src:t.temp_d ~spos:0 ~dst:(M.data t.d) ~dpos:o ~n:ld;
    A.copy_within ~src:t.temp_dx ~spos:0 ~dst:(M.data t.dx) ~dpos:o ~n:ld;
    A.copy_within ~src:t.temp_dy ~spos:0 ~dst:(M.data t.dy) ~dpos:o ~n:ld;
    A.copy_within ~src:t.temp_dz ~spos:0 ~dst:(M.data t.dz) ~dpos:o ~n:ld

  let dist t k i = M.get t.d k i

  let displ t k i = Vec3.make (M.get t.dx k i) (M.get t.dy k i) (M.get t.dz k i)

  let row_dist t k = M.row t.d k
  let row_dx t k = M.row t.dx k
  let row_dy t k = M.row t.dy k
  let row_dz t k = M.row t.dz k

  let temp_dist t = t.temp_d
  let temp_dx t = t.temp_dx
  let temp_dy t = t.temp_dy
  let temp_dz t = t.temp_dz

  (* Backing storage + row stride, for offset-based reads that avoid the
     bigarray-proxy allocation of [row_*] in hot loops (all four matrices
     share one stride). *)
  let dist_data t = M.data t.d
  let dx_data t = M.data t.dx
  let dy_data t = M.data t.dy
  let dz_data t = M.data t.dz
  let row_stride t = M.ld t.d

  (* ------------------- crowd batch context ------------------- *)

  (* [prepare]/[move]/[accept] over every slot of a crowd in one batched
     kernel call each.  Each table's own kernel slot serves as its crowd
     slot (every call re-aims it), positions travel in unboxed float
     arrays, so the per-move path allocates nothing.  Per-slot arithmetic
     is exactly the scalar protocol's — rows come out bit-identical. *)
  type batch = {
    btabs : t array;
    bslots : K.row_slot array;
    bpx : float array;
    bpy : float array;
    bpz : float array;
  }

  let make_batch (pairs : (t * Ps.t) array) =
    let m = Array.length pairs in
    if m < 1 then invalid_arg "Dt_aa_soa.make_batch: empty crowd";
    let slots =
      Array.map
        (fun ((t : t), ps) ->
          if Ps.n ps <> t.n then
            invalid_arg "Dt_aa_soa.make_batch: table/set size mismatch";
          if Ps.soa ps != t.src then bind t ps;
          t.g.K.slot)
        pairs
    in
    {
      btabs = Array.map fst pairs;
      bslots = slots;
      bpx = Array.make m 0.;
      bpy = Array.make m 0.;
      bpz = Array.make m 0.;
    }

  let batch_cap b = Array.length b.btabs
  let batch_table b s = b.btabs.(s)

  (* Refresh row [k] of every slot's table at its current position (read
     from the SoA container, which holds the same rounded values as the
     AoS side). *)
  let prepare_batch b ~k ~m =
    for s = 0 to m - 1 do
      let t = b.btabs.(s) and sl = b.bslots.(s) in
      K.As.get_into sl.K.xs k b.bpx s;
      K.As.get_into sl.K.ys k b.bpy s;
      K.As.get_into sl.K.zs k b.bpz s;
      K.aim sl ~od:(M.data t.d) ~odx:(M.data t.dx) ~ody:(M.data t.dy)
        ~odz:(M.data t.dz) ~o:(k * M.ld t.d) ~self:k
    done;
    K.soa_rows ~slots:b.bslots ~px:b.bpx ~py:b.bpy ~pz:b.bpz ~m

  (* Fill every slot's temporary row against its proposed position. *)
  let move_batch b ~k ~(px : float array) ~(py : float array)
      ~(pz : float array) ~m =
    for s = 0 to m - 1 do
      let t = b.btabs.(s) in
      K.aim b.bslots.(s) ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy
        ~odz:t.temp_dz ~o:0 ~self:k
    done;
    K.soa_rows ~slots:b.bslots ~px ~py ~pz ~m

  (* Commit the temporary row of every accepted slot. *)
  let accept_batch b ~k ~(acc : bool array) ~m =
    for s = 0 to m - 1 do
      if acc.(s) then accept b.btabs.(s) k
    done

  let bytes t =
    M.bytes t.d + M.bytes t.dx + M.bytes t.dy + M.bytes t.dz
    + A.bytes t.temp_d + A.bytes t.temp_dx + A.bytes t.temp_dy
    + A.bytes t.temp_dz
end
