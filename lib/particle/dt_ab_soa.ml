open Oqmc_containers

(* Electron-ion (AB) distance table, optimized (Current) design.

   One padded, SIMD-aligned row of ion distances and displacement
   components per electron, computed by streaming the fixed ions' SoA
   container.  Ions never move, so rows depend only on their own electron:
   a move fills the temporary row and acceptance is one contiguous row
   copy — no column updates exist for AB tables.  Rows come from the one
   C row kernel ([Dt_kernels.soa_rows]), which reads the ion positions in
   place.

   [R] is the walker/positions precision, [D] the table storage precision
   (the [precision_dt] knob); see Dt_aa_soa. *)

module Make (R : Precision.REAL) (D : Precision.REAL) = struct
  module A = Aligned.Make (D)
  module M = Matrix.Make (D)
  module Ps = Particle_set.Make (R)
  module K = Dt_kernels.Make (R) (D)

  type t = {
    n : int; (* electrons (targets, rows) *)
    n_src : int; (* ions (sources, columns) *)
    d : M.t;
    dx : M.t;
    dy : M.t;
    dz : M.t;
    temp_d : A.t;
    temp_dx : A.t;
    temp_dy : A.t;
    temp_dz : A.t;
    g : K.single; (* kernel slot bound to the ions; also the crowd slot *)
  }

  (* Ions never move: the kernel slot is bound to their positions once,
     here. *)
  let create ~(sources : Ps.t) (targets : Ps.t) =
    let n = Ps.n targets and n_src = Ps.n sources in
    let mk () = M.create ~padded:true n n_src in
    let np = M.ld (mk ()) in
    let g = K.make_single (Ps.lattice targets) in
    let soa = Ps.soa sources in
    K.bind g.K.slot ~xs:(Ps.Vs.xs soa) ~ys:(Ps.Vs.ys soa) ~zs:(Ps.Vs.zs soa)
      ~n:n_src;
    {
      n;
      n_src;
      d = mk ();
      dx = mk ();
      dy = mk ();
      dz = mk ();
      temp_d = A.create np;
      temp_dx = A.create np;
      temp_dy = A.create np;
      temp_dz = A.create np;
      g;
    }

  let n t = t.n
  let n_sources t = t.n_src

  (* Each electron's coordinates land in the slot's query cells without
     a boxed [Vec3]: a restore rebuilds this table for every walker. *)
  let evaluate t ps =
    let g = t.g in
    let r = Ps.Aos.data (Ps.aos ps) in
    for k = 0 to t.n - 1 do
      Ps.Aos.A.get_into r (3 * k) g.K.qx 0;
      Ps.Aos.A.get_into r ((3 * k) + 1) g.K.qy 0;
      Ps.Aos.A.get_into r ((3 * k) + 2) g.K.qz 0;
      K.aim g.K.slot ~od:(M.data t.d) ~odx:(M.data t.dx) ~ody:(M.data t.dy)
        ~odz:(M.data t.dz) ~o:(k * M.ld t.d) ~self:(-1);
      K.single_row g
    done

  let move t (newpos : Vec3.t) =
    let g = t.g in
    g.K.qx.(0) <- newpos.Vec3.x;
    g.K.qy.(0) <- newpos.Vec3.y;
    g.K.qz.(0) <- newpos.Vec3.z;
    K.aim g.K.slot ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy ~odz:t.temp_dz
      ~o:0 ~self:(-1);
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

  let displ t k i =
    Vec3.make (M.get t.dx k i) (M.get t.dy k i) (M.get t.dz k i)

  let row_dist t k = M.row t.d k
  let row_dx t k = M.row t.dx k
  let row_dy t k = M.row t.dy k
  let row_dz t k = M.row t.dz k

  let temp_dist t = t.temp_d
  let temp_dx t = t.temp_dx
  let temp_dy t = t.temp_dy
  let temp_dz t = t.temp_dz

  (* Offset-based access to the backing storage (see Dt_aa_soa). *)
  let dist_data t = M.data t.d
  let dx_data t = M.data t.dx
  let dy_data t = M.data t.dy
  let dz_data t = M.data t.dz
  let row_stride t = M.ld t.d

  (* ------------------- crowd batch context ------------------- *)

  (* Batched [move]/[accept] over a crowd (ions never move, so there is
     no prepare stage); each table's own kernel slot is its crowd slot.
     Zero allocation per call; bit-identical rows. *)
  type batch = {
    btabs : t array;
    bslots : K.row_slot array;
  }

  let make_batch (tabs : t array) =
    if Array.length tabs < 1 then invalid_arg "Dt_ab_soa.make_batch: empty crowd";
    {
      btabs = tabs;
      bslots = Array.map (fun t -> t.g.K.slot) tabs;
    }

  let batch_cap b = Array.length b.btabs

  let move_batch b ~(px : float array) ~(py : float array)
      ~(pz : float array) ~m =
    for s = 0 to m - 1 do
      let t = b.btabs.(s) in
      K.aim b.bslots.(s) ~od:t.temp_d ~odx:t.temp_dx ~ody:t.temp_dy
        ~odz:t.temp_dz ~o:0 ~self:(-1)
    done;
    K.soa_rows ~slots:b.bslots ~px ~py ~pz ~m

  let accept_batch b ~k ~(acc : bool array) ~m =
    for s = 0 to m - 1 do
      if acc.(s) then accept b.btabs.(s) k
    done

  let bytes t =
    M.bytes t.d + M.bytes t.dx + M.bytes t.dy + M.bytes t.dz
    + A.bytes t.temp_d + A.bytes t.temp_dx + A.bytes t.temp_dy
    + A.bytes t.temp_dz
end
