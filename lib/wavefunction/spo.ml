open Oqmc_containers

(* Single-particle-orbital engine interface (QMCPACK's SPOSet).

   An SPO set evaluates all orbitals — values (the Bspline-v kernel) or
   values, Cartesian gradients and laplacians (the SPO-vgl kernel) — at one
   electron position.  Results land in caller-owned double-precision
   buffers; the storage precision of the backing table is the engine's own
   business.  Engines are runtime values (records of closures) exactly as
   QMCPACK dispatches SPOSet virtually.

   The batched entry points are the crowd-walker path: a batch context
   owns its scratch (one slot per crowd member), so each domain creates
   its own contexts and the shared backing table stays read-only.  Engines
   that have no native batched kernel fall back to a serial loop over the
   scalar evaluator — same results, no amortization. *)

(* The determinant kernels (lib/linalg/det_kernels_stubs.c) read the
   first four fields by index: keep their order. *)
type vgl = {
  v : float array;
  gx : float array;
  gy : float array;
  gz : float array;
  lap : float array;
}

(* A crowd-batch evaluation context: [run positions n] evaluates the
   first [n] positions into [slots.(0..n-1)].  All scratch is owned by
   the context — never share one context between domains. *)
type vgl_batch = {
  cap : int;
  slots : vgl array;
  run : Vec3.t array -> int -> unit;
}

type t = {
  n_orb : int;
  label : string;
  eval_v : Vec3.t -> float array -> unit;
  eval_vgl : Vec3.t -> vgl -> unit;
  make_vgl_batch : int -> vgl_batch;
  bytes : int; (* backing-table storage, shared across walkers/threads *)
}

let make_vgl n =
  {
    v = Array.make n 0.;
    gx = Array.make n 0.;
    gy = Array.make n 0.;
    gz = Array.make n 0.;
    lap = Array.make n 0.;
  }

let grad_of vgl m = Vec3.make vgl.gx.(m) vgl.gy.(m) vgl.gz.(m)

(* Generic fallbacks: loop the scalar evaluator over the batch. *)
let serial_vgl_batch ~n_orb ~eval_vgl cap =
  if cap < 1 then invalid_arg "Spo.serial_vgl_batch: cap < 1";
  let slots = Array.init cap (fun _ -> make_vgl n_orb) in
  {
    cap;
    slots;
    run =
      (fun pos n ->
        for s = 0 to n - 1 do
          eval_vgl pos.(s) slots.(s)
        done);
  }

let make ?make_vgl_batch ~n_orb ~label ~eval_v ~eval_vgl ~bytes () =
  {
    n_orb;
    label;
    eval_v;
    eval_vgl;
    make_vgl_batch =
      (match make_vgl_batch with
      | Some f -> f
      | None -> serial_vgl_batch ~n_orb ~eval_vgl);
    bytes;
  }
