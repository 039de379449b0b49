(* VectorSoaContainer<T,3>: the transposed, padded companion of Pos_aos.

   One backing allocation holds three contiguous component rows of padded
   stride Nᵖ: [x0..x(Nᵖ-1) | y0.. | z0..].  Kernels stream each component
   row with unit stride, which is what makes the compiler-vectorized loops
   of the paper (and the tight float loops here) fast.  The container
   supports in-place AoS-to-SoA assignment (the extra copy performed by
   loadWalker in the optimized code) and single-particle updates (the only
   write on an accepted move: 6 scalars across R and Rsoa). *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module Aos = Pos_aos.Make (R)

  type t = { data : A.t; n : int; stride : int }

  let create n =
    if n < 0 then invalid_arg "Vsc.create: negative size";
    let stride = A.padded_len (max n 1) in
    { data = A.create (3 * stride); n; stride }

  let length t = t.n
  let stride t = t.stride
  let data t = t.data

  (* Component rows as shared-storage slices: unit-stride views used by the
     distance kernels. *)
  let xs t = A.sub t.data ~pos:0 ~len:t.stride
  let ys t = A.sub t.data ~pos:t.stride ~len:t.stride
  let zs t = A.sub t.data ~pos:(2 * t.stride) ~len:t.stride

  let get t i =
    Vec3.make (A.get t.data i)
      (A.get t.data (t.stride + i))
      (A.get t.data ((2 * t.stride) + i))

  let set t i (v : Vec3.t) =
    A.set t.data i v.Vec3.x;
    A.set t.data (t.stride + i) v.Vec3.y;
    A.set t.data ((2 * t.stride) + i) v.Vec3.z

  let unsafe_x t i = A.unsafe_get t.data i
  let unsafe_y t i = A.unsafe_get t.data (t.stride + i)
  let unsafe_z t i = A.unsafe_get t.data ((2 * t.stride) + i)

  (* AoS-to-SoA assignment: Rsoa = awalker.R in loadWalker.  Each
     component row is one strided gather, storage to storage, so no
     coordinate crosses the functor boxed. *)
  let assign_from_aos t (aos : Aos.t) =
    if Aos.length aos <> t.n then
      invalid_arg "Vsc.assign_from_aos: size mismatch";
    let src = Aos.data aos in
    for c = 0 to 2 do
      A.copy_strided ~src ~spos:c ~stride:3 ~dst:t.data ~dpos:(c * t.stride)
        ~n:t.n
    done

  let to_aos t =
    let aos = Aos.create t.n in
    for i = 0 to t.n - 1 do
      Aos.set aos i (get t i)
    done;
    aos

  let copy t = { data = A.copy t.data; n = t.n; stride = t.stride }

  let of_vec3s vs =
    let t = create (Array.length vs) in
    Array.iteri (fun i v -> set t i v) vs;
    t

  let iteri f t =
    for i = 0 to t.n - 1 do
      f i (get t i)
    done

  let bytes t = A.bytes t.data
end
