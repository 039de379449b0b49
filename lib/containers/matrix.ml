(* Dense row-major matrices over a fixed storage precision.

   Rows can carry SIMD padding (leading dimension [ld >= cols]) so that
   row-streaming kernels — distance-table rows, the inverse-matrix rows of
   the determinant update — enjoy the same aligned unit-stride access as
   the SoA position container. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)

  (* The determinant kernels (lib/linalg/det_kernels_stubs.c) read the
     fields by index: keep the order in step with them. *)
  type t = { data : A.t; rows : int; cols : int; ld : int }

  let create ?(padded = false) rows cols =
    if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative size";
    let ld = if padded then A.padded_len (max cols 1) else max cols 0 in
    { data = A.create (rows * ld); rows; cols; ld }

  let rows t = t.rows
  let cols t = t.cols
  let ld t = t.ld
  let data t = t.data

  let get t i j = A.get t.data ((i * t.ld) + j)
  let set t i j v = A.set t.data ((i * t.ld) + j) v
  let unsafe_get t i j = A.unsafe_get t.data ((i * t.ld) + j)
  let unsafe_set t i j v = A.unsafe_set t.data ((i * t.ld) + j) v

  let row t i = A.sub t.data ~pos:(i * t.ld) ~len:t.ld

  let fill t v = A.fill t.data v

  let copy t = { t with data = A.copy t.data }

  let blit ~src ~dst =
    if src.rows <> dst.rows || src.cols <> dst.cols || src.ld <> dst.ld then
      invalid_arg "Matrix.blit: shape mismatch";
    A.blit ~src:src.data ~dst:dst.data

  let init ?padded rows cols f =
    let t = create ?padded rows cols in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        set t i j (f i j)
      done
    done;
    t

  let of_arrays xss =
    let rows = Array.length xss in
    let cols = if rows = 0 then 0 else Array.length xss.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Matrix.of_arrays: ragged rows")
      xss;
    init rows cols (fun i j -> xss.(i).(j))

  let to_arrays t =
    Array.init t.rows (fun i -> Array.init t.cols (fun j -> get t i j))

  let transpose t = init ?padded:None t.cols t.rows (fun i j -> get t j i)

  let identity n = init n n (fun i j -> if i = j then 1. else 0.)

  let map2_inplace f ~src ~dst =
    if src.rows <> dst.rows || src.cols <> dst.cols then
      invalid_arg "Matrix.map2_inplace: shape mismatch";
    for i = 0 to dst.rows - 1 do
      for j = 0 to dst.cols - 1 do
        unsafe_set dst i j (f (unsafe_get dst i j) (unsafe_get src i j))
      done
    done

  let max_abs_diff a b =
    if a.rows <> b.rows || a.cols <> b.cols then
      invalid_arg "Matrix.max_abs_diff: shape mismatch";
    let m = ref 0. in
    for i = 0 to a.rows - 1 do
      for j = 0 to a.cols - 1 do
        m := Float.max !m (abs_float (unsafe_get a i j -. unsafe_get b i j))
      done
    done;
    !m

  let bytes t = A.bytes t.data

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    for i = 0 to t.rows - 1 do
      Format.fprintf ppf "@[<h>";
      for j = 0 to t.cols - 1 do
        Format.fprintf ppf "%10.5g " (get t i j)
      done;
      Format.fprintf ppf "@]@,"
    done;
    Format.fprintf ppf "@]"
end
