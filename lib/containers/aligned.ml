(* Cache-aligned, padded flat arrays of reals.

   QMCPACK's SoA containers use cache-aligned allocators and pad each row to
   a multiple of the SIMD width so compilers can emit aligned vector loads.
   Bigarrays give us contiguous, unboxed storage outside the OCaml heap; we
   reproduce the padding discipline so that row strides match what the
   performance model counts. *)

let round_up n multiple =
  if multiple <= 0 then invalid_arg "Aligned.round_up: multiple <= 0";
  if n <= 0 then multiple else (n + multiple - 1) / multiple * multiple

module Make (R : Precision.REAL) = struct
  type t = (float, R.elt, Bigarray.c_layout) Bigarray.Array1.t

  let create n : t =
    let a = Bigarray.Array1.create R.kind Bigarray.c_layout n in
    Bigarray.Array1.fill a 0.;
    a

  (* Length padded so a row of [n] logical elements occupies a whole number
     of SIMD vectors at this precision. *)
  let padded_len n = round_up n R.simd_lanes

  let create_padded n = create (padded_len n)
  let length (a : t) = Bigarray.Array1.dim a
  let get (a : t) i = Bigarray.Array1.get a i
  let set (a : t) i v = Bigarray.Array1.set a i (R.round v)

  (* Kind-specialized fast path; see Precision.REAL.get. *)
  let unsafe_get (a : t) i = R.get a i
  let unsafe_set (a : t) i v = R.set a i v

  (* Bulk row staging (see Precision.REAL.read_row): without flambda the
     per-element accessors above box a float on every call through the
     functor boundary, so batched kernels mirror whole rows into plain
     [float array] scratch — one allocation-free call per row — and run
     their inner loops monomorphically on the scratch. *)
  let read_into (a : t) ~pos dst ~n = R.read_row a ~pos dst ~dpos:0 ~n
  let write_from src (a : t) ~pos ~n = R.write_row src ~spos:0 a ~pos ~n

  (* The same row moves with a walker buffer's pool as the other side, at
     its cursor: a whole block of saved state crosses the functor once,
     with no staging copy. *)
  let to_buffer (a : t) ~pos ~n buf =
    let at = Wbuffer.block buf n in
    R.read_row a ~pos (Wbuffer.pool buf) ~dpos:at ~n

  let of_buffer buf (a : t) ~pos ~n =
    let at = Wbuffer.block buf n in
    R.write_row (Wbuffer.pool buf) ~spos:at a ~pos ~n

  let copy_within ~(src : t) ~spos ~(dst : t) ~dpos ~n =
    R.copy_row ~src ~spos ~dst ~dpos ~n

  let copy_strided ~(src : t) ~spos ~stride ~(dst : t) ~dpos ~n =
    R.copy_strided ~src ~spos ~stride ~dst ~dpos ~n

  let get_into (a : t) i dst j = R.get_into a i dst j

  let dot_into ~(a : t) ~apos ~(b : t) ~bpos ~n dst j =
    R.dot_rows a ~apos b ~bpos ~n dst j

  let dot_arr_into (a : t) ~pos x ~n dst j = R.dot_row a ~pos x ~n dst j
  let axpy_from c ~ci src (a : t) ~pos ~n = R.axpy_row c ~ci src a ~pos ~n

  let fill (a : t) v = Bigarray.Array1.fill a (R.round v)

  let blit ~(src : t) ~(dst : t) = Bigarray.Array1.blit src dst

  let sub (a : t) ~pos ~len : t = Bigarray.Array1.sub a pos len

  let copy (a : t) : t =
    let b = create (length a) in
    Bigarray.Array1.blit a b;
    b

  let of_array xs : t =
    let n = Array.length xs in
    let a = create n in
    for i = 0 to n - 1 do
      set a i xs.(i)
    done;
    a

  let to_array (a : t) = Array.init (length a) (fun i -> get a i)

  let iteri f (a : t) =
    for i = 0 to length a - 1 do
      f i (unsafe_get a i)
    done

  let fold f acc (a : t) =
    let r = ref acc in
    for i = 0 to length a - 1 do
      r := f !r (unsafe_get a i)
    done;
    !r

  let bytes (a : t) = length a * R.bytes
end
