(* One-dimensional cubic B-spline on a uniform grid over [0, cutoff].

   This is the radial-functor engine behind the Jastrow factors (Fig. 3 of
   the paper): short coefficient tables, evaluated with value / first /
   second derivatives, identically zero at and beyond the cutoff.

   Precision: the table is fitted in double; [narrow] rounds every
   control point through f32 storage (the [precision_jastrow] knob), so
   an f32-Jastrow build evaluates the same polynomials from narrowed
   coefficients while all basis arithmetic stays double.  The table is
   tiny, so the point is drift behaviour and parity with QMCPACK's
   single-precision Jastrow splines, not memory. *)

(* The Jastrow row kernel (lib/wavefunction/jastrow_kernels_stubs.c)
   evaluates these splines in C and reads the fields by index: keep the
   order of the first five in step with it. *)
type t = {
  coeffs : float array; (* n_intervals + 3 control points *)
  cutoff : float;
  delta : float;
  delta_inv : float;
  n_intervals : int;
  narrowed : bool; (* coefficients rounded through f32 storage *)
}

let of_coefficients ~cutoff coeffs =
  let m = Array.length coeffs in
  if m < 4 then invalid_arg "Cubic_spline_1d: need at least 4 coefficients";
  if cutoff <= 0. then invalid_arg "Cubic_spline_1d: cutoff <= 0";
  let n_intervals = m - 3 in
  let delta = cutoff /. float_of_int n_intervals in
  { coeffs = Array.copy coeffs; cutoff; delta; delta_inv = 1. /. delta;
    n_intervals; narrowed = false }

let narrow t =
  if t.narrowed then t
  else
    {
      t with
      coeffs = Array.map Oqmc_containers.Precision.F32.round t.coeffs;
      narrowed = true;
    }

let is_narrowed t = t.narrowed

let cutoff t = t.cutoff
let coefficients t = Array.copy t.coeffs
let n_intervals t = t.n_intervals

let locate t r =
  let s = r *. t.delta_inv in
  let i = int_of_float s in
  let i = if i >= t.n_intervals then t.n_intervals - 1 else i in
  let i = if i < 0 then 0 else i in
  (i, s -. float_of_int i)

let evaluate t r =
  if r >= t.cutoff || r < 0. then 0.
  else begin
    let i, u = locate t r in
    let w = Bspline_basis.value u in
    (t.coeffs.(i) *. w.Bspline_basis.w0)
    +. (t.coeffs.(i + 1) *. w.Bspline_basis.w1)
    +. (t.coeffs.(i + 2) *. w.Bspline_basis.w2)
    +. (t.coeffs.(i + 3) *. w.Bspline_basis.w3)
  end

let evaluate_vgl t r =
  if r >= t.cutoff || r < 0. then (0., 0., 0.)
  else begin
    let i, u = locate t r in
    let c0 = t.coeffs.(i) and c1 = t.coeffs.(i + 1) in
    let c2 = t.coeffs.(i + 2) and c3 = t.coeffs.(i + 3) in
    let w = Bspline_basis.value u in
    let d = Bspline_basis.first u in
    let s = Bspline_basis.second u in
    let v =
      (c0 *. w.Bspline_basis.w0) +. (c1 *. w.Bspline_basis.w1)
      +. (c2 *. w.Bspline_basis.w2) +. (c3 *. w.Bspline_basis.w3)
    in
    let dv =
      ((c0 *. d.Bspline_basis.w0) +. (c1 *. d.Bspline_basis.w1)
      +. (c2 *. d.Bspline_basis.w2) +. (c3 *. d.Bspline_basis.w3))
      *. t.delta_inv
    in
    let d2v =
      ((c0 *. s.Bspline_basis.w0) +. (c1 *. s.Bspline_basis.w1)
      +. (c2 *. s.Bspline_basis.w2) +. (c3 *. s.Bspline_basis.w3))
      *. t.delta_inv *. t.delta_inv
    in
    (v, dv, d2v)
  end

(* Banded Gaussian elimination with partial pivoting for the interpolation
   system; the matrix is (n+3)×(n+3) with bandwidth <= 2, and n is small,
   so a dense solve is perfectly adequate. *)
let solve_dense a b =
  let n = Array.length b in
  let a = Array.init n (fun i -> Array.copy a.(i)) in
  let b = Array.copy b in
  for k = 0 to n - 1 do
    let pmax = ref (abs_float a.(k).(k)) and prow = ref k in
    for i = k + 1 to n - 1 do
      if abs_float a.(i).(k) > !pmax then begin
        pmax := abs_float a.(i).(k);
        prow := i
      end
    done;
    if !pmax = 0. then failwith "Cubic_spline_1d: singular fit system";
    if !prow <> k then begin
      let tmp = a.(k) in a.(k) <- a.(!prow); a.(!prow) <- tmp;
      let tb = b.(k) in b.(k) <- b.(!prow); b.(!prow) <- tb
    end;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      if f <> 0. then begin
        for j = k to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      end
    done
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(i).(i)
  done;
  x

let fit ~f ?(deriv0 = None) ?(deriv_cut = Some 0.) ~cutoff ~intervals () =
  if intervals < 1 then invalid_arg "Cubic_spline_1d.fit: intervals < 1";
  if cutoff <= 0. then invalid_arg "Cubic_spline_1d.fit: cutoff <= 0";
  let n = intervals in
  let m = n + 3 in
  let delta = cutoff /. float_of_int n in
  let a = Array.make_matrix m m 0. in
  let b = Array.make m 0. in
  (* Interpolation rows: u(r_i) = (c_i + 4 c_{i+1} + c_{i+2}) / 6. *)
  for i = 0 to n do
    a.(i).(i) <- 1. /. 6.;
    a.(i).(i + 1) <- 4. /. 6.;
    a.(i).(i + 2) <- 1. /. 6.;
    b.(i) <- f (float_of_int i *. delta)
  done;
  (* Boundary row at 0: either a prescribed derivative (cusp condition) or
     a natural (zero second derivative) end. *)
  (match deriv0 with
  | Some d ->
      a.(n + 1).(0) <- -1. /. (2. *. delta);
      a.(n + 1).(2) <- 1. /. (2. *. delta);
      b.(n + 1) <- d
  | None ->
      a.(n + 1).(0) <- 1.;
      a.(n + 1).(1) <- -2.;
      a.(n + 1).(2) <- 1.;
      b.(n + 1) <- 0.);
  (* Boundary row at the cutoff. *)
  (match deriv_cut with
  | Some d ->
      a.(n + 2).(n) <- -1. /. (2. *. delta);
      a.(n + 2).(n + 2) <- 1. /. (2. *. delta);
      b.(n + 2) <- d
  | None ->
      a.(n + 2).(n) <- 1.;
      a.(n + 2).(n + 1) <- -2.;
      a.(n + 2).(n + 2) <- 1.;
      b.(n + 2) <- 0.);
  of_coefficients ~cutoff (solve_dense a b)

let bytes t = (if t.narrowed then 4 else 8) * Array.length t.coeffs
