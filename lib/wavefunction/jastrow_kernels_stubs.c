/* Jastrow rows: the compute-on-the-fly J2 and J1 kernels of
   Jastrow_two / Jastrow_one, for every slot of a crowd in one call.

   Entry points (one per crowd stage and one for the full recompute):
   - oqmc_j2_ratio / oqmc_j1_ratio: for each of m slots, the spline rows
     u, f = u'/r, l = u'' + 2u'/r of electron k (J2: its old row from the
     table and its proposed row from the temporary row; J1: the proposed
     row only), their sums and the gradient sums against the temporary
     displacements.  The slot's [res] cells receive the
     log-ratio and the three gradient sums; the OCaml side multiplies the
     ratio and accumulates the gradients.
   - oqmc_j2_accept / oqmc_j1_accept: for each accepted slot, the
     incremental accumulator update from the rows the ratio call left in
     the slot's scratch.
   - oqmc_j2_evaluate / oqmc_j1_evaluate: every electron's accumulators
     from the table rows (the recompute behind refresh and measure).

   Each call reads the distance-table bigarrays in place; their storage
   precision (f32 or f64) comes from the bigarray kind, and every value
   is widened to double on load.  States are OCaml records read by field
   index (the enums below follow the field order in jastrow_two.ml,
   jastrow_one.ml and Cubic_spline_1d.t); the OCaml side checks the
   electron index and the slot count before calling in, and C does no
   bounds checks.

   Bit-identity with the OCaml loops kept as test oracles
   (test/jastrow_oracle.ml) rests on:
   - the same expressions in the same order, for the spline weights
     (Cubic_spline_1d.evaluate_vgl3's) and for every update;
   - -ffp-contract=off, so no multiply-add is fused;
   - every reduction is one sequential chain in index order; only the
     element-wise loops (spline rows, accumulator updates) vectorize,
     and vectorizing them leaves each element's arithmetic untouched.
   (long)s truncates as int_of_float does for every s the clamp lets
   through.

   Defining OQMC_JASTROW_NOVEC renames the entry points with a _novec
   suffix, so the benchmark can link a second copy of this file built
   with -fno-tree-vectorize next to the library's. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#ifndef FLAT_FLOAT_ARRAY
#error "jastrow_kernels_stubs.c needs an OCaml built with flat float arrays"
#endif

#ifdef OQMC_JASTROW_NOVEC
#define ENTRY(name) name##_novec
#else
#define ENTRY(name) name
#endif

/* Field order of Cubic_spline_1d.t. */
enum { SP_COEFFS, SP_CUTOFF, SP_DELTA, SP_DELTA_INV, SP_NINT };

/* Field order of Jastrow_two.Make(R)(D).opt. */
enum {
  J2_N, J2_LD, J2_DIST, J2_DX, J2_DY, J2_DZ, J2_TDIST, J2_TDX, J2_TDY,
  J2_TDZ, J2_FUNCTORS, J2_SPEC, J2_RUN_LO, J2_RUN_N, J2_RUN_SP, J2_UAT,
  J2_JGX, J2_JGY, J2_JGZ, J2_JLAP, J2_UN, J2_FN, J2_LN, J2_UO, J2_FO,
  J2_LO, J2_RES
};

/* Field order of Jastrow_one.Make(R)(D).opt. */
enum {
  J1_NI, J1_LD, J1_DIST, J1_DX, J1_DY, J1_DZ, J1_TDIST, J1_TDX, J1_TDY,
  J1_TDZ, J1_RUN_FN, J1_RUN_LO, J1_RUN_N, J1_VAT, J1_JGX, J1_JGY, J1_JGZ,
  J1_JLAP, J1_UN, J1_FN, J1_LN, J1_RES, J1_N
};

#define FA(v) ((double *)(v))

static inline int is_f32(value ba)
{
  return (Caml_ba_array_val(ba)->flags & CAML_BA_KIND_MASK)
         == CAML_BA_FLOAT32;
}

#define LOAD(p, f32, i) \
  ((f32) ? (double)((const float *)(p))[i] : ((const double *)(p))[i])

/* The storage of bigarray [ba] from element [o]. */
static inline const void *at(value ba, int f32, long o)
{
  return f32 ? (const void *)((const float *)Caml_ba_data_val(ba) + o)
             : (const void *)((const double *)Caml_ba_data_val(ba) + o);
}

/* Every helper below takes the table's storage kind [f32] as its first
   argument and is always inlined; the entry points instantiate it once
   per kind, so each loop is compiled branch-free for its kind. */
#define INLINE static inline __attribute__((always_inline))

/* ---------- spline row ---------- */

/* Entries per pass of the spline row: the in-range indices of one pass
   are gathered on the stack. */
#define UFL_CHUNK 256

/* u, f, l for entries [lo, lo + n) of [dist] against one radial
   functor; zeros where r <= 0 (self and padding) or r >= cutoff.  Each
   pass stores the zeros and compacts the in-range entries (index and
   distance), evaluates the spline on those alone into contiguous
   temporaries — no branch, so the loop vectorizes, the coefficient
   loads becoming gathers — and scatters the results back.
   An entry's value depends on its own distance only, so the arithmetic
   of every in-range entry is the scalar loop's. */
INLINE void ufl_core(int f32, const void *restrict dist, long lo, long n,
                     const double *restrict co, double cut, double dinv,
                     long nint, double *restrict u, double *restrict f,
                     double *restrict l)
{
  long idx[UFL_CHUNK];
  double cr[UFL_CHUNK], cu[UFL_CHUNK], cf[UFL_CHUNK], cl[UFL_CHUNK];
  for (long c0 = lo; c0 < lo + n; c0 += UFL_CHUNK) {
    const long c1 = c0 + UFL_CHUNK < lo + n ? c0 + UFL_CHUNK : lo + n;
    long m = 0;
    for (long i = c0; i < c1; i++) {
      const double r = LOAD(dist, f32, i);
      u[i] = 0.;
      f[i] = 0.;
      l[i] = 0.;
      idx[m] = i;
      cr[m] = r;
      m += !(r <= 0. || r >= cut);
    }
    for (long q = 0; q < m; q++) {
      const double r = cr[q];
      const double s = r * dinv;
      long j = (long)s;
      j = j >= nint ? nint - 1 : j;
      j = j < 0 ? 0 : j;
      const double x = s - (double)j;
      const double c0_ = co[j], c1_ = co[j + 1];
      const double c2_ = co[j + 2], c3_ = co[j + 3];
      const double t2 = x * x;
      const double t3 = t2 * x;
      const double mt = 1. - x;
      const double vw0 = mt * mt * mt / 6.;
      const double vw1 = (3. * t3 - 6. * t2 + 4.) / 6.;
      const double vw2 = (-3. * t3 + 3. * t2 + 3. * x + 1.) / 6.;
      const double vw3 = t3 / 6.;
      const double dw0 = -(mt * mt) / 2.;
      const double dw1 = (9. * t2 - 12. * x) / 6.;
      const double dw2 = (-9. * t2 + 6. * x + 3.) / 6.;
      const double dw3 = t2 / 2.;
      const double sw0 = 1. - x;
      const double sw1 = 3. * x - 2.;
      const double sw2 = 1. - 3. * x;
      const double sw3 = x;
      const double dv =
          (c0_ * dw0 + c1_ * dw1 + c2_ * dw2 + c3_ * dw3) * dinv;
      const double d2v =
          (c0_ * sw0 + c1_ * sw1 + c2_ * sw2 + c3_ * sw3) * dinv * dinv;
      cu[q] = c0_ * vw0 + c1_ * vw1 + c2_ * vw2 + c3_ * vw3;
      cf[q] = dv / r;
      cl[q] = d2v + 2. * dv / r;
    }
    for (long q = 0; q < m; q++) {
      u[idx[q]] = cu[q];
      f[idx[q]] = cf[q];
      l[idx[q]] = cl[q];
    }
  }
}

/* One out-of-line copy per kind: their restrict parameters (which
   inlining would drop) let gcc gather the coefficients without alias
   checks against the outputs. */
#define UFL_ROW(name, f32)                                                  \
  static __attribute__((noinline)) void name(                             \
      const void *restrict dist, long lo, long n, const double *restrict co, \
      double cut, double dinv, long nint, double *restrict u,              \
      double *restrict f, double *restrict l)                              \
  {                                                                        \
    ufl_core(f32, dist, lo, n, co, cut, dinv, nint, u, f, l);              \
  }

UFL_ROW(ufl_f64, 0)
UFL_ROW(ufl_f32, 1)

INLINE void ufl_row(int f32, value sp, const void *d, long lo, long n,
                    double *u, double *f, double *l)
{
  (f32 ? ufl_f32 : ufl_f64)(d, lo, n, FA(Field(sp, SP_COEFFS)),
                            Double_val(Field(sp, SP_CUTOFF)),
                            Double_val(Field(sp, SP_DELTA_INV)),
                            Long_val(Field(sp, SP_NINT)), u, f, l);
}

/* The five row sums of a Jastrow row over [lo, hi), onto s[0..4]:
   s0 += a_i, s1 += f_i·dx_i, s2 += f_i·dy_i, s3 += f_i·dz_i,
   s4 += b_i.  Each is one chain in index order; the five run side by
   side. */
INLINE void sums(int f32, double *s, long lo, long hi, const double *a,
                 const double *f, const void *dx, const void *dy,
                 const void *dz, const double *b)
{
  double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3], s4 = s[4];
  for (long i = lo; i < hi; i++) {
    s0 += a[i];
    s1 += f[i] * LOAD(dx, f32, i);
    s2 += f[i] * LOAD(dy, f32, i);
    s3 += f[i] * LOAD(dz, f32, i);
    s4 += b[i];
  }
  s[0] = s0;
  s[1] = s1;
  s[2] = s2;
  s[3] = s3;
  s[4] = s4;
}

/* ---------- J2 ---------- */

#define J2_ROW(fld, o) at(Field(st, fld), f32, (o))

/* Electron k's row against every electron: one spline row per species
   run with k's functors, then the self entry as zeros. */
INLINE void j2_fill(int f32, value st, long k, const void *d, double *u,
                    double *f, double *l)
{
  value fk = Field(Field(st, J2_FUNCTORS),
                   Long_val(Field(Field(st, J2_SPEC), k)));
  value lo = Field(st, J2_RUN_LO), rn = Field(st, J2_RUN_N);
  value sp = Field(st, J2_RUN_SP);
  const mlsize_t runs = Wosize_val(lo);
  for (mlsize_t r = 0; r < runs; r++)
    ufl_row(f32, Field(fk, Long_val(Field(sp, r))), d, Long_val(Field(lo, r)),
            Long_val(Field(rn, r)), u, f, l);
  u[k] = 0.;
  f[k] = 0.;
  l[k] = 0.;
}

/* Old row from the table, new row from the temporary row; res = Σ old
   u − Σ new u, then Σ f·dr over the new row. */
INLINE void j2_ratio(int f32, value st, long k)
{
  const long n = Long_val(Field(st, J2_N)), ld = Long_val(Field(st, J2_LD));
  double *uo = FA(Field(st, J2_UO)), *un = FA(Field(st, J2_UN));
  double *fn = FA(Field(st, J2_FN)), *res = FA(Field(st, J2_RES));
  double sm[5] = { 0., 0., 0., 0., 0. };
  j2_fill(f32, st, k, J2_ROW(J2_DIST, k * ld), uo, FA(Field(st, J2_FO)),
          FA(Field(st, J2_LO)));
  j2_fill(f32, st, k, J2_ROW(J2_TDIST, 0), un, fn, FA(Field(st, J2_LN)));
  sums(f32, sm, 0, n, uo, fn, J2_ROW(J2_TDX, 0), J2_ROW(J2_TDY, 0),
       J2_ROW(J2_TDZ, 0), un);
  res[0] = sm[0] - sm[4];
  res[1] = sm[1];
  res[2] = sm[2];
  res[3] = sm[3];
}

/* Over [lo, hi): electron i's accumulators swap the pair (i, k) term of
   the old row for the new row's. */
INLINE void j2_swap(int f32, long lo, long hi, double *restrict uat,
                    double *restrict jgx, double *restrict jgy,
                    double *restrict jgz, double *restrict jlap,
                    const double *un, const double *fn, const double *ln,
                    const double *uo, const double *fo, const double *lo_,
                    const void *tx, const void *ty, const void *tz,
                    const void *ox, const void *oy, const void *oz)
{
  for (long i = lo; i < hi; i++) {
    uat[i] = uat[i] + un[i] - uo[i];
    jgx[i] = jgx[i] - fn[i] * LOAD(tx, f32, i) + fo[i] * LOAD(ox, f32, i);
    jgy[i] = jgy[i] - fn[i] * LOAD(ty, f32, i) + fo[i] * LOAD(oy, f32, i);
    jgz[i] = jgz[i] - fn[i] * LOAD(tz, f32, i) + fo[i] * LOAD(oz, f32, i);
    jlap[i] = jlap[i] - ln[i] + lo_[i];
  }
}

INLINE void j2_accept(int f32, value st, long k)
{
  const long n = Long_val(Field(st, J2_N)), ld = Long_val(Field(st, J2_LD));
  double *uat = FA(Field(st, J2_UAT)), *jgx = FA(Field(st, J2_JGX));
  double *jgy = FA(Field(st, J2_JGY)), *jgz = FA(Field(st, J2_JGZ));
  double *jlap = FA(Field(st, J2_JLAP));
  const double *un = FA(Field(st, J2_UN)), *fn = FA(Field(st, J2_FN));
  const double *ln = FA(Field(st, J2_LN)), *uo = FA(Field(st, J2_UO));
  const double *fo = FA(Field(st, J2_FO)), *lo_ = FA(Field(st, J2_LO));
  const void *tx = J2_ROW(J2_TDX, 0), *ty = J2_ROW(J2_TDY, 0);
  const void *tz = J2_ROW(J2_TDZ, 0), *ox = J2_ROW(J2_DX, k * ld);
  const void *oy = J2_ROW(J2_DY, k * ld), *oz = J2_ROW(J2_DZ, k * ld);
  j2_swap(f32, 0, k, uat, jgx, jgy, jgz, jlap, un, fn, ln, uo, fo, lo_, tx,
          ty, tz, ox, oy, oz);
  j2_swap(f32, k + 1, n, uat, jgx, jgy, jgz, jlap, un, fn, ln, uo, fo, lo_,
          tx, ty, tz, ox, oy, oz);
  /* Electron k's own sums skip its self entry, except U_k's, in index
     order. */
  double sm[5] = { 0., 0., 0., 0., 0. };
  sums(f32, sm, 0, k, un, fn, tx, ty, tz, ln);
  sm[0] += un[k];
  sums(f32, sm, k + 1, n, un, fn, tx, ty, tz, ln);
  uat[k] = sm[0];
  jgx[k] = sm[1];
  jgy[k] = sm[2];
  jgz[k] = sm[3];
  jlap[k] = -sm[4];
}

/* Electron k's accumulators from its (fresh) table row. */
INLINE void j2_compute(int f32, value st, long k)
{
  const long n = Long_val(Field(st, J2_N)), ld = Long_val(Field(st, J2_LD));
  double *un = FA(Field(st, J2_UN)), *fn = FA(Field(st, J2_FN));
  double *ln = FA(Field(st, J2_LN));
  double sm[5] = { 0., 0., 0., 0., 0. };
  j2_fill(f32, st, k, J2_ROW(J2_DIST, k * ld), un, fn, ln);
  sums(f32, sm, 0, n, un, fn, J2_ROW(J2_DX, k * ld), J2_ROW(J2_DY, k * ld),
       J2_ROW(J2_DZ, k * ld), ln);
  FA(Field(st, J2_UAT))[k] = sm[0];
  FA(Field(st, J2_JGX))[k] = sm[1];
  FA(Field(st, J2_JGY))[k] = sm[2];
  FA(Field(st, J2_JGZ))[k] = sm[3];
  FA(Field(st, J2_JLAP))[k] = -sm[4];
}

static void j2_ratio_f64(value st, long k) { j2_ratio(0, st, k); }
static void j2_ratio_f32(value st, long k) { j2_ratio(1, st, k); }
static void j2_accept_f64(value st, long k) { j2_accept(0, st, k); }
static void j2_accept_f32(value st, long k) { j2_accept(1, st, k); }
static void j2_compute_f64(value st, long k) { j2_compute(0, st, k); }
static void j2_compute_f32(value st, long k) { j2_compute(1, st, k); }

static inline int j2_f32(value st) { return is_f32(Field(st, J2_DIST)); }

CAMLprim value ENTRY(oqmc_j2_ratio)(value sts, value vk, value vm)
{
  const long k = Long_val(vk), m = Long_val(vm);
  for (long s = 0; s < m; s++) {
    value st = Field(sts, s);
    (j2_f32(st) ? j2_ratio_f32 : j2_ratio_f64)(st, k);
  }
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_j2_accept)(value sts, value vk, value vm,
                                     value acc)
{
  const long k = Long_val(vk), m = Long_val(vm);
  for (long s = 0; s < m; s++)
    if (Bool_val(Field(acc, s))) {
      value st = Field(sts, s);
      (j2_f32(st) ? j2_accept_f32 : j2_accept_f64)(st, k);
    }
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_j2_evaluate)(value st)
{
  const long n = Long_val(Field(st, J2_N));
  for (long k = 0; k < n; k++)
    (j2_f32(st) ? j2_compute_f32 : j2_compute_f64)(st, k);
  return Val_unit;
}

/* ---------- J1 ---------- */

#define J1_ROW(fld, o) at(Field(st, fld), f32, (o))

/* An electron's row against every ion, into the scratch: one spline row
   per ion-species run. */
INLINE void j1_fill(int f32, value st, const void *d)
{
  value fns = Field(st, J1_RUN_FN);
  value lo = Field(st, J1_RUN_LO), rn = Field(st, J1_RUN_N);
  double *u = FA(Field(st, J1_UN)), *f = FA(Field(st, J1_FN));
  double *l = FA(Field(st, J1_LN));
  const mlsize_t runs = Wosize_val(lo);
  for (mlsize_t r = 0; r < runs; r++)
    ufl_row(f32, Field(fns, r), d, Long_val(Field(lo, r)),
            Long_val(Field(rn, r)), u, f, l);
}

/* Electron k's accumulators from the row in scratch and the
   displacement rows at element [o] of the fields dx, dy, dz. */
INLINE void j1_store(int f32, value st, long k, int dx, int dy, int dz,
                     long o)
{
  double sm[5] = { 0., 0., 0., 0., 0. };
  sums(f32, sm, 0, Long_val(Field(st, J1_NI)), FA(Field(st, J1_UN)),
       FA(Field(st, J1_FN)), J1_ROW(dx, o), J1_ROW(dy, o), J1_ROW(dz, o),
       FA(Field(st, J1_LN)));
  FA(Field(st, J1_VAT))[k] = sm[0];
  FA(Field(st, J1_JGX))[k] = sm[1];
  FA(Field(st, J1_JGY))[k] = sm[2];
  FA(Field(st, J1_JGZ))[k] = sm[3];
  FA(Field(st, J1_JLAP))[k] = -sm[4];
}

/* The proposed row; res = U_k − Σ u, then Σ f·dr. */
INLINE void j1_ratio(int f32, value st, long k)
{
  double *res = FA(Field(st, J1_RES));
  double sm[5] = { 0., 0., 0., 0., 0. };
  j1_fill(f32, st, J1_ROW(J1_TDIST, 0));
  sums(f32, sm, 0, Long_val(Field(st, J1_NI)), FA(Field(st, J1_UN)),
       FA(Field(st, J1_FN)), J1_ROW(J1_TDX, 0), J1_ROW(J1_TDY, 0),
       J1_ROW(J1_TDZ, 0), FA(Field(st, J1_LN)));
  res[0] = FA(Field(st, J1_VAT))[k] - sm[0];
  res[1] = sm[1];
  res[2] = sm[2];
  res[3] = sm[3];
}

/* The scratch still holds the proposed row from the ratio call. */
INLINE void j1_accept(int f32, value st, long k)
{
  j1_store(f32, st, k, J1_TDX, J1_TDY, J1_TDZ, 0);
}

INLINE void j1_compute(int f32, value st, long k)
{
  const long ld = Long_val(Field(st, J1_LD));
  j1_fill(f32, st, J1_ROW(J1_DIST, k * ld));
  j1_store(f32, st, k, J1_DX, J1_DY, J1_DZ, k * ld);
}

static void j1_ratio_f64(value st, long k) { j1_ratio(0, st, k); }
static void j1_ratio_f32(value st, long k) { j1_ratio(1, st, k); }
static void j1_accept_f64(value st, long k) { j1_accept(0, st, k); }
static void j1_accept_f32(value st, long k) { j1_accept(1, st, k); }
static void j1_compute_f64(value st, long k) { j1_compute(0, st, k); }
static void j1_compute_f32(value st, long k) { j1_compute(1, st, k); }

static inline int j1_f32(value st) { return is_f32(Field(st, J1_DIST)); }

CAMLprim value ENTRY(oqmc_j1_ratio)(value sts, value vk, value vm)
{
  const long k = Long_val(vk), m = Long_val(vm);
  for (long s = 0; s < m; s++) {
    value st = Field(sts, s);
    (j1_f32(st) ? j1_ratio_f32 : j1_ratio_f64)(st, k);
  }
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_j1_accept)(value sts, value vk, value vm,
                                     value acc)
{
  const long k = Long_val(vk), m = Long_val(vm);
  for (long s = 0; s < m; s++)
    if (Bool_val(Field(acc, s))) {
      value st = Field(sts, s);
      (j1_f32(st) ? j1_accept_f32 : j1_accept_f64)(st, k);
    }
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_j1_evaluate)(value st)
{
  const long n = Long_val(Field(st, J1_N));
  for (long k = 0; k < n; k++)
    (j1_f32(st) ? j1_compute_f32 : j1_compute_f64)(st, k);
  return Val_unit;
}
