/* DistTable rows: distances and minimum-image displacements from one
   point to every particle of a set, in both layouts of Dt_kernels.

   Three entry points:
   - oqmc_dt_soa_rows: for each of m slots, one SoA row.  The sources are
     three unit-stride component rows; the outputs are four unit-stride
     rows (distance, dx, dy, dz) at a common offset.  Every loop is
     unit-stride, so gcc vectorizes it.
   - oqmc_dt_aos_row: one AoS row.  The sources are interleaved x y z
     groups and the displacements are written interleaved as well (the
     Ref storage), optionally negated (the Store triangle's sign).
   - oqmc_dt_aos_scatter: a Store table's accept, the temporary AoS row
     scattered into the packed triangle (negated below the diagonal).

   Each call reads the source bigarrays in place and does all
   arithmetic in double; the storage precision (f32 or f64) of sources
   and outputs is read from each bigarray's kind, and results are
   narrowed only at the store.  Slots are OCaml records read by field
   index (the enums below follow the field order in dt_kernels.ml); the
   OCaml side checks every length before calling in, and C does no
   bounds checks.  The General (non-orthorhombic) cell has no C path:
   the OCaml side keeps that branch.

   Bit-identity with the OCaml loops kept as test oracles
   (test/dt_oracle.ml) rests on three things:
   - the same expressions in the same order: dx = x_i - p_x, then
     dx - lx * nearest(dx * (1/lx)), then sqrt((dx*dx + dy*dy) + dz*dz);
   - the file is compiled with -ffp-contract=off, so no multiply-add is
     fused (gcc's default for GNU C would fuse under -march=native);
   - [nearest]'s trunc(q + 0.5) / trunc(q - 0.5) equals the OCaml
     float_of_int (int_of_float (q +. 0.5)) / (q -. 0.5) for every
     |q| < 2^62.  It can differ from it only in the sign of a zero
     result, for q in (-0.5, 0); there dx is nonzero and dx - lx * -0.0
     equals dx - lx * 0.0.
   -fno-math-errno lets sqrt vectorize (it is correctly rounded either
   way) and -fno-trapping-math lets trunc vectorize (gcc 12 keeps it
   scalar otherwise); neither changes a value, and nothing here reads
   the floating-point exception flags.  Vectorization runs across
   particles only, which leaves each entry's arithmetic untouched.

   Defining OQMC_DT_NOVEC renames the entry points with a _novec suffix,
   so the benchmark can link a second copy of this file built with
   -fno-tree-vectorize next to the library's. */

#include <math.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Query points and cell extents are OCaml float arrays, read as raw
   doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "dt_kernels_stubs.c needs an OCaml built with flat float arrays"
#endif

#ifdef OQMC_DT_NOVEC
#define ENTRY(name) name##_novec
#else
#define ENTRY(name) name
#endif

/* Field order of Dt_kernels.Make(S)(O).row_slot. */
enum { S_XS, S_YS, S_ZS, S_N, S_OD, S_ODX, S_ODY, S_ODZ, S_O, S_SELF, S_BOX };

/* Field order of Dt_kernels.Make(S)(O).aos_slot. */
enum { A_SRC, A_N, A_D, A_DR, A_O, A_NEG, A_BOX };

static inline int is_f32(value ba)
{
  return (Caml_ba_array_val(ba)->flags & CAML_BA_KIND_MASK)
         == CAML_BA_FLOAT32;
}

/* Round half away from zero, as the OCaml kernels' integer truncation
   does (see the header). */
static inline double nearest(double q)
{
  return trunc(q + (q >= 0. ? 0.5 : -0.5));
}

#define LOAD(p, f32, i) \
  ((f32) ? (double)((const float *)(p))[i] : ((const double *)(p))[i])

#define STORE(p, f32, i, v)                  \
  do {                                       \
    if (f32)                                 \
      ((float *)(p))[i] = (float)(v);        \
    else                                     \
      ((double *)(p))[i] = (v);              \
  } while (0)

/* ---------- SoA row ---------- */

/* [sf], [of] and [ortho] are constants at each call site, so every
   combination gets its own branch-free copy of the loop. */
static inline __attribute__((always_inline)) void
soa_core(int sf, int of, int ortho, const void *restrict xs,
         const void *restrict ys, const void *restrict zs, long n,
         const double *pt, const double *box, void *restrict od,
         void *restrict odx, void *restrict ody, void *restrict odz)
{
  const double px = pt[0], py = pt[1], pz = pt[2];
  double lx = 0., ly = 0., lz = 0., ix = 0., iy = 0., iz = 0.;
  if (ortho) {
    lx = box[0];
    ly = box[1];
    lz = box[2];
    ix = 1. / lx;
    iy = 1. / ly;
    iz = 1. / lz;
  }
  for (long i = 0; i < n; i++) {
    double dx = LOAD(xs, sf, i) - px;
    double dy = LOAD(ys, sf, i) - py;
    double dz = LOAD(zs, sf, i) - pz;
    if (ortho) {
      dx = dx - lx * nearest(dx * ix);
      dy = dy - ly * nearest(dy * iy);
      dz = dz - lz * nearest(dz * iz);
    }
    STORE(odx, of, i, dx);
    STORE(ody, of, i, dy);
    STORE(odz, of, i, dz);
    STORE(od, of, i, sqrt(dx * dx + dy * dy + dz * dz));
  }
}

typedef void (*soa_fn)(const void *restrict, const void *restrict,
                       const void *restrict, long, const double *,
                       const double *, void *restrict, void *restrict,
                       void *restrict, void *restrict);

/* One out-of-line copy per combination: their restrict parameters let
   gcc vectorize without alias checks. */
#define SOA_ROW(name, sf, of, ortho)                                        \
  static void name(const void *restrict xs, const void *restrict ys,      \
                   const void *restrict zs, long n, const double *pt,     \
                   const double *box, void *restrict od,                  \
                   void *restrict odx, void *restrict ody,                \
                   void *restrict odz)                                    \
  {                                                                       \
    soa_core(sf, of, ortho, xs, ys, zs, n, pt, box, od, odx, ody, odz);   \
  }

SOA_ROW(soa_dd_open, 0, 0, 0)
SOA_ROW(soa_dd_ortho, 0, 0, 1)
SOA_ROW(soa_ds_open, 0, 1, 0)
SOA_ROW(soa_ds_ortho, 0, 1, 1)
SOA_ROW(soa_sd_open, 1, 0, 0)
SOA_ROW(soa_sd_ortho, 1, 0, 1)
SOA_ROW(soa_ss_open, 1, 1, 0)
SOA_ROW(soa_ss_ortho, 1, 1, 1)

/* Indexed [source f32][output f32][ortho]. */
static const soa_fn soa_fns[2][2][2] = {
  { { soa_dd_open, soa_dd_ortho }, { soa_ds_open, soa_ds_ortho } },
  { { soa_sd_open, soa_sd_ortho }, { soa_ss_open, soa_ss_ortho } },
};

static inline void *ba_at(value ba, int f32, long o)
{
  return f32 ? (void *)((float *)Caml_ba_data_val(ba) + o)
             : (void *)((double *)Caml_ba_data_val(ba) + o);
}

/* Slot s's row at point (px.(s), py.(s), pz.(s)); entry [self], when
   >= 0, is stored as exact zeros. */
CAMLprim value ENTRY(oqmc_dt_soa_rows)(value slots, value px, value py,
                                       value pz, value vm)
{
  const long m = Long_val(vm);
  for (long s = 0; s < m; s++) {
    value sl = Field(slots, s);
    value xs = Field(sl, S_XS), od = Field(sl, S_OD);
    value box = Field(sl, S_BOX);
    const int sf = is_f32(xs), of = is_f32(od);
    const int ortho = Wosize_val(box) >= 3;
    const long n = Long_val(Field(sl, S_N)), o = Long_val(Field(sl, S_O));
    const long self = Long_val(Field(sl, S_SELF));
    const double pt[3] = { Double_flat_field(px, s), Double_flat_field(py, s),
                           Double_flat_field(pz, s) };
    void *d = ba_at(od, of, o), *dx = ba_at(Field(sl, S_ODX), of, o);
    void *dy = ba_at(Field(sl, S_ODY), of, o);
    void *dz = ba_at(Field(sl, S_ODZ), of, o);
    soa_fns[sf][of][ortho](Caml_ba_data_val(xs),
                           Caml_ba_data_val(Field(sl, S_YS)),
                           Caml_ba_data_val(Field(sl, S_ZS)), n, pt,
                           ortho ? (const double *)box : NULL, d, dx, dy, dz);
    if (self >= 0) {
      STORE(d, of, self, 0.);
      STORE(dx, of, self, 0.);
      STORE(dy, of, self, 0.);
      STORE(dz, of, self, 0.);
    }
  }
  return Val_unit;
}

/* ---------- AoS row ---------- */

/* [sg] is +1 or -1: sg * dx is dx or exactly -dx, signed zeros
   included, so one copy serves both signs. */
static inline __attribute__((always_inline)) void
aos_core(int sf, int of, int ortho, const void *restrict src, long n,
         const double *pt, const double *box, double sg, void *restrict d,
         void *restrict dr)
{
  const double px = pt[0], py = pt[1], pz = pt[2];
  double lx = 0., ly = 0., lz = 0., ix = 0., iy = 0., iz = 0.;
  if (ortho) {
    lx = box[0];
    ly = box[1];
    lz = box[2];
    ix = 1. / lx;
    iy = 1. / ly;
    iz = 1. / lz;
  }
  for (long i = 0; i < n; i++) {
    const long b = 3 * i;
    double dx = LOAD(src, sf, b) - px;
    double dy = LOAD(src, sf, b + 1) - py;
    double dz = LOAD(src, sf, b + 2) - pz;
    if (ortho) {
      dx = dx - lx * nearest(dx * ix);
      dy = dy - ly * nearest(dy * iy);
      dz = dz - lz * nearest(dz * iz);
    }
    STORE(dr, of, b, sg * dx);
    STORE(dr, of, b + 1, sg * dy);
    STORE(dr, of, b + 2, sg * dz);
    STORE(d, of, i, sqrt(dx * dx + dy * dy + dz * dz));
  }
}

typedef void (*aos_fn)(const void *restrict, long, const double *,
                       const double *, double, void *restrict,
                       void *restrict);

#define AOS_ROW(name, sf, of, ortho)                                        \
  static void name(const void *restrict src, long n, const double *pt,    \
                   const double *box, double sg, void *restrict d,        \
                   void *restrict dr)                                     \
  {                                                                       \
    aos_core(sf, of, ortho, src, n, pt, box, sg, d, dr);                  \
  }

AOS_ROW(aos_dd_open, 0, 0, 0)
AOS_ROW(aos_dd_ortho, 0, 0, 1)
AOS_ROW(aos_ds_open, 0, 1, 0)
AOS_ROW(aos_ds_ortho, 0, 1, 1)
AOS_ROW(aos_sd_open, 1, 0, 0)
AOS_ROW(aos_sd_ortho, 1, 0, 1)
AOS_ROW(aos_ss_open, 1, 1, 0)
AOS_ROW(aos_ss_ortho, 1, 1, 1)

/* Indexed [source f32][output f32][ortho]. */
static const aos_fn aos_fns[2][2][2] = {
  { { aos_dd_open, aos_dd_ortho }, { aos_ds_open, aos_ds_ortho } },
  { { aos_sd_open, aos_sd_ortho }, { aos_ss_open, aos_ss_ortho } },
};

/* The slot's row at (px, py, pz): distances at offset o of [d],
   displacements (negated when [neg]) at offset 3o of [dr]. */
CAMLprim value ENTRY(oqmc_dt_aos_row)(value sl, double px, double py,
                                      double pz)
{
  value src = Field(sl, A_SRC), d = Field(sl, A_D), box = Field(sl, A_BOX);
  const int sf = is_f32(src), of = is_f32(d);
  const int ortho = Wosize_val(box) >= 3;
  const double sg = Bool_val(Field(sl, A_NEG)) ? -1. : 1.;
  const long n = Long_val(Field(sl, A_N)), o = Long_val(Field(sl, A_O));
  const double pt[3] = { px, py, pz };
  aos_fns[sf][of][ortho](Caml_ba_data_val(src), n, pt,
                         ortho ? (const double *)box : NULL, sg,
                         ba_at(d, of, o), ba_at(Field(sl, A_DR), of, 3 * o));
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_dt_aos_row_byte)(value sl, value px, value py,
                                           value pz)
{
  return ENTRY(oqmc_dt_aos_row)(sl, Double_val(px), Double_val(py),
                                Double_val(pz));
}

/* ---------- AoS scatter ---------- */

/* Entry (i, k) of the packed triangle, i < k, is stored at
   k(k−1)/2 + i: column k is contiguous, row k strided. */
#define SCATTER(T)                                                          \
  static void scatter_##T(T *restrict d, T *restrict dr,                   \
                          const T *restrict td, const T *restrict tdr,     \
                          long k, long n)                                  \
  {                                                                        \
    const long c = k * (k - 1) / 2;                                        \
    /* (i, k) holds r_k' − r_i = −temp(i). */                              \
    for (long i = 0; i < k; i++) {                                         \
      d[c + i] = td[i];                                                    \
      dr[3 * (c + i)] = -tdr[3 * i];                                       \
      dr[3 * (c + i) + 1] = -tdr[3 * i + 1];                               \
      dr[3 * (c + i) + 2] = -tdr[3 * i + 2];                               \
    }                                                                      \
    for (long j = k + 1; j < n; j++) {                                     \
      const long p = j * (j - 1) / 2 + k;                                  \
      d[p] = td[j];                                                        \
      dr[3 * p] = tdr[3 * j];                                              \
      dr[3 * p + 1] = tdr[3 * j + 1];                                      \
      dr[3 * p + 2] = tdr[3 * j + 2];                                      \
    }                                                                      \
  }

SCATTER(float)
SCATTER(double)

/* Copy the temporary row of electron k (n = its length) into the
   triangle; every value is moved at the storage width, negation
   included, so nothing rounds. */
CAMLprim value ENTRY(oqmc_dt_aos_scatter)(value d, value dr, value td,
                                          value tdr, value vk)
{
  const long n = Caml_ba_array_val(td)->dim[0], k = Long_val(vk);
  if (is_f32(d))
    scatter_float(Caml_ba_data_val(d), Caml_ba_data_val(dr),
                  Caml_ba_data_val(td), Caml_ba_data_val(tdr), k, n);
  else
    scatter_double(Caml_ba_data_val(d), Caml_ba_data_val(dr),
                   Caml_ba_data_val(td), Caml_ba_data_val(tdr), k, n);
  return Val_unit;
}
