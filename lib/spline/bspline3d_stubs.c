/* Bspline-v / Bspline-vgh: the orbital accumulation of Bspline3d.

   One entry point per kernel, shared by the scalar and the batched
   OCaml wrappers.  Each call locates one fractional position on the
   grid, builds the 1-D cubic weights, and accumulates every orbital
   over the 4x4x4 stencil straight from the coefficient bigarray.  The
   storage precision (f32 or f64 coefficients) is read from the
   bigarray's kind; accumulation is always in double.

   Bit-identity with the OCaml loops kept as test oracles rests on three
   things:
   - every orbital sums its 64 stencil terms in the same (a,b,c) order,
     starting from +0.0, with the same weight-product expressions;
   - the file is compiled with -ffp-contract=off, so no multiply-add is
     fused (gcc's default for GNU C would fuse under -march=native);
   - [locate]'s wrap, s - floor(s), equals the OCaml kernels'
     [s -. float (truncate (floor s))] for every |s| < 2^62.
   Vectorization runs across orbitals only, which leaves each orbital's
   sum untouched.

   The OCaml wrappers check every buffer length before calling in; the
   stencil origin is clamped here, so no position (NaN and infinities
   included) reads outside the table.

   Defining OQMC_BSPLINE_NOVEC renames the entry points with a _novec
   suffix, so the benchmark can link a second copy of this file built
   with -fno-tree-vectorize next to the library's. */

#include <math.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Result buffers are OCaml float arrays, written as raw doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "bspline3d_stubs.c needs an OCaml built with flat float arrays"
#endif

#ifdef OQMC_BSPLINE_NOVEC
#define ENTRY(name) name##_novec
#else
#define ENTRY(name) name
#endif

/* Orbitals per accumulator block: the block's ten accumulator rows
   stay in L1 while the 64 stencil points stream past them. */
#define BLOCK 64

/* Field order of Bspline3d.Make(R).t. */
enum { F_COEFFS, F_NX, F_NY, F_NZ, F_N_ORB, F_ORB_STRIDE, F_CY, F_CZ };

typedef struct {
  const void *coeffs;
  int f32;
  long nx, ny, nz, n_orb, orb_stride, cy, cz;
} table;

static inline void table_of(value t, table *tb)
{
  value c = Field(t, F_COEFFS);
  tb->coeffs = Caml_ba_data_val(c);
  tb->f32 = (Caml_ba_array_val(c)->flags & CAML_BA_KIND_MASK)
            == CAML_BA_FLOAT32;
  tb->nx = Long_val(Field(t, F_NX));
  tb->ny = Long_val(Field(t, F_NY));
  tb->nz = Long_val(Field(t, F_NZ));
  tb->n_orb = Long_val(Field(t, F_N_ORB));
  tb->orb_stride = Long_val(Field(t, F_ORB_STRIDE));
  tb->cy = Long_val(Field(t, F_CY));
  tb->cz = Long_val(Field(t, F_CZ));
}

/* Grid cell of fractional coordinate [s] on an [n]-point axis, clamped
   to [0, n-1]; the offset inside the cell goes to [*t]. */
static inline long locate(double s, long n, double *t)
{
  double x = (s - floor(s)) * (double)n;
  long i;
  if (x >= 0. && x < (double)n)
    i = (long)x;
  else if (x >= (double)n)
    i = n - 1;
  else
    i = 0; /* NaN */
  *t = x - (double)i;
  return i;
}

/* Cubic B-spline weights and their first and second t-derivatives:
   the expressions of Bspline_basis, operand for operand. */
static inline void w_value(double t, double *w)
{
  double t2 = t * t, t3 = t2 * t, mt = 1. - t;
  w[0] = mt * mt * mt / 6.;
  w[1] = ((3. * t3) - (6. * t2) + 4.) / 6.;
  w[2] = ((-3. * t3) + (3. * t2) + (3. * t) + 1.) / 6.;
  w[3] = t3 / 6.;
}

static inline void w_first(double t, double *w)
{
  double t2 = t * t, mt = 1. - t;
  w[0] = -(mt * mt) / 2.;
  w[1] = ((9. * t2) - (12. * t)) / 6.;
  w[2] = ((-9. * t2) + (6. * t) + 3.) / 6.;
  w[3] = t2 / 2.;
}

static inline void w_second(double t, double *w)
{
  w[0] = 1. - t;
  w[1] = (3. * t) - 2.;
  w[2] = 1. - (3. * t);
  w[3] = t;
}

/* Offset of stencil row (a, b) of the origin (ix, iy, iz). */
static inline long row_of(const table *tb, long ix, long iy, long iz,
                          int a, int b)
{
  return (((ix + a) * tb->cy) + iy + b) * tb->cz + iz;
}

/* Request the 16 stencil rows (4 points x orb_stride coefficients each)
   before accumulating, so their cache misses overlap. */
static inline void prefetch_stencil(const table *tb, int f32, long ix,
                                    long iy, long iz)
{
  const long elt = f32 ? 4 : 8;
  const long bytes = 4 * tb->orb_stride * elt;
  for (int a = 0; a < 4; a++)
    for (int b = 0; b < 4; b++) {
      const char *r = (const char *)tb->coeffs
                      + row_of(tb, ix, iy, iz, a, b) * tb->orb_stride * elt;
      for (long off = 0; off < bytes; off += 64) __builtin_prefetch(r + off);
    }
}

/* ---------- Bspline-v ---------- */

/* [f32] is a constant at each call site, so each precision gets its own
   branch-free copy of the loops. */
static inline __attribute__((always_inline)) void
accum_v(const table *tb, int f32, long ix, long iy, long iz,
        const double *wx, const double *wy, const double *wz,
        double *restrict out)
{
  const long stride = tb->orb_stride;
  prefetch_stencil(tb, f32, ix, iy, iz);
  for (long m0 = 0; m0 < tb->n_orb; m0 += BLOCK) {
    const long w = tb->n_orb - m0 < BLOCK ? tb->n_orb - m0 : BLOCK;
    double acc[BLOCK];
    for (long j = 0; j < w; j++) acc[j] = 0.;
    for (int a = 0; a < 4; a++)
      for (int b = 0; b < 4; b++) {
        const double wab = wx[a] * wy[b];
        const long row = row_of(tb, ix, iy, iz, a, b);
        for (int c = 0; c < 4; c++) {
          const double p = wab * wz[c];
          const long base = (row + c) * stride + m0;
          const float *restrict cf32 = (const float *)tb->coeffs + base;
          const double *restrict cf64 = (const double *)tb->coeffs + base;
          for (long j = 0; j < w; j++)
            acc[j] += p * (f32 ? (double)cf32[j] : cf64[j]);
        }
      }
    for (long j = 0; j < w; j++) out[m0 + j] = acc[j];
  }
}

/* One out-of-line copy per precision.  Kept as functions rather than
   inlined into the entry points: their restrict parameters let gcc
   vectorize without alias checks (inlined, vgh measured 2x slower). */
static void eval_v_f32(const table *tb, long ix, long iy, long iz,
                       const double *wx, const double *wy, const double *wz,
                       double *restrict out)
{
  accum_v(tb, 1, ix, iy, iz, wx, wy, wz, out);
}

static void eval_v_f64(const table *tb, long ix, long iy, long iz,
                       const double *wx, const double *wy, const double *wz,
                       double *restrict out)
{
  accum_v(tb, 0, ix, iy, iz, wx, wy, wz, out);
}

CAMLprim value ENTRY(oqmc_bspline_v)(value t, double u0, double u1,
                                     double u2, value out)
{
  table tb;
  table_of(t, &tb);
  double tx, ty, tz, wx[4], wy[4], wz[4];
  long ix = locate(u0, tb.nx, &tx);
  long iy = locate(u1, tb.ny, &ty);
  long iz = locate(u2, tb.nz, &tz);
  w_value(tx, wx);
  w_value(ty, wy);
  w_value(tz, wz);
  if (tb.f32)
    eval_v_f32(&tb, ix, iy, iz, wx, wy, wz, (double *)out);
  else
    eval_v_f64(&tb, ix, iy, iz, wx, wy, wz, (double *)out);
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_bspline_v_byte)(value t, value u0, value u1,
                                          value u2, value out)
{
  return ENTRY(oqmc_bspline_v)(t, Double_val(u0), Double_val(u1),
                               Double_val(u2), out);
}

/* ---------- Bspline-vgh ---------- */

/* Result fields, in vgh_buf order. */
enum { V, GX, GY, GZ, HXX, HXY, HXZ, HYY, HYZ, HZZ, NF };

static inline __attribute__((always_inline)) void
accum_vgh(const table *tb, int f32, long ix, long iy, long iz,
          const double (*restrict prod)[NF], double *restrict *out)
{
  const long stride = tb->orb_stride;
  const double fx = (double)tb->nx, fy = (double)tb->ny, fz = (double)tb->nz;
  prefetch_stencil(tb, f32, ix, iy, iz);
  for (long m0 = 0; m0 < tb->n_orb; m0 += BLOCK) {
    const long w = tb->n_orb - m0 < BLOCK ? tb->n_orb - m0 : BLOCK;
    double acc[NF][BLOCK];
    for (int f = 0; f < NF; f++)
      for (long j = 0; j < w; j++) acc[f][j] = 0.;
    int q = 0;
    for (int a = 0; a < 4; a++)
      for (int b = 0; b < 4; b++) {
        const long row = row_of(tb, ix, iy, iz, a, b);
        for (int c = 0; c < 4; c++, q++) {
          const double *p = prod[q];
          const long base = (row + c) * stride + m0;
          const float *restrict cf32 = (const float *)tb->coeffs + base;
          const double *restrict cf64 = (const double *)tb->coeffs + base;
          for (long j = 0; j < w; j++) {
            const double cf = f32 ? (double)cf32[j] : cf64[j];
            acc[V][j] += p[V] * cf;
            acc[GX][j] += p[GX] * cf;
            acc[GY][j] += p[GY] * cf;
            acc[GZ][j] += p[GZ] * cf;
            acc[HXX][j] += p[HXX] * cf;
            acc[HXY][j] += p[HXY] * cf;
            acc[HXZ][j] += p[HXZ] * cf;
            acc[HYY][j] += p[HYY] * cf;
            acc[HYZ][j] += p[HYZ] * cf;
            acc[HZZ][j] += p[HZZ] * cf;
          }
        }
      }
    /* t-space derivatives to fractional-coordinate derivatives:
       out = acc * sa * sb, where a factor 1 is exact. */
    const double sa[NF] = { 1., fx, fy, fz, fx, fx, fx, fy, fy, fz };
    const double sb[NF] = { 1., 1., 1., 1., fx, fy, fz, fy, fz, fz };
    for (int f = 0; f < NF; f++) {
      double *restrict o = out[f] + m0;
      for (long j = 0; j < w; j++) o[j] = acc[f][j] * sa[f] * sb[f];
    }
  }
}

static void eval_vgh_f32(const table *tb, long ix, long iy, long iz,
                         const double (*restrict prod)[NF],
                         double *restrict *out)
{
  accum_vgh(tb, 1, ix, iy, iz, prod, out);
}

static void eval_vgh_f64(const table *tb, long ix, long iy, long iz,
                         const double (*restrict prod)[NF],
                         double *restrict *out)
{
  accum_vgh(tb, 0, ix, iy, iz, prod, out);
}

CAMLprim value ENTRY(oqmc_bspline_vgh)(value t, double u0, double u1,
                                       double u2, value buf)
{
  table tb;
  table_of(t, &tb);
  double tx, ty, tz;
  long ix = locate(u0, tb.nx, &tx);
  long iy = locate(u1, tb.ny, &ty);
  long iz = locate(u2, tb.nz, &tz);
  double wx[4], wy[4], wz[4], dx[4], dy[4], dz[4], sx[4], sy[4], sz[4];
  w_value(tx, wx);
  w_value(ty, wy);
  w_value(tz, wz);
  w_first(tx, dx);
  w_first(ty, dy);
  w_first(tz, dz);
  w_second(tx, sx);
  w_second(ty, sy);
  w_second(tz, sz);
  /* The 64x10 weight products, in stencil order. */
  double prod[64][NF];
  int q = 0;
  for (int a = 0; a < 4; a++)
    for (int b = 0; b < 4; b++)
      for (int c = 0; c < 4; c++, q++) {
        double *p = prod[q];
        p[V] = wx[a] * wy[b] * wz[c];
        p[GX] = dx[a] * wy[b] * wz[c];
        p[GY] = wx[a] * dy[b] * wz[c];
        p[GZ] = wx[a] * wy[b] * dz[c];
        p[HXX] = sx[a] * wy[b] * wz[c];
        p[HXY] = dx[a] * dy[b] * wz[c];
        p[HXZ] = dx[a] * wy[b] * dz[c];
        p[HYY] = wx[a] * sy[b] * wz[c];
        p[HYZ] = wx[a] * dy[b] * dz[c];
        p[HZZ] = wx[a] * wy[b] * sz[c];
      }
  double *out[NF];
  for (int f = 0; f < NF; f++) out[f] = (double *)Field(buf, f);
  if (tb.f32)
    eval_vgh_f32(&tb, ix, iy, iz, (const double (*)[NF])prod, out);
  else
    eval_vgh_f64(&tb, ix, iy, iz, (const double (*)[NF])prod, out);
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_bspline_vgh_byte)(value t, value u0, value u1,
                                            value u2, value buf)
{
  return ENTRY(oqmc_bspline_vgh)(t, Double_val(u0), Double_val(u1),
                                 Double_val(u2), buf);
}
