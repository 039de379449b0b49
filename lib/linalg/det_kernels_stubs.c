/* DetUpdate: the determinant-ratio dots and inverse updates of
   Sherman_morrison, Delayed_update and the blocked flush of Blas.

   B = M⁻ᵀ is a padded row-major bigarray (Matrix.t: data, rows, cols,
   ld) at the inverse precision, f32 or f64, read from its kind.  Every
   value is widened to double on load and every sum accumulates in
   double; stores into B narrow once, at the store.

   Entry points:
   - oqmc_sm_dots / oqmc_du_dots: the ratio-style dots of row r of the
     (implicit) inverse against cnt stored vectors, src[pos + c·n ..];
   - oqmc_sm_vgl_dots / oqmc_du_vgl_dots: the same for a proposal's SPO
     result: its values narrowed into psiv (the ratio), then its three
     gradient components;
   - oqmc_sm_ratio: one row dot into dst.(j);
   - oqmc_sm_update: the Sherman–Morrison rank-1 update of B;
   - oqmc_du_accept: queue one accepted row (bordered extension of S⁻¹,
     flushing on a repeat and when full); returns 1 on a singular Schur
     complement, for the OCaml side to raise;
   - oqmc_du_flush: apply the queue (T = S⁻ᵀW, then the blocked
     Y = B₀Vᵀ and B₀ −= Y·T);
   - oqmc_blas_mul_vt / oqmc_blas_rank_update: the blocked flush
     kernels on their own.

   The delayed dots evaluate ρ(r, x) = B₀[r]·x − Σ_j p_j w_j with
   p_j = B₀[r_j]·x and w = S⁻¹q, q_i = v_i·B₀[r] − δ(r_i, r).  q and w
   depend on the row only, so one call computes them once for all its
   vectors; each is the same in-order chain as a per-vector recompute,
   so the results are bit-identical to it.

   States are OCaml records read by field index (the enums below follow
   the field order in matrix.ml, sherman_morrison.ml and
   delayed_update.ml); the OCaml side checks rows and lengths before
   calling in, and C does no bounds checks.  Bit-identity with the OCaml
   loops kept as test oracles (test/det_oracle.ml) rests on the same
   expressions in the same order, -ffp-contract=off, and every reduction
   being one sequential chain in index order: independent chains run
   side by side, and only element-wise loops (row updates, the flush
   apply) vectorize.

   Defining OQMC_DET_NOVEC renames the entry points with a _novec
   suffix, so the benchmark can link a second copy of this file built
   with -fno-tree-vectorize next to the library's. */

#include <math.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#ifndef FLAT_FLOAT_ARRAY
#error "det_kernels_stubs.c needs an OCaml built with flat float arrays"
#endif

#ifdef OQMC_DET_NOVEC
#define ENTRY(name) name##_novec
#else
#define ENTRY(name) name
#endif

/* Field order of Matrix.Make(R).t. */
enum { M_DATA, M_ROWS, M_COLS, M_LD };

/* Field order of Sherman_morrison.Make(R).workspace. */
enum { W_Y, W_RK, W_XV, W_RATIO };

/* Field order of Delayed_update.Make(R).t. */
enum {
  D_BD, D_LD, D_N, D_DELAY, D_K, D_ROWS, D_VS, D_BROWS, D_SINV, D_W, D_Y,
  D_TM, D_RSCR, D_EXT
};

/* Field order of Spo.vgl. */
enum { V_V, V_GX, V_GY, V_GZ };

#define FA(v) ((double *)(v))
#define INLINE static inline __attribute__((always_inline))

static inline int is_f32(value ba)
{
  return (Caml_ba_array_val(ba)->flags & CAML_BA_KIND_MASK)
         == CAML_BA_FLOAT32;
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

/* Element [o] of storage [p] of kind [f32]. */
static inline void *elt(void *p, int f32, long o)
{
  return f32 ? (void *)((float *)p + o) : (void *)((double *)p + o);
}

static inline const void *elt_c(const void *p, int f32, long o)
{
  return f32 ? (const void *)((const float *)p + o)
             : (const void *)((const double *)p + o);
}

/* [n] entries of a bigarray from element [o], widened into [x]. */
static void load_row(value ba, long o, long n, double *restrict x)
{
  if (is_f32(ba)) {
    const float *p = (const float *)Caml_ba_data_val(ba) + o;
    for (long b = 0; b < n; b++) x[b] = (double)p[b];
  } else {
    const double *p = (const double *)Caml_ba_data_val(ba) + o;
    for (long b = 0; b < n; b++) x[b] = p[b];
  }
}

/* [n] doubles, rounded through f32 when [f32]: the value an f32 store
   and reload gives. */
static void narrow_row(const double *src, int f32, long n, double *restrict x)
{
  if (f32)
    for (long b = 0; b < n; b++) x[b] = (double)(float)src[b];
  else
    for (long b = 0; b < n; b++) x[b] = src[b];
}

/* ---------- dots ---------- */

/* out[q] = Σ_b a[q][b] · x[q][b] for q < cnt, each one chain in index
   order; four chains run side by side. */
static void dots(const double *const *a, const double *const *x, long cnt,
                 long n, double *out)
{
  long q = 0;
  for (; q + 4 <= cnt; q += 4) {
    const double *a0 = a[q], *a1 = a[q + 1], *a2 = a[q + 2], *a3 = a[q + 3];
    const double *x0 = x[q], *x1 = x[q + 1], *x2 = x[q + 2], *x3 = x[q + 3];
    double s0 = 0., s1 = 0., s2 = 0., s3 = 0.;
    for (long b = 0; b < n; b++) {
      s0 += a0[b] * x0[b];
      s1 += a1[b] * x1[b];
      s2 += a2[b] * x2[b];
      s3 += a3[b] * x3[b];
    }
    out[q] = s0;
    out[q + 1] = s1;
    out[q + 2] = s2;
    out[q + 3] = s3;
  }
  for (; q < cnt; q++) {
    const double *a0 = a[q], *x0 = x[q];
    double s0 = 0.;
    for (long b = 0; b < n; b++) s0 += a0[b] * x0[b];
    out[q] = s0;
  }
}

/* Pairs per [dots] call: the callers below hand their (row, vector)
   pairs over in chunks of this many. */
#define PAIRS 32

/* Dots of row [rs] against [cnt] vectors xs[c] (n doubles each), with
   the delayed correction by [k] pending rows (brows, w) when k > 0:
   out[c] = rs·x_c − Σ_j (brows_j·x_c) w_j. */
static void corrected(const double *rs, const double *brows,
                      const double *w, long k, const double *const *xs,
                      long cnt, long n, double *out)
{
  /* Pair p = (row p / cnt, vector p mod cnt): row 0 is rs, row 1 + j is
     brows_j. */
  const long np = (k + 1) * cnt;
  double acc[np];
  for (long p0 = 0; p0 < np; p0 += PAIRS) {
    const long pc = np - p0 < PAIRS ? np - p0 : PAIRS;
    const double *a[PAIRS], *x[PAIRS];
    for (long q = 0; q < pc; q++) {
      const long r = (p0 + q) / cnt;
      a[q] = r == 0 ? rs : brows + (r - 1) * n;
      x[q] = xs[(p0 + q) % cnt];
    }
    dots(a, x, pc, n, acc + p0);
  }
  for (long c = 0; c < cnt; c++) {
    double corr = 0.;
    for (long j = 0; j < k; j++) corr += acc[(1 + j) * cnt + c] * w[j];
    out[c] = k == 0 ? acc[c] : acc[c] - corr;
  }
}

/* out[i] = a_i·x for the [k] rows a_i = rows + i·n (x shared). */
static void rows_dot(const double *rows, const double *x, long k, long n,
                     double *out)
{
  for (long i0 = 0; i0 < k; i0 += PAIRS) {
    const long pc = k - i0 < PAIRS ? k - i0 : PAIRS;
    const double *a[PAIRS], *xs[PAIRS];
    for (long q = 0; q < pc; q++) {
      a[q] = rows + (i0 + q) * n;
      xs[q] = x;
    }
    dots(a, xs, pc, n, out + i0);
  }
}

/* B₀[r] into rscr and, with k pending rows, w = S⁻¹q. */
static void du_prepare(value t, long r)
{
  const long n = Long_val(Field(t, D_N)), ld = Long_val(Field(t, D_LD));
  const long k = Long_val(Field(t, D_K)), dl = Long_val(Field(t, D_DELAY));
  double *rs = FA(Field(t, D_RSCR));
  load_row(Field(t, D_BD), r * ld, n, rs);
  if (k == 0) return;
  const double *vs = FA(Field(t, D_VS)), *sinv = FA(Field(t, D_SINV));
  double *q = FA(Field(t, D_EXT)), *w = FA(Field(t, D_W));
  value rows = Field(t, D_ROWS);
  rows_dot(vs, rs, k, n, q);
  for (long i = 0; i < k; i++)
    if (Long_val(Field(rows, i)) == r) q[i] = q[i] - 1.;
  for (long j = 0; j < k; j++) {
    double acc = 0.;
    for (long i = 0; i < k; i++) acc += sinv[j * dl + i] * q[i];
    w[j] = acc;
  }
}

static void du_corrected(value t, const double *const *xs, long cnt,
                         double *out)
{
  corrected(FA(Field(t, D_RSCR)), FA(Field(t, D_BROWS)), FA(Field(t, D_W)),
            Long_val(Field(t, D_K)), xs, cnt, Long_val(Field(t, D_N)), out);
}

static inline long out_len(value out)
{
  return (long)(Wosize_val(out) / Double_wosize);
}

/* Row r of B against cnt = length(out) stored vectors src[pos + c·n]. */
CAMLprim value ENTRY(oqmc_sm_dots)(value bm, value vr, value src,
                                   value vpos, value out)
{
  const long n = Long_val(Field(bm, M_COLS)), ld = Long_val(Field(bm, M_LD));
  const long cnt = out_len(out), pos = Long_val(vpos);
  double rs[n], xb[cnt * n];
  const double *xs[cnt];
  load_row(Field(bm, M_DATA), Long_val(vr) * ld, n, rs);
  for (long c = 0; c < cnt; c++) {
    load_row(src, pos + c * n, n, xb + c * n);
    xs[c] = xb + c * n;
  }
  corrected(rs, NULL, NULL, 0, xs, cnt, n, FA(out));
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_du_dots)(value t, value vr, value src, value vpos,
                                   value out)
{
  const long n = Long_val(Field(t, D_N)), cnt = out_len(out);
  const long pos = Long_val(vpos);
  double xb[cnt * n];
  const double *xs[cnt];
  du_prepare(t, Long_val(vr));
  for (long c = 0; c < cnt; c++) {
    load_row(src, pos + c * n, n, xb + c * n);
    xs[c] = xb + c * n;
  }
  du_corrected(t, xs, cnt, FA(out));
  return Val_unit;
}

/* psiv := vgl.v narrowed to its kind; xs[0] = psiv as stored, xs[1..3]
   = the gradient components, narrowed like psiv when [narrow]. */
static void vgl_rows(value vgl, value psiv, long n, int narrow, double *xb,
                     const double **xs)
{
  const int f32 = is_f32(psiv);
  const double *v = FA(Field(vgl, V_V));
  void *p = Caml_ba_data_val(psiv);
  for (long b = 0; b < n; b++) STORE(p, f32, b, v[b]);
  load_row(psiv, 0, n, xb);
  for (int c = 1; c < 4; c++)
    narrow_row(FA(Field(vgl, V_V + c)), narrow && f32, n, xb + c * n);
  for (int c = 0; c < 4; c++) xs[c] = xb + c * n;
}

CAMLprim value ENTRY(oqmc_sm_vgl_dots)(value bm, value vr, value psiv,
                                       value vgl, value out)
{
  const long n = Long_val(Field(bm, M_COLS)), ld = Long_val(Field(bm, M_LD));
  double rs[n], xb[4 * n];
  const double *xs[4];
  load_row(Field(bm, M_DATA), Long_val(vr) * ld, n, rs);
  vgl_rows(vgl, psiv, n, 0, xb, xs);
  corrected(rs, NULL, NULL, 0, xs, 4, n, FA(out));
  return Val_unit;
}

/* The gradient components are narrowed only while a queue is pending:
   with none, the dot is the plain row dot against the double values. */
CAMLprim value ENTRY(oqmc_du_vgl_dots)(value t, value vr, value psiv,
                                       value vgl, value out)
{
  const long n = Long_val(Field(t, D_N));
  double xb[4 * n];
  const double *xs[4];
  du_prepare(t, Long_val(vr));
  vgl_rows(vgl, psiv, n, Long_val(Field(t, D_K)) > 0, xb, xs);
  du_corrected(t, xs, 4, FA(out));
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_sm_ratio)(value bm, value vr, value v, value dst,
                                    value vj)
{
  const long n = Long_val(Field(bm, M_COLS)), ld = Long_val(Field(bm, M_LD));
  double rs[n], x[n];
  const double *xs[1] = { x };
  load_row(Field(bm, M_DATA), Long_val(vr) * ld, n, rs);
  load_row(v, 0, n, x);
  corrected(rs, NULL, NULL, 0, xs, 1, n, FA(dst) + Long_val(vj));
  return Val_unit;
}

/* ---------- row updates ---------- */

/* B[a][b] += y · x[b] over one row, narrowing at the store. */
INLINE void axpy_core(int f32, void *restrict row, double y,
                      const double *restrict x, long n)
{
  for (long b = 0; b < n; b++)
    STORE(row, f32, b, LOAD(row, f32, b) + y * x[b]);
}

static void axpy_f64(void *restrict row, double y, const double *restrict x,
                     long n)
{
  axpy_core(0, row, y, x, n);
}

static void axpy_f32(void *restrict row, double y, const double *restrict x,
                     long n)
{
  axpy_core(1, row, y, x, n);
}


/* Sherman–Morrison, ratio in ws.ratio.(0):
   y = B x − e_r, c = −1/ratio, B[i] += (c y_i) B[r] (pre-update). */
CAMLprim value ENTRY(oqmc_sm_update)(value bm, value vr, value v, value ws)
{
  const long n = Long_val(Field(bm, M_ROWS)), ld = Long_val(Field(bm, M_LD));
  const long r = Long_val(vr);
  value data = Field(bm, M_DATA);
  const int f32 = is_f32(data);
  double *y = FA(Field(ws, W_Y)), *rk = FA(Field(ws, W_RK));
  double *xv = FA(Field(ws, W_XV));
  const double ratio = FA(Field(ws, W_RATIO))[0];
  double bb[4 * n];
  load_row(v, 0, n, xv);
  /* y_i = B[i]·x, four rows per pass. */
  for (long i = 0; i < n; i += 4) {
    const long c = n - i < 4 ? n - i : 4;
    for (long q = 0; q < c; q++) load_row(data, (i + q) * ld, n, bb + q * n);
    rows_dot(bb, xv, c, n, y + i);
  }
  y[r] = y[r] - 1.;
  load_row(data, r * ld, n, rk);
  const double c = -1. / ratio;
  for (long i = 0; i < n; i++) y[i] = c * y[i];
  for (long i = 0; i < n; i++)
    if (y[i] != 0.) (f32 ? axpy_f32 : axpy_f64)(elt(Caml_ba_data_val(data), f32, i * ld), y[i], rk, n);
  return Val_unit;
}

/* ---------- blocked flush ---------- */

/* Lanes of the flush kernels: eight queued vectors side by side. */
#define LANES 8

/* y[a·ystride + i0 + l] = B[a]·vs_{i0+l} for l < kl, over every row a
   of B; [vt] holds the kl vectors interleaved (vt[b·LANES + l], zero
   lanes beyond kl).  Eight rows at a time: each row's LANES dots share
   one vector register, every lane one in-order sum over b. */
INLINE void mul_vt_core(int f32, const void *data, long n, long cols,
                        long ld, const double *restrict vt, long kl,
                        double *y, long ystride)
{
  for (long a0 = 0; a0 < n; a0 += 8) {
    const long nq = n - a0 < 8 ? n - a0 : 8;
    const void *r[8];
    for (long q = 0; q < 8; q++)
      r[q] = elt_c(data, f32, (a0 + (q < nq ? q : 0)) * ld);
    double acc[8][LANES] = { { 0. } };
    for (long b = 0; b < cols; b++) {
      const double *v = vt + b * LANES;
      for (int q = 0; q < 8; q++) {
        const double x = LOAD(r[q], f32, b);
        for (int l = 0; l < LANES; l++) acc[q][l] += x * v[l];
      }
    }
    for (long q = 0; q < nq; q++)
      for (long l = 0; l < kl; l++) y[(a0 + q) * ystride + l] = acc[q][l];
  }
}

static void mul_vt_f64(const void *d, long n, long c, long ld,
                       const double *vt, long kl, double *y, long ys)
{
  mul_vt_core(0, d, n, c, ld, vt, kl, y, ys);
}

static void mul_vt_f32(const void *d, long n, long c, long ld,
                       const double *vt, long kl, double *y, long ys)
{
  mul_vt_core(1, d, n, c, ld, vt, kl, y, ys);
}

/* y[a·ystride + i] = B[a]·vs_i for i < k (vs_i at vs + i·cols), the
   queued vectors taken LANES at a time. */
static void mul_vt(value bm, const double *vs, long k, double *y,
                   long ystride)
{
  const long n = Long_val(Field(bm, M_ROWS)), cols = Long_val(Field(bm, M_COLS));
  const long ld = Long_val(Field(bm, M_LD));
  value data = Field(bm, M_DATA);
  double vt[cols * LANES];
  for (long i0 = 0; i0 < k; i0 += LANES) {
    const long kl = k - i0 < LANES ? k - i0 : LANES;
    for (long b = 0; b < cols; b++)
      for (long l = 0; l < LANES; l++)
        vt[b * LANES + l] = l < kl ? vs[(i0 + l) * cols + b] : 0.;
    (is_f32(data) ? mul_vt_f32 : mul_vt_f64)(Caml_ba_data_val(data), n,
                                              cols, ld, vt, kl, y + i0,
                                              ystride);
  }
}

/* B −= Y·T over one staged row segment s[0, len) at column b0: ranks
   in groups of four, then a pair, then singly (skipping zero
   coefficients), each element one left-to-right chain. */
INLINE void apply_ranks(double *restrict s, long len, long b0,
                        const double *yb, const double *restrict tm,
                        long cols, long k)
{
  long i = 0;
  for (; i + 4 <= k; i += 4) {
    const double c0 = yb[i], c1 = yb[i + 1], c2 = yb[i + 2], c3 = yb[i + 3];
    const double *t0 = tm + i * cols + b0, *t1 = t0 + cols;
    const double *t2 = t1 + cols, *t3 = t2 + cols;
    for (long b = 0; b < len; b++)
      s[b] = s[b] - c0 * t0[b] - c1 * t1[b] - c2 * t2[b] - c3 * t3[b];
  }
  if (i + 2 <= k) {
    const double c0 = yb[i], c1 = yb[i + 1];
    const double *t0 = tm + i * cols + b0, *t1 = t0 + cols;
    for (long b = 0; b < len; b++) s[b] = s[b] - c0 * t0[b] - c1 * t1[b];
    i += 2;
  }
  for (; i < k; i++) {
    const double c = yb[i];
    if (c != 0.) {
      const double *t = tm + i * cols + b0;
      for (long b = 0; b < len; b++) s[b] = s[b] - c * t[b];
    }
  }
}

#define COL_BLOCK 512

/* B −= Y·T (T's rows at tm + i·cols), column-blocked so the T panel
   stays in L1; each row segment is staged in double once and narrowed
   once. */
INLINE void rank_core(int f32, void *data, long n, long cols, long ld,
                      const double *y, long ystride, const double *tm,
                      long k)
{
  double s[COL_BLOCK];
  for (long b0 = 0; b0 < cols; b0 += COL_BLOCK) {
    const long len = cols - b0 < COL_BLOCK ? cols - b0 : COL_BLOCK;
    for (long a = 0; a < n; a++) {
      void *p = elt(data, f32, a * ld + b0);
      for (long b = 0; b < len; b++) s[b] = LOAD(p, f32, b);
      apply_ranks(s, len, b0, y + a * ystride, tm, cols, k);
      for (long b = 0; b < len; b++) STORE(p, f32, b, s[b]);
    }
  }
}

static void rank_f64(void *d, long n, long c, long ld, const double *y,
                     long ys, const double *tm, long k)
{
  rank_core(0, d, n, c, ld, y, ys, tm, k);
}

static void rank_f32(void *d, long n, long c, long ld, const double *y,
                     long ys, const double *tm, long k)
{
  rank_core(1, d, n, c, ld, y, ys, tm, k);
}

static void rank_update(value bm, const double *y, long ystride,
                        const double *tm, long k)
{
  value data = Field(bm, M_DATA);
  (is_f32(data) ? rank_f32 : rank_f64)(
      Caml_ba_data_val(data), Long_val(Field(bm, M_ROWS)),
      Long_val(Field(bm, M_COLS)), Long_val(Field(bm, M_LD)), y, ystride,
      tm, k);
}

CAMLprim value ENTRY(oqmc_blas_mul_vt)(value bm, value vs, value y, value vk,
                                       value ystride)
{
  mul_vt(bm, FA(vs), Long_val(vk), FA(y), Long_val(ystride));
  return Val_unit;
}

CAMLprim value ENTRY(oqmc_blas_rank_update)(value bm, value y, value tm,
                                            value vk, value ystride)
{
  rank_update(bm, FA(y), Long_val(ystride), FA(tm), Long_val(vk));
  return Val_unit;
}

/* ---------- delayed update ---------- */

/* B₀ ← B₀ − Y S⁻ᵀ W with Y = B₀Vᵀ − E and W = brows. */
static void du_flush(value t, value binv)
{
  const long k = Long_val(Field(t, D_K));
  if (k == 0) return;
  const long n = Long_val(Field(t, D_N)), dl = Long_val(Field(t, D_DELAY));
  const double *sinv = FA(Field(t, D_SINV)), *brows = FA(Field(t, D_BROWS));
  double *tm = FA(Field(t, D_TM)), *y = FA(Field(t, D_Y));
  value rows = Field(t, D_ROWS);
  /* T(i,:) = Σ_j S⁻¹(j,i) · brows(j,:). */
  for (long i = 0; i < k; i++) {
    double *restrict ti = tm + i * n;
    for (long b = 0; b < n; b++) ti[b] = 0.;
    for (long j = 0; j < k; j++) {
      const double c = sinv[j * dl + i];
      if (c != 0.) {
        const double *restrict wj = brows + j * n;
        for (long b = 0; b < n; b++) ti[b] = ti[b] + c * wj[b];
      }
    }
  }
  mul_vt(binv, FA(Field(t, D_VS)), k, y, dl);
  for (long i = 0; i < k; i++) {
    const long yi = Long_val(Field(rows, i)) * dl + i;
    y[yi] = y[yi] - 1.;
  }
  rank_update(binv, y, dl, tm, k);
  Field(t, D_K) = Val_long(0);
}

CAMLprim value ENTRY(oqmc_du_flush)(value t, value binv)
{
  du_flush(t, binv);
  return Val_unit;
}

/* Extend S⁻¹ by the bordered row/column of queue entry k via the Schur
   complement; 1 when the complement is (numerically) zero. */
static int extend_sinv(value t, long k)
{
  const long n = Long_val(Field(t, D_N)), dl = Long_val(Field(t, D_DELAY));
  const double *vs = FA(Field(t, D_VS)), *brows = FA(Field(t, D_BROWS));
  double *sinv = FA(Field(t, D_SINV)), *ext = FA(Field(t, D_EXT));
  double *bc = ext, *cc = ext + dl, *sb = ext + 2 * dl, *cs = ext + 3 * dl;
  const double *bk = brows + k * n, *vk = vs + k * n;
  /* b_i = brows_k·v_i, c_i = brows_i·v_k, d = brows_k·v_k. */
  double acc[2 * k + 1];
  for (long p0 = 0; p0 < 2 * k + 1; p0 += PAIRS) {
    const long pc = 2 * k + 1 - p0 < PAIRS ? 2 * k + 1 - p0 : PAIRS;
    const double *a[PAIRS], *x[PAIRS];
    for (long q = 0; q < pc; q++) {
      const long p = p0 + q, i = p / 2;
      a[q] = p == 2 * k ? bk : p % 2 == 0 ? vs + i * n : brows + i * n;
      x[q] = p == 2 * k ? vk : p % 2 == 0 ? bk : vk;
    }
    dots(a, x, pc, n, acc + p0);
  }
  for (long i = 0; i < k; i++) {
    bc[i] = acc[2 * i];
    cc[i] = acc[2 * i + 1];
  }
  double schur = acc[2 * k];
  /* sb = S⁻¹ b, cs = c S⁻¹, schur = d − c S⁻¹ b. */
  for (long i = 0; i < k; i++) {
    double s = 0.;
    for (long j = 0; j < k; j++) s += sinv[i * dl + j] * bc[j];
    sb[i] = s;
  }
  for (long j = 0; j < k; j++) {
    double s = 0.;
    for (long i = 0; i < k; i++) s += cc[i] * sinv[i * dl + j];
    cs[j] = s;
  }
  for (long i = 0; i < k; i++) schur = schur - cc[i] * sb[i];
  if (fabs(schur) < 1e-300) return 1;
  const double inv_s = 1. / schur;
  for (long i = 0; i < k; i++)
    for (long j = 0; j < k; j++)
      sinv[i * dl + j] = sinv[i * dl + j] + sb[i] * cs[j] * inv_s;
  for (long i = 0; i < k; i++) {
    sinv[i * dl + k] = -sb[i] * inv_s;
    sinv[k * dl + i] = -cs[i] * inv_s;
  }
  sinv[k * dl + k] = inv_s;
  return 0;
}

/* Queue the replacement of row r by v; a repeat of a pending row
   flushes first, and a full queue flushes after. */
CAMLprim value ENTRY(oqmc_du_accept)(value t, value binv, value vr, value v)
{
  const long r = Long_val(vr);
  const long n = Long_val(Field(t, D_N)), ld = Long_val(Field(t, D_LD));
  value rows = Field(t, D_ROWS);
  long k = Long_val(Field(t, D_K));
  for (long i = 0; i < k; i++)
    if (Long_val(Field(rows, i)) == r) {
      du_flush(t, binv);
      k = 0;
      break;
    }
  Field(rows, k) = Val_long(r);
  load_row(v, 0, n, FA(Field(t, D_VS)) + k * n);
  load_row(Field(t, D_BD), r * ld, n, FA(Field(t, D_BROWS)) + k * n);
  if (extend_sinv(t, k)) return Val_int(1);
  Field(t, D_K) = Val_long(k + 1);
  if (k + 1 == Long_val(Field(t, D_DELAY))) du_flush(t, binv);
  return Val_int(0);
}
