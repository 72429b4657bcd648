"""The ``cc`` backend: the NumPy cores' arithmetic, compiled from C.

The NumPy cores (:meth:`BsplineBatched._numpy_v_core` /
``_numpy_vgh_core``) locate the positions, build their weights, gather a
``(chunk, 64, N)`` temporary and make ~10 einsum passes over it.  This
backend compiles (once, cached on disk) one C routine per kernel that
takes the positions themselves: it locates each one and builds its
weights with :meth:`BsplineBatched._locate_weights`' operations, then
walks the ghost-padded table directly, reading the 16 stencil rows once
(prefetching the next position's while it computes) and keeping every
partial sum in an L1-sized ``9 x N`` scratch, with no gather temporary
and no intermediate slabs.

It claims the **exact** tier because it performs the einsum cores'
floating-point operations in their order, element for element:

* locating is NumPy's float ``%`` (``fmod``, then ``+ n`` for a nonzero
  negative result, ``+0.0`` for a zero one), ``u >= n`` set to 0, a
  truncating cast and ``u - index``; the weights are
  :func:`~repro.core.basis.bspline_fused_weights`' polynomial, cast to
  the table dtype, then scaled in it;
* each of the three contractions (z, then y, then x) is a sequential
  multiply-then-add from zero over the reduced index, which is what
  NumPy's einsum does for a spline axis of length >= 2 (its inner loop
  runs over the spline axis, so every output element accumulates the
  reduced index in order);
* the Laplacian is ``(hxx + hyy) + hzz`` of the finished x sums;
* the Cartesian VGL entry (``repro_vgl_cart_*``, the ``cart`` core that
  :meth:`BsplineBatched.vgl_batch` runs with a
  :class:`~repro.core.batched.ChainRule`) runs ``repro_vgh_*`` on
  blocks of 16 positions, then casts each stream to float64 as
  ``astype`` does and
  applies the QMC adapter's chain rule: ``g_a = ((0.0 + B[a,0] g0) +
  B[a,1] g1) + B[a,2] g2``, einsum's order for ``"af,sfn->san"``, and
  the Laplacian ``((M00 hxx + M11 hyy) + M22 hzz) + 2 ((M01 hxy + M02
  hxz) + M12 hyz)`` with the zero terms of a diagonal ``M`` kept, since
  they decide the sign of a zero;
* the build flags keep each ``+`` and ``*`` a separately rounded IEEE
  operation (``-ffp-contract=off``: no fused multiply-add; nothing like
  ``-ffast-math`` that would reassociate).  Vectorising the spline axis
  is exact, since its elements never mix.

Two cases are handed to the NumPy cores instead:

* a single-spline table (``N == 1``): einsum then reduces over a
  contiguous length-4 axis with a different (pairwise, dtype-dependent)
  summation order, and sums the chain rule in another order too, so for
  such tables :meth:`CcBackend.make_cores` returns NumPy's cores and no
  Cartesian one;
* a chunk with a non-finite coordinate or a stencil base row outside
  the padded table.  The C routines locate every position before
  reading any row, and report the chunk back; it then runs on the NumPy
  core, which raises exactly what the NumPy backend raises
  (``IndexError``: ``locate_batch`` casts NaN to ``-2**63``) or returns
  its bits.

The library also carries the crowd sweep's float64 per-electron math
(see :mod:`repro.qmc.batched_step`): the proposal with its committed
Jastrow gradients and limited drift (``repro_crowd_propose``), the trial
rows and radials (``repro_crowd_rows``), the trial glue up to the
``exp``/``log`` of the acceptance (``repro_crowd_trial``: where-divide,
u-sums, Jastrow gradients, drift, Green's ratio) and the masked commit
(``repro_crowd_commit``).  Its last-axis sums repeat NumPy's pairwise
summation (``pairwise``: a running sum below 8 terms, eight accumulators
up to 128, halves above; ``np.add.reduce`` returns ``0.0 +`` that).  It
shares this build, cache key and load but has its own gate there, which
also holds ``repro_row_sums`` to ``np.add.reduce`` at every length from
1 to 300.

The registry proves all of this once per process: the lazy conformance
gate (:mod:`repro.backends.conformance`) compares every stream with the
oracle's bit for bit, the sign of every zero included, before the
backend serves a kernel, so a compiler or NumPy build that breaks the
order is refused and the default falls back to NumPy.

Toolchain: ``cc`` on ``PATH`` (override with ``REPRO_CC``), flags
:data:`_CFLAGS`, linked with ``-lm``.  Shared objects are cached in
``$REPRO_CC_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/ccbackend``, else
``~/.cache/repro/ccbackend``, keyed by a hash of the source, compiler,
flags and the CPU ``-march=native`` targets, so every later process
(spawned fleet workers included) loads the first one's build.  Any
failure to build or load (no compiler, an unusable cache directory, a
compile error, a library that does not load) raises
:class:`~repro.backends.base.BackendUnavailable` naming the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.backends.base import (
    BackendCapability,
    BackendCores,
    BackendUnavailable,
    KernelBackend,
)
from repro.core.basis import _FUSED_C0, _FUSED_C1, _FUSED_C2, _FUSED_C3

__all__ = ["CcBackend"]

# Helpers every routine shares (not templated: all float64 arithmetic).
_COMMON = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Positions per repro_vgh_* call inside repro_vgl_cart_*: a crowd's
 * trial batch in one call, and a block whose VGH streams stay in L2. */
#define CART_BLOCK 16

/* NumPy's float `%` by a positive n (npy_divmod): fmod, then n added to a
 * nonzero negative result; a zero result is +0.0 and NaN stays NaN. */
static double grid_mod(double a, double n)
{
    double m = fmod(a, n);
    if (m != 0.0) {
        if (m < 0.0) m += n;
    } else {
        m = 0.0;
    }
    return m;
}

/* Grid3D.locate_batch plus BsplineBatched's base row, per position:
 * u = (p * inv) % n per axis, u >= n becomes 0, the cell index is the
 * truncated u and the fraction u - index (geom = inv[3], n[3]).  Returns
 * 0 at the first non-finite coordinate or base row outside [0, last]. */
static int locate(const double *restrict pos, int64_t ns,
                  const double *restrict geom, int64_t sy, int64_t sz,
                  int64_t last, int64_t *restrict base, double *restrict t)
{
    for (int64_t s = 0; s < ns; ++s) {
        int64_t idx[3];
        for (int a = 0; a < 3; ++a) {
            const double n = geom[3 + a];
            double u = grid_mod(pos[3 * s + a] * geom[a], n);
            if (isnan(u)) return 0;
            if (u >= n) u = 0.0;
            idx[a] = (int64_t) u;
            t[3 * s + a] = u - (double) idx[a];
        }
        base[s] = idx[0] * sy + idx[1] * sz + idx[2];
        if (base[s] < 0 || base[s] > last) return 0;
    }
    return 1;
}

/* bspline_fused_weights' weight of (order o, tap q) at t, with t2 = t*t
 * and t3 = t2*t: ((c3*t3 + c2*t2) + c1*t) + c0, where `wc` holds the
 * (power, order, tap) coefficients c3, c2, c1, c0. */
static inline double fused_weight(const double *restrict wc, int o, int q,
                                  double t, double t2, double t3)
{
    const int k = 4 * o + q;
    return ((wc[k] * t3 + wc[12 + k] * t2) + wc[24 + k] * t) + wc[36 + k];
}
"""

# One routine per (kernel, dtype); {REAL}/{SUFFIX} are templated below.
# Every accumulator starts at zero and adds one rounded product per
# reduced index, in index order: tz over c (z), then u over b (y), then
# the outputs over a (x) -- the einsum cores' order.  Each routine first
# locates every position (`locate` in _COMMON: base rows and fractions,
# as BsplineBatched._locate_weights computes them); a non-finite
# coordinate or a base row that would put the stencil outside the
# table's `rows` rows returns 2 before any read.  Then, per position,
# `weights_*` builds the (axis, order, tap) weights in the table dtype.
_C_TEMPLATE = r"""
#define W(axis, order) (wl + (3 * (axis) + (order)) * 4)

/* One position's weights: bspline_fused_weights' f64 values cast to the
 * table dtype, then scaled in it by the engine's (1, 1/delta, 1/delta^2)
 * per axis (`scale`, the engine's _weight_scale). */
static void weights_{SUFFIX}(const double *restrict t, const double *restrict wc,
                             const {REAL} *restrict scale, {REAL} *restrict wl)
{{
    for (int a = 0; a < 3; ++a) {{
        const double x = t[a], x2 = x * x, x3 = x2 * x;
        for (int o = 0; o < 3; ++o)
            for (int q = 0; q < 4; ++q)
                wl[(3 * a + o) * 4 + q] =
                    ({REAL}) fused_weight(wc, o, q, x, x2, x3) * scale[3 * a + o];
    }}
}}

/* Ask for the next position's 16 stencil rows while this one computes:
 * the table is far larger than cache and each position lands at random. */
static void prefetch_{SUFFIX}(const {REAL} *table, int64_t base, int64_t sy,
                              int64_t sz, int64_t N)
{{
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b) {{
            const char *row = (const char *)(table + (base + a * sy + b * sz) * N);
            for (size_t k = 0; k < 4 * (size_t)N * sizeof({REAL}); k += 64)
                __builtin_prefetch(row + k);
        }}
}}

/* One stencil row (4 z-points x N splines) into the y sums; a function of
 * its own so that GCC sees the restrict pointers and vectorizes over n. */
static void v_row_{SUFFIX}(
    const {REAL} *restrict row, int64_t N, const {REAL} *restrict z,
    {REAL} yb, {REAL} *restrict ty)
{{
    const {REAL} z0 = z[0], z1 = z[1], z2 = z[2], z3 = z[3];
    for (int64_t n = 0; n < N; ++n) {{
        {REAL} tz = 0;
        tz += row[n] * z0;
        tz += row[N + n] * z1;
        tz += row[2 * N + n] * z2;
        tz += row[3 * N + n] * z3;
        ty[n] += tz * yb;
    }}
}}

static void v_fold_{SUFFIX}(
    int64_t N, {REAL} xa, const {REAL} *restrict ty, {REAL} *restrict vs)
{{
    for (int64_t n = 0; n < N; ++n) vs[n] += ty[n] * xa;
}}

static void vgh_row_{SUFFIX}(
    const {REAL} *restrict row, int64_t N, const {REAL} *restrict z,
    const {REAL} *restrict dz, const {REAL} *restrict ez,
    {REAL} yb, {REAL} dyb, {REAL} d2yb,
    {REAL} *restrict u00, {REAL} *restrict u10, {REAL} *restrict u20,
    {REAL} *restrict u01, {REAL} *restrict u11, {REAL} *restrict u02)
{{
    const {REAL} z0 = z[0], z1 = z[1], z2 = z[2], z3 = z[3];
    const {REAL} dz0 = dz[0], dz1 = dz[1], dz2 = dz[2], dz3 = dz[3];
    const {REAL} ez0 = ez[0], ez1 = ez[1], ez2 = ez[2], ez3 = ez[3];
    for (int64_t n = 0; n < N; ++n) {{
        const {REAL} c0 = row[n], c1 = row[N + n],
                     c2 = row[2 * N + n], c3 = row[3 * N + n];
        {REAL} tz0 = 0, tz1 = 0, tz2 = 0;
        tz0 += c0 * z0;
        tz0 += c1 * z1;
        tz0 += c2 * z2;
        tz0 += c3 * z3;
        tz1 += c0 * dz0;
        tz1 += c1 * dz1;
        tz1 += c2 * dz2;
        tz1 += c3 * dz3;
        tz2 += c0 * ez0;
        tz2 += c1 * ez1;
        tz2 += c2 * ez2;
        tz2 += c3 * ez3;
        u00[n] += tz0 * yb;
        u10[n] += tz0 * dyb;
        u20[n] += tz0 * d2yb;
        u01[n] += tz1 * yb;
        u11[n] += tz1 * dyb;
        u02[n] += tz2 * yb;
    }}
}}

/* One x index a into the outputs; h's off-diagonals in x_fold_h. */
static void x_fold_{SUFFIX}(
    int64_t N, {REAL} xa, {REAL} dxa, {REAL} d2xa,
    const {REAL} *restrict u00, const {REAL} *restrict u10,
    const {REAL} *restrict u20, const {REAL} *restrict u01,
    const {REAL} *restrict u02,
    {REAL} *restrict vs, {REAL} *restrict gx, {REAL} *restrict gy,
    {REAL} *restrict gz, {REAL} *restrict hxx, {REAL} *restrict hyy,
    {REAL} *restrict hzz)
{{
    for (int64_t n = 0; n < N; ++n) {{
        vs[n] += u00[n] * xa;
        gx[n] += u00[n] * dxa;
        gy[n] += u10[n] * xa;
        gz[n] += u01[n] * xa;
        hxx[n] += u00[n] * d2xa;
        hyy[n] += u20[n] * xa;
        hzz[n] += u02[n] * xa;
    }}
}}

static void x_fold_h_{SUFFIX}(
    int64_t N, {REAL} xa, {REAL} dxa,
    const {REAL} *restrict u10, const {REAL} *restrict u01,
    const {REAL} *restrict u11,
    {REAL} *restrict hxy, {REAL} *restrict hxz, {REAL} *restrict hyz)
{{
    for (int64_t n = 0; n < N; ++n) {{
        hxy[n] += u10[n] * dxa;
        hxz[n] += u01[n] * dxa;
        hyz[n] += u11[n] * xa;
    }}
}}

static void laplacian_{SUFFIX}(
    int64_t N, const {REAL} *restrict hxx, const {REAL} *restrict hyy,
    const {REAL} *restrict hzz, {REAL} *restrict ls)
{{
    for (int64_t n = 0; n < N; ++n) ls[n] = (hxx[n] + hyy[n]) + hzz[n];
}}

/* SplineOrbitalSet's chain rule on one position's streams (v, g rows
 * x y z, h rows xx xy xz yy yz zz), each cast to double first as
 * `astype` does.  `chain` is B row-major, then M00 M11 M22 M01 M02 M12
 * of M = B @ B.T.  g_a = ((0.0 + B[a][0]*g0) + B[a][1]*g1) + B[a][2]*g2,
 * einsum "af,sfn->san"'s order; the Laplacian keeps the zero terms of a
 * diagonal M, which decide the sign of a zero. */
static void cart_{SUFFIX}(
    int64_t N, const double *restrict chain, const {REAL} *restrict vs,
    const {REAL} *restrict gs, const {REAL} *restrict hs,
    double *restrict v, double *restrict g, double *restrict l)
{{
    const double *M = chain + 9;
    for (int64_t n = 0; n < N; ++n) v[n] = (double) vs[n];
    for (int a = 0; a < 3; ++a) {{
        const double b0 = chain[3 * a], b1 = chain[3 * a + 1],
                     b2 = chain[3 * a + 2];
        double *restrict ga = g + a * N;
        for (int64_t n = 0; n < N; ++n) {{
            double x = 0.0;
            x += b0 * (double) gs[n];
            x += b1 * (double) gs[N + n];
            x += b2 * (double) gs[2 * N + n];
            ga[n] = x;
        }}
    }}
    for (int64_t n = 0; n < N; ++n) {{
        const double h0 = hs[n], h1 = hs[N + n], h2 = hs[2 * N + n],
                     h3 = hs[3 * N + n], h4 = hs[4 * N + n],
                     h5 = hs[5 * N + n];
        l[n] = ((M[0] * h0 + M[1] * h3) + M[2] * h5)
               + 2.0 * ((M[3] * h1 + M[4] * h2) + M[5] * h4);
    }}
}}

int repro_v_{SUFFIX}(
    const {REAL} *restrict table, int64_t rows, const double *restrict pos,
    const double *restrict geom, int64_t sy, int64_t sz, int64_t ns, int64_t N,
    const double *restrict wc, const {REAL} *restrict scale, {REAL} *restrict v)
{{
    int64_t *base = (int64_t *) malloc((size_t)ns * (sizeof(int64_t) + 3 * sizeof(double)));
    {REAL} *restrict ty = ({REAL} *) malloc((size_t)N * sizeof({REAL}));
    if (!base || !ty) {{ free(base); free(ty); return 1; }}
    double *t = (double *)(base + ns);
    if (!locate(pos, ns, geom, sy, sz, rows - 1 - 3 * (sy + sz + 1), base, t)) {{
        free(base); free(ty); return 2;
    }}
    {REAL} wl[36];
    for (int64_t s = 0; s < ns; ++s) {{
        if (s + 1 < ns) prefetch_{SUFFIX}(table, base[s + 1], sy, sz, N);
        weights_{SUFFIX}(t + 3 * s, wc, scale, wl);
        const {REAL} *ax = W(0, 0), *ay = W(1, 0), *az = W(2, 0);
        {REAL} *restrict vs = v + s * N;
        memset(vs, 0, (size_t)N * sizeof({REAL}));
        for (int a = 0; a < 4; ++a) {{
            memset(ty, 0, (size_t)N * sizeof({REAL}));
            for (int b = 0; b < 4; ++b)
                v_row_{SUFFIX}(table + (base[s] + a * sy + b * sz) * N, N,
                               az, ay[b], ty);
            v_fold_{SUFFIX}(N, ax[a], ty, vs);
        }}
    }}
    free(base);
    free(ty);
    return 0;
}}

int repro_vgh_{SUFFIX}(
    const {REAL} *restrict table, int64_t rows, const double *restrict pos,
    const double *restrict geom, int64_t sy, int64_t sz, int64_t ns, int64_t N,
    const double *restrict wc, const {REAL} *restrict scale, {REAL} *restrict v,
    {REAL} *restrict g, {REAL} *restrict l, {REAL} *restrict h)
{{
    int64_t *base = (int64_t *) malloc((size_t)ns * (sizeof(int64_t) + 3 * sizeof(double)));
    /* u00 u10 u20 u01 u11 u02 (y sums), then hxx hyy hzz when h is NULL */
    {REAL} *scratch = ({REAL} *) malloc((size_t)(9 * N) * sizeof({REAL}));
    if (!base || !scratch) {{ free(base); free(scratch); return 1; }}
    double *t = (double *)(base + ns);
    if (!locate(pos, ns, geom, sy, sz, rows - 1 - 3 * (sy + sz + 1), base, t)) {{
        free(base); free(scratch); return 2;
    }}
    {REAL} *restrict u00 = scratch,         *restrict u10 = scratch + N,
           *restrict u20 = scratch + 2 * N, *restrict u01 = scratch + 3 * N,
           *restrict u11 = scratch + 4 * N, *restrict u02 = scratch + 5 * N;
    {REAL} wl[36];
    for (int64_t s = 0; s < ns; ++s) {{
        if (s + 1 < ns) prefetch_{SUFFIX}(table, base[s + 1], sy, sz, N);
        weights_{SUFFIX}(t + 3 * s, wc, scale, wl);
        const {REAL} *ax = W(0, 0), *dax = W(0, 1), *d2ax = W(0, 2);
        const {REAL} *ay = W(1, 0), *day = W(1, 1), *d2ay = W(1, 2);
        const {REAL} *az = W(2, 0), *daz = W(2, 1), *d2az = W(2, 2);
        {REAL} *restrict vs = v + s * N;
        {REAL} *restrict gx = g + s * 3 * N;
        {REAL} *restrict gy = gx + N;
        {REAL} *restrict gz = gx + 2 * N;
        {REAL} *restrict ls = l + s * N;
        {REAL} *restrict hxx, *restrict hxy = NULL, *restrict hxz = NULL,
               *restrict hyy, *restrict hyz = NULL, *restrict hzz;
        if (h) {{
            hxx = h + s * 6 * N;
            hxy = hxx + N;
            hxz = hxx + 2 * N;
            hyy = hxx + 3 * N;
            hyz = hxx + 4 * N;
            hzz = hxx + 5 * N;
        }} else {{
            hxx = scratch + 6 * N;
            hyy = scratch + 7 * N;
            hzz = scratch + 8 * N;
        }}
        const size_t bytes = (size_t)N * sizeof({REAL});
        memset(vs, 0, bytes);
        memset(gx, 0, 3 * bytes);
        memset(hxx, 0, bytes);
        memset(hyy, 0, bytes);
        memset(hzz, 0, bytes);
        if (h) {{
            memset(hxy, 0, 2 * bytes);
            memset(hyz, 0, bytes);
        }}
        for (int a = 0; a < 4; ++a) {{
            memset(scratch, 0, 6 * bytes);
            for (int b = 0; b < 4; ++b)
                vgh_row_{SUFFIX}(table + (base[s] + a * sy + b * sz) * N, N,
                                 az, daz, d2az, ay[b], day[b], d2ay[b],
                                 u00, u10, u20, u01, u11, u02);
            x_fold_{SUFFIX}(N, ax[a], dax[a], d2ax[a], u00, u10, u20, u01,
                            u02, vs, gx, gy, gz, hxx, hyy, hzz);
            if (h)
                x_fold_h_{SUFFIX}(N, ax[a], dax[a], u10, u01, u11,
                                  hxy, hxz, hyz);
        }}
        laplacian_{SUFFIX}(N, hxx, hyy, hzz, ls);
    }}
    free(base);
    free(scratch);
    return 0;
}}

/* The Cartesian VGL kernel: repro_vgh_* over blocks of up to CART_BLOCK
 * positions into table-dtype scratch, then cart_* per position writes
 * float64 v (ns, N), Cartesian g (ns, 3, N) and the Cartesian Laplacian
 * l (ns, N).  A block repro_vgh_* skips returns its 2: the caller then
 * computes the whole chunk again on the NumPy core. */
int repro_vgl_cart_{SUFFIX}(
    const {REAL} *restrict table, int64_t rows, const double *restrict pos,
    const double *restrict geom, int64_t sy, int64_t sz, int64_t ns, int64_t N,
    const double *restrict wc, const {REAL} *restrict scale,
    const double *restrict chain, double *restrict v, double *restrict g,
    double *restrict l)
{{
    const int64_t nb = ns < CART_BLOCK ? ns : CART_BLOCK;
    /* v (nb N), g (3 nb N), l (nb N), h (6 nb N) */
    {REAL} *buf = ({REAL} *) malloc((size_t)(11 * nb * N) * sizeof({REAL}));
    if (!buf) return 1;
    {REAL} *bv = buf, *bg = buf + nb * N, *bl = buf + 4 * nb * N,
           *bh = buf + 5 * nb * N;
    for (int64_t s0 = 0; s0 < ns; s0 += nb) {{
        const int64_t k = ns - s0 < nb ? ns - s0 : nb;
        const int status = repro_vgh_{SUFFIX}(
            table, rows, pos + 3 * s0, geom, sy, sz, k, N, wc, scale,
            bv, bg, bl, bh);
        if (status) {{ free(buf); return status; }}
        for (int64_t s = 0; s < k; ++s)
            cart_{SUFFIX}(N, chain, bv + s * N, bg + 3 * s * N, bh + 6 * s * N,
                          v + (s0 + s) * N, g + 3 * (s0 + s) * N,
                          l + (s0 + s) * N);
    }}
    free(buf);
    return 0;
}}

#undef W
"""

#: The crowd routines' operands, one address each in a table the crowd
#: builds once (:class:`repro.qmc.batched_step.CrowdState`): per-crowd
#: scratch and constants, then the resident blocks.  The C source names
#: them ``SLOT_<NAME>``.
CROWD_SLOTS = (
    "el_frac", "ion_frac", "diag", "weights",
    "trial_ee_dist", "trial_ee_disp", "trial_ei_dist", "trial_ei_disp",
    "j1_coeffs", "j1_params", "j1_terms",
    "j2_coeffs", "j2_params", "j2_terms",
    "chi", "grad_old", "drift_old", "r_new", "det_ratio", "grad_new",
    "usum_new", "expo", "greens", "work",
    "positions", "cache_g", "cache_lap", "A", "Ainv", "log_det", "sign",
    "ee_dist", "ee_disp", "ei_dist", "ei_disp",
    "j1_usum", "j1_radials", "j2_usum", "j2_radials",
    "u_ainv", "column", "accepts",
)

# The float64 row math of one electron index of a crowd sweep (soa
# tables, orthorhombic cell), each operation as the NumPy methods of
# repro.qmc.batched_step do it.  Shapes: nw walkers, ne electrons, n
# orbitals per spin, ni ions; a table row is (m,), a displacement row
# (3, m); the trial radial terms of a factor are (3, nw, m) = (u, u', u'').
_C_CROWD = r"""
#define SLOT(name) ((double *) slots[SLOT_##name])

/* CrowdState._minimal_image: from each walker's trial fractional
 * position (nw, 3) to its (3, m) fractional sources. */
static void image_rows(int64_t nw, int64_t m, const double *restrict frac,
                       const double *restrict src, const double *restrict diag,
                       double *restrict dist, double *restrict disp)
{
    for (int64_t w = 0; w < nw; ++w) {
        const double *restrict s = src + 3 * m * w;
        double *restrict d = disp + 3 * m * w, *restrict r = dist + m * w;
        for (int a = 0; a < 3; ++a) {
            const double f = frac[3 * w + a], len = diag[a];
            for (int64_t j = 0; j < m; ++j) {
                double x = f - s[a * m + j];
                x = x - nearbyint(x);
                d[a * m + j] = x * len;
            }
        }
        for (int64_t j = 0; j < m; ++j) {
            const double x = d[j], y = d[m + j], z = d[2 * m + j];
            r[j] = sqrt((x * x + y * y) + z * z);
        }
    }
}

static int any_nan(const double *x, int64_t size)
{
    for (int64_t k = 0; k < size; ++k)
        if (isnan(x[k])) return 1;
    return 0;
}

/* _JastrowBase._row_terms of one shared CubicBspline1D over nw rows of m
 * distances: evaluate_vgl's clip (a no-op on the rows it keeps),
 * truncating cast, min(i, last) and fused weights, then the masks.
 * Entries with r <= 0, r >= rcut or in column `exclude` are +0.0.
 * p = (rcut, inv_delta, inv_delta**2) as Python computed them. */
static void radial_rows(int64_t nw, int64_t m, int64_t exclude,
                        const double *restrict dist, const double *restrict c,
                        int64_t last, const double *restrict p,
                        const double *restrict wc, double *restrict terms)
{
    const double rcut = p[0], inv = p[1], inv2 = p[2];
    const int64_t size = nw * m;
    for (int64_t w = 0; w < nw; ++w)
        for (int64_t j = 0; j < m; ++j) {
            const int64_t k = w * m + j;
            const double r = dist[k];
            double out[3] = {0.0, 0.0, 0.0};
            if (r > 0.0 && r < rcut && j != exclude) {
                const double x = r * inv;
                int64_t i = (int64_t) x;
                if (i > last) i = last;
                const double t = x - (double) i, t2 = t * t, t3 = t2 * t;
                for (int o = 0; o < 3; ++o)
                    out[o] = ((fused_weight(wc, o, 0, t, t2, t3) * c[i]
                               + fused_weight(wc, o, 1, t, t2, t3) * c[i + 1])
                              + fused_weight(wc, o, 2, t, t2, t3) * c[i + 2])
                             + fused_weight(wc, o, 3, t, t2, t3) * c[i + 3];
                out[1] = out[1] * inv;
                out[2] = out[2] * inv2;
            }
            terms[k] = out[0];
            terms[size + k] = out[1];
            terms[2 * size + k] = out[2];
        }
}

/* Electron e's trial rows for every walker into the trial slots (the ee
 * self entry zeroed), then each present factor's radial terms.  With
 * frac NULL the distance rows already in the slots are used as given.
 * A NaN distance a factor would read returns 2 (NumPy then raises). */
int repro_crowd_rows(const uintptr_t *slots, int64_t nw, int64_t ne,
                     int64_t ni, int64_t e, int64_t last1, int64_t last2,
                     const double *frac)
{
    double *ee_dist = SLOT(TRIAL_EE_DIST), *ee_disp = SLOT(TRIAL_EE_DISP);
    double *ei_dist = SLOT(TRIAL_EI_DIST), *ei_disp = SLOT(TRIAL_EI_DISP);
    const double *c1 = SLOT(J1_COEFFS), *c2 = SLOT(J2_COEFFS);
    if (frac) {
        image_rows(nw, ne, frac, SLOT(EL_FRAC), SLOT(DIAG), ee_dist, ee_disp);
        for (int64_t w = 0; w < nw; ++w) {
            ee_dist[w * ne + e] = 0.0;
            for (int a = 0; a < 3; ++a) ee_disp[(3 * w + a) * ne + e] = 0.0;
        }
        image_rows(nw, ni, frac, SLOT(ION_FRAC), SLOT(DIAG), ei_dist, ei_disp);
    }
    if ((c1 && any_nan(ei_dist, nw * ni)) || (c2 && any_nan(ee_dist, nw * ne)))
        return 2;
    if (c1)
        radial_rows(nw, ni, -1, ei_dist, c1, last1, SLOT(J1_PARAMS),
                    SLOT(WEIGHTS), SLOT(J1_TERMS));
    if (c2)
        radial_rows(nw, ne, e, ee_dist, c2, last2, SLOT(J2_PARAMS),
                    SLOT(WEIGHTS), SLOT(J2_TERMS));
    return 0;
}

/* NumPy's pairwise summation of a[0..n) (pairwise_sum in its umath
 * loops): below 8 terms a running sum; up to 128, eight accumulators
 * combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by
 * one; above, the halves split at n/2 - (n/2)%8.  np.add.reduce along a
 * contiguous last axis returns 0.0 + this, which `row_sum` gives. */
static double pairwise(const double *restrict a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; ++j) r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; ++j) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

static double row_sum(const double *restrict a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

/* out[(m - 1) * rows + k] = row_sum of the first m terms of row k (rows
 * `stride` apart) for every m in 1..n: the sums the crowd gate holds to
 * np.add.reduce. */
int repro_row_sums(const double *a, int64_t rows, int64_t stride, int64_t n,
                   double *out)
{
    for (int64_t m = 1; m <= n; ++m)
        for (int64_t k = 0; k < rows; ++k)
            out[(m - 1) * rows + k] = row_sum(a + k * stride, m);
    return 0;
}

/* grad J of one walker over one table row of m pairs (soa): pair_weights
 * du / (dist > 0 ? dist : 1) into work[0..m), then pair_grad's
 * -(sum_j w_j * disp[a][j]) with the products in work[m..2m). */
static void pair_grad(int64_t m, const double *restrict dist,
                      const double *restrict disp, const double *restrict du,
                      double *restrict work, double *restrict out)
{
    double *restrict w = work, *restrict prod = work + m;
    for (int64_t j = 0; j < m; ++j) w[j] = du[j] / (dist[j] > 0.0 ? dist[j] : 1.0);
    for (int a = 0; a < 3; ++a) {
        for (int64_t j = 0; j < m; ++j) prod[j] = w[j] * disp[a * m + j];
        out[a] = -row_sum(prod, m);
    }
}

/* limited_drift of one gradient: v2 the 3-term sum of squares, scale
 * 2 / (1 + sqrt(1 + (2 tau) v2)), or 1 where v2 < 1e-300. */
static void limited_drift(const double *restrict g, double two_tau,
                          double *restrict out)
{
    const double sq[3] = {g[0] * g[0], g[1] * g[1], g[2] * g[2]};
    const double v2 = row_sum(sq, 3);
    double scale = 2.0 / (1.0 + sqrt(1.0 + two_tau * v2));
    if (v2 < 1e-300) scale = 1.0;
    for (int a = 0; a < 3; ++a) out[a] = scale * g[a];
}

/* Walker w's gradient g plus each present factor's pair_grad over one
 * row per factor (j1 first, as SlaterJastrow.grad adds them): rows of
 * the trial slots when `trial`, else row e of the resident tables. */
static void add_jastrow_grads(const uintptr_t *slots, int64_t w, int64_t nw,
                              int64_t ne, int64_t ni, int64_t e, int trial,
                              double *restrict g)
{
    double pg[3];
    double *work = SLOT(WORK);
    if (slots[SLOT_J1_RADIALS]) {
        if (trial)
            pair_grad(ni, SLOT(TRIAL_EI_DIST) + w * ni, SLOT(TRIAL_EI_DISP) + 3 * w * ni,
                      SLOT(J1_TERMS) + (nw + w) * ni, work, pg);
        else
            pair_grad(ni, SLOT(EI_DIST) + (w * ne + e) * ni,
                      SLOT(EI_DISP) + (w * ne + e) * 3 * ni,
                      SLOT(J1_RADIALS) + ((3 * w + 1) * ne + e) * ni, work, pg);
        for (int a = 0; a < 3; ++a) g[a] = g[a] + pg[a];
    }
    if (slots[SLOT_J2_RADIALS]) {
        if (trial)
            pair_grad(ne, SLOT(TRIAL_EE_DIST) + w * ne, SLOT(TRIAL_EE_DISP) + 3 * w * ne,
                      SLOT(J2_TERMS) + (nw + w) * ne, work, pg);
        else
            pair_grad(ne, SLOT(EE_DIST) + (w * ne + e) * ne,
                      SLOT(EE_DISP) + (w * ne + e) * 3 * ne,
                      SLOT(J2_RADIALS) + ((3 * w + 1) * ne + e) * ne, work, pg);
        for (int a = 0; a < 3; ++a) g[a] = g[a] + pg[a];
    }
}

/* batched_sweep's proposal of electron e.  With use_drift, each
 * walker's gradient at its committed position (GRAD_OLD holds the
 * determinant's, from NumPy's BLAS product; the factors' are added
 * here) and its limited drift into DRIFT_OLD; else a zero drift.  Then
 * R_NEW = (r_old + tau * drift) + chi * sqrt_tau, chi from CHI. */
int repro_crowd_propose(const uintptr_t *slots, int64_t nw, int64_t ne,
                        int64_t ni, int64_t e, int64_t use_drift, double tau,
                        double two_tau, double sqrt_tau)
{
    const double *R = SLOT(POSITIONS), *chi = SLOT(CHI);
    double *grad = SLOT(GRAD_OLD), *drift = SLOT(DRIFT_OLD), *r_new = SLOT(R_NEW);
    for (int64_t w = 0; w < nw; ++w) {
        double *d = drift + 3 * w;
        if (use_drift) {
            add_jastrow_grads(slots, w, nw, ne, ni, e, 0, grad + 3 * w);
            limited_drift(grad + 3 * w, two_tau, d);
        } else {
            d[0] = d[1] = d[2] = 0.0;
        }
        for (int a = 0; a < 3; ++a)
            r_new[3 * w + a] = (R[(3 * w + a) * ne + e] + tau * d[a])
                               + chi[3 * w + a] * sqrt_tau;
    }
    return 0;
}

/* batched_sweep between the trial's BLAS products and its exp/log: per
 * walker, GRAD_NEW divided by DET_RATIO where that is nonzero; per
 * factor (row 0 j1, row 1 j2 of USUM_NEW and EXPO) the trial u-sum and
 * the exponent -(usum - usum[e]), and its pair_grad over the trial rows
 * added to GRAD_NEW; with use_drift, the trial's limited drift and the
 * log Green's ratio ((fwd.fwd) - (rev.rev)) / (2 tau) into GREENS. */
int repro_crowd_trial(const uintptr_t *slots, int64_t nw, int64_t ne,
                      int64_t ni, int64_t e, int64_t use_drift, double tau,
                      double two_tau)
{
    const double *R = SLOT(POSITIONS), *det_ratio = SLOT(DET_RATIO);
    const double *r_new = SLOT(R_NEW), *drift_old = SLOT(DRIFT_OLD);
    double *grad = SLOT(GRAD_NEW), *usum_new = SLOT(USUM_NEW), *expo = SLOT(EXPO);
    double *greens = SLOT(GREENS);
    const int64_t present[2] = {slots[SLOT_J1_RADIALS] != 0, slots[SLOT_J2_RADIALS] != 0};
    const int64_t m[2] = {ni, ne};
    const double *terms[2] = {SLOT(J1_TERMS), SLOT(J2_TERMS)};
    const double *usum[2] = {SLOT(J1_USUM), SLOT(J2_USUM)};
    for (int64_t w = 0; w < nw; ++w) {
        double *g = grad + 3 * w;
        const double r = det_ratio[w];
        if (r != 0.0)
            for (int a = 0; a < 3; ++a) g[a] = g[a] / r;
        for (int f = 0; f < 2; ++f)
            if (present[f]) {
                const double s = row_sum(terms[f] + w * m[f], m[f]);
                usum_new[f * nw + w] = s;
                expo[f * nw + w] = -(s - usum[f][w * ne + e]);
            }
        add_jastrow_grads(slots, w, nw, ne, ni, e, 1, g);
        if (use_drift) {
            double d[3], fwd[3], rev[3];
            limited_drift(g, two_tau, d);
            for (int a = 0; a < 3; ++a) {
                const double r_old = R[(3 * w + a) * ne + e], rn = r_new[3 * w + a];
                fwd[a] = (rn - r_old) - tau * drift_old[3 * w + a];
                rev[a] = (r_old - rn) - tau * d[a];
                fwd[a] = fwd[a] * fwd[a];
                rev[a] = rev[a] * rev[a];
            }
            greens[w] = (row_sum(fwd, 3) - row_sum(rev, 3)) / two_tau;
        }
    }
    return 0;
}

/* _JastrowFactor.commit for walker w: a two-body factor's u-sums take
 * usum + (u_new - u_old) before row e is written, then u-sum e is the
 * trial's, and the trial terms become row e (and column e). */
static void jastrow_commit(int64_t w, int64_t nw, int64_t ne, int64_t m,
                           int64_t e, int two_body, double *restrict usum,
                           double *restrict radials,
                           const double *restrict terms,
                           const double *restrict usum_new)
{
    double *restrict us = usum + w * ne;
    if (two_body) {
        const double *u_new = terms + w * m;
        const double *u_old = radials + (3 * w * ne + e) * m;
        for (int64_t j = 0; j < m; ++j) us[j] = us[j] + (u_new[j] - u_old[j]);
    }
    us[e] = usum_new[w];
    for (int o = 0; o < 3; ++o) {
        const double *t = terms + (o * nw + w) * m;
        double *rad = radials + (3 * w + o) * ne * m;
        memcpy(rad + e * m, t, (size_t) m * sizeof(double));
        if (two_body)
            for (int64_t j = 0; j < m; ++j) rad[j * ne + e] = t[j];
    }
}

/* CrowdState._commit for the k accepted walkers ia (ascending): every
 * write and elementwise update, the trial rows, terms, ratios (DET_RATIO)
 * and u-sums (USUM_NEW) read from the slots.  u_ainv (nw, n) = u @ Ainv
 * and log_abs (k,) = log|r| come from NumPy. */
int repro_crowd_commit(const uintptr_t *slots, int64_t nw, int64_t ne,
                       int64_t n, int64_t ni, int64_t e, int64_t k,
                       const int64_t *ia, const double *log_abs,
                       const double *wrapped, const double *frac,
                       const double *v, const double *g, const double *lap)
{
    const double *det_ratio = SLOT(DET_RATIO), *usum_new = SLOT(USUM_NEW);
    const int64_t spin = e / n, row = e % n;
    double *R = SLOT(POSITIONS), *el_frac = SLOT(EL_FRAC);
    double *cache_g = SLOT(CACHE_G), *cache_lap = SLOT(CACHE_LAP);
    double *A = SLOT(A), *Ainv = SLOT(AINV);
    double *log_det = SLOT(LOG_DET), *sign = SLOT(SIGN);
    double *ee_dist = SLOT(EE_DIST), *ee_disp = SLOT(EE_DISP);
    double *ei_dist = SLOT(EI_DIST), *ei_disp = SLOT(EI_DISP);
    const double *tee_dist = SLOT(TRIAL_EE_DIST), *tee_disp = SLOT(TRIAL_EE_DISP);
    const double *tei_dist = SLOT(TRIAL_EI_DIST), *tei_disp = SLOT(TRIAL_EI_DISP);
    const double *u_ainv = SLOT(U_AINV);
    double *c = SLOT(COLUMN), *x = c + n;
    int64_t *accepts = (int64_t *) slots[SLOT_ACCEPTS];
    const size_t dbl = sizeof(double);
    for (int64_t q = 0; q < k; ++q) {
        const int64_t w = ia[q];
        for (int a = 0; a < 3; ++a) {
            R[(3 * w + a) * ne + e] = wrapped[3 * w + a];
            el_frac[(3 * w + a) * ne + e] = frac[3 * w + a];
        }
        if (cache_g) {
            memcpy(cache_g + (w * ne + e) * 3 * n, g + w * 3 * n, 3 * n * dbl);
            memcpy(cache_lap + (w * ne + e) * n, lap + w * n, n * dbl);
        }
        /* Sherman-Morrison, DiracDeterminant.accept_move's operations:
         * column `row` is read before the update writes it. */
        const double r = det_ratio[w];
        const double *ua = u_ainv + w * n;
        double *ainv = Ainv + (2 * w + spin) * n * n;
        for (int64_t j = 0; j < n; ++j) x[j] = (j == row ? ua[j] - 1.0 : ua[j]) / r;
        for (int64_t i = 0; i < n; ++i) c[i] = ainv[i * n + row];
        for (int64_t i = 0; i < n; ++i) {
            double *ai = ainv + i * n;
            const double ci = c[i];
            for (int64_t j = 0; j < n; ++j) ai[j] = ai[j] - ci * x[j];
        }
        memcpy(A + ((2 * w + spin) * n + row) * n, v + w * n, n * dbl);
        log_det[2 * w + spin] = log_det[2 * w + spin] + log_abs[q];
        if (r < 0.0) sign[2 * w + spin] = -sign[2 * w + spin];
        /* Table rows; the symmetric table mirrors into column e after. */
        memcpy(ee_dist + (w * ne + e) * ne, tee_dist + w * ne, ne * dbl);
        for (int64_t j = 0; j < ne; ++j)
            ee_dist[(w * ne + j) * ne + e] = tee_dist[w * ne + j];
        memcpy(ee_disp + (w * ne + e) * 3 * ne, tee_disp + w * 3 * ne, 3 * ne * dbl);
        for (int64_t j = 0; j < ne; ++j)
            for (int a = 0; a < 3; ++a)
                ee_disp[((w * ne + j) * 3 + a) * ne + e] = -tee_disp[(3 * w + a) * ne + j];
        memcpy(ei_dist + (w * ne + e) * ni, tei_dist + w * ni, ni * dbl);
        memcpy(ei_disp + (w * ne + e) * 3 * ni, tei_disp + w * 3 * ni, 3 * ni * dbl);
        if (slots[SLOT_J1_RADIALS])
            jastrow_commit(w, nw, ne, ni, e, 0, SLOT(J1_USUM), SLOT(J1_RADIALS),
                           SLOT(J1_TERMS), usum_new);
        if (slots[SLOT_J2_RADIALS])
            jastrow_commit(w, nw, ne, ne, e, 1, SLOT(J2_USUM), SLOT(J2_RADIALS),
                           SLOT(J2_TERMS), usum_new + nw);
        accepts[w] += 1;
    }
    return 0;
}

#undef SLOT
"""

#: No flag may let the compiler fuse or reassociate: the exact tier
#: depends on each ``+`` and ``*`` rounding on its own.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)

_LIB = None  # process-wide cache of the loaded shared object

#: bspline_fused_weights' (power, order, tap) coefficients c3, c2, c1, c0,
#: read by every routine through one pointer.
WEIGHT_COEFFS = np.ascontiguousarray(
    np.stack([_FUSED_C3, _FUSED_C2, _FUSED_C1, _FUSED_C0])
)

_BYTE = ctypes.c_char


def address(a: np.ndarray) -> int:
    """The data address of a C-contiguous array, for a hot-path call.

    ``a.ctypes.data`` builds a helper object, about 3x the cost of this
    buffer view; a read-only array still takes that road.
    """
    try:
        return ctypes.addressof(_BYTE.from_buffer(a))
    except TypeError:
        if not a.flags.c_contiguous:
            raise
        return a.ctypes.data

_SKIPPED = 2  # C return status: a base row outside the table, nothing read


def _compiler() -> str | None:
    return shutil.which(os.environ.get("REPRO_CC", "cc"))


def _no_compiler() -> str:
    return (
        f"backend 'cc' needs a C compiler, and "
        f"{os.environ.get('REPRO_CC', 'cc')!r} is not one on PATH (set "
        f"REPRO_CC to choose another). {CcBackend.capability.install_hint}"
    )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CC_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro" / "ccbackend"


def _cpu_tag(cpuinfo: str | None = None) -> str:
    """The instruction-set extensions ``-march=native`` compiles for, so
    a cache shared between hosts never hands one CPU another's
    instructions.

    That is the first ``flags`` line of ``/proc/cpuinfo`` (``Features``
    on ARM), wherever it stands: x86 lists ``model name`` first, and
    one model name (a generic hypervisor CPU model, say) covers CPUs
    with different extensions.  The model name, then the platform,
    stand in only where neither line exists.
    """
    def scan(lines) -> str | None:
        model = None
        for line in lines:
            key = line.partition(":")[0].strip()
            if key in ("flags", "Features"):
                return line.rstrip("\n")
            if key == "model name" and model is None:
                model = line.rstrip("\n")
        return model

    if cpuinfo is not None:
        tag = scan(cpuinfo.splitlines())
    else:
        try:
            with open("/proc/cpuinfo") as info:
                tag = scan(info)
        except OSError:
            tag = None
    return tag or f"{platform.machine()} {platform.processor()}"


def _source() -> str:
    slots = ", ".join(f"SLOT_{name.upper()}" for name in CROWD_SLOTS)
    return (
        _COMMON
        + "".join(
            _C_TEMPLATE.format(REAL=real, SUFFIX=suffix)
            for real, suffix in (("double", "f64"), ("float", "f32"))
        )
        + f"\nenum {{ {slots} }};\n"
        + _C_CROWD
    )


def _build(cc: str, source: str, lib_path: Path) -> None:
    """Compile ``source`` into ``lib_path`` through a private directory,
    then rename: concurrent builders each leave a whole library."""
    cache = lib_path.parent
    cache.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=cache, prefix=".build-"))
    try:
        src_path = work / "kernels.c"
        out_path = work / "kernels.so"
        src_path.write_text(source)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", str(out_path), str(src_path), *_LIBS],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"backend 'cc' failed to compile its kernels with {cc!r} "
                f"into {lib_path}:\n{proc.stderr.strip()}"
            )
        os.replace(out_path, lib_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _load_library() -> ctypes.CDLL:
    """Compile (or reuse the cached build of) the kernel library.

    Every way this can fail raises :class:`BackendUnavailable`, so the
    default resolution falls back to NumPy rather than crash.
    """
    global _LIB
    if _LIB is not None:
        return _LIB
    cc = _compiler()
    if cc is None:
        raise BackendUnavailable(_no_compiler())
    source = _source()
    key = hashlib.sha256(
        "\0".join((source, cc, " ".join(_CFLAGS + _LIBS), _cpu_tag())).encode()
    ).hexdigest()[:16]
    lib_path = _cache_dir() / f"repro_kernels_{key}.so"
    try:
        if not lib_path.exists():
            _build(cc, source, lib_path)
        lib = ctypes.CDLL(str(lib_path))
        i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        for suffix in ("f64", "f32"):
            fn_v = getattr(lib, f"repro_v_{suffix}")
            fn_v.argtypes = [ptr, i64, ptr, ptr, i64, i64, i64, i64, ptr, ptr, ptr]
            getattr(lib, f"repro_vgh_{suffix}").argtypes = fn_v.argtypes + [ptr] * 3
            getattr(lib, f"repro_vgl_cart_{suffix}").argtypes = fn_v.argtypes + [ptr] * 3
        lib.repro_crowd_rows.argtypes = [ptr] + [i64] * 6 + [ptr]
        lib.repro_crowd_commit.argtypes = [ptr] + [i64] * 6 + [ptr] * 7
        lib.repro_crowd_propose.argtypes = [ptr] + [i64] * 5 + [f64] * 3
        lib.repro_crowd_trial.argtypes = [ptr] + [i64] * 5 + [f64] * 2
        lib.repro_row_sums.argtypes = [ptr, i64, i64, i64, ptr]
    except (OSError, AttributeError) as exc:
        raise BackendUnavailable(
            f"backend 'cc' could not build or load its kernel library "
            f"{lib_path}: {exc}"
        ) from exc
    _LIB = lib
    return lib


class CcBackend(KernelBackend):
    """The exact-tier cores compiled from C, built on first use and cached."""

    capability = BackendCapability(
        name="cc",
        install_hint=(
            "Install a C toolchain (e.g. gcc) or point REPRO_CC at one."
        ),
        description=(
            "the einsum cores' arithmetic compiled from C via the host "
            "toolchain (exact tier; the default when a compiler is present)"
        ),
    )

    def availability_error(self) -> str | None:
        return _no_compiler() if _compiler() is None else None

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)
        if engine.n_splines == 1:
            # einsum sums a length-1 spline axis in another order.
            return BackendCores(v=engine._numpy_v_core, vgh=engine._numpy_vgh_core)
        lib = _load_library()
        suffix = "f64" if engine.dtype == np.float64 else "f32"
        fn_v = getattr(lib, f"repro_v_{suffix}")
        fn_vgh = getattr(lib, f"repro_vgh_{suffix}")
        fn_cart = getattr(lib, f"repro_vgl_cart_{suffix}")
        flat = np.ascontiguousarray(engine._flat)
        grid = engine.grid
        geom = np.array([*grid.inv_deltas, *grid.shape], dtype=np.float64)
        scale = np.ascontiguousarray(engine._weight_scale)
        rows, n = flat.shape
        sy, sz = engine._row_strides
        # Read once: the table, the grid and the weight constants.  The
        # cores hold the arrays (`keep`) so the addresses stay valid.
        fixed = (flat.ctypes.data, rows)
        shape = (geom.ctypes.data, sy, sz)
        consts = (WEIGHT_COEFFS.ctypes.data, scale.ctypes.data)
        keep = (flat, geom, scale)
        numpy_cart = engine._chain_rule_core(engine._numpy_vgh_core)

        def v_core(positions, v, keep=keep):
            pos = np.ascontiguousarray(positions)
            status = fn_v(
                *fixed, address(pos), *shape, len(pos), n, *consts, address(v)
            )
            if status == _SKIPPED:
                engine._numpy_v_core(positions, v)
            elif status:
                raise MemoryError("cc backend could not allocate its scratch")

        def vgh_core(positions, v, g, l, h, keep=keep):
            pos = np.ascontiguousarray(positions)
            status = fn_vgh(
                *fixed, address(pos), *shape, len(pos), n, *consts,
                address(v), address(g), address(l),
                None if h is None else address(h),
            )
            if status == _SKIPPED:
                engine._numpy_vgh_core(positions, v, g, l, h)
            elif status:
                raise MemoryError("cc backend could not allocate its scratch")

        def cart_core(positions, chain, v, g, l, keep=keep):
            pos = np.ascontiguousarray(positions)
            status = fn_cart(
                *fixed, address(pos), *shape, len(pos), n, *consts,
                address(chain.packed), address(v), address(g), address(l),
            )
            if status == _SKIPPED:
                numpy_cart(positions, chain, v, g, l)
            elif status:
                raise MemoryError("cc backend could not allocate its scratch")

        return BackendCores(v=v_core, vgh=vgh_core, cart=cart_core)
