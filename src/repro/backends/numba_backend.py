"""The Numba backend: the fused gather+contraction JIT-compiled per dtype.

For every position the 4x4x4 stencil neighbourhood is read straight
out of the ghost-padded flat table — no gather temporary — and the z
axis collapses in registers, the y axis into a ``6 x N`` scratch, the x
axis into the output slabs (the single-pass structure the exact-tier C
backend, :mod:`repro.backends.cc_backend`, also uses).
Numba specializes the machine code per (kind, dtype) pair on first call
(``cache=True`` persists the compilation across processes, which is
what keeps spawn-started fleet workers from each paying the JIT).

LLVM's vectorizer reassociates the stencil sums, so the backend
declares the **allclose** tier with labelled per-dtype tolerances; the
differential-conformance harness enforces them before the backend may
serve kernels.  ``numba`` itself is an optional dependency: when the
import fails, ``auto`` resolution degrades to NumPy with a warning and
a ``backend_fallback_total`` count, and an explicit ``backend="numba"``
request raises :class:`~repro.backends.base.BackendUnavailable` with
the install hint.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import BackendCapability, BackendCores, KernelBackend

__all__ = ["NumbaBackend"]

_JIT = None  # (v_kernel, vgh_kernel) once numba has compiled them


def _build_kernels():
    """Compile (lazily, once per process) the two jitted kernels."""
    global _JIT
    if _JIT is not None:
        return _JIT
    import numba

    @numba.njit(cache=True, fastmath=False)
    def v_kernel(table, base, sy, sz, wx, wy, wz, v):
        ns, n_splines = v.shape
        for s in range(ns):
            for n in range(n_splines):
                v[s, n] = 0.0
            for a in range(4):
                for b in range(4):
                    row = base[s] + a * sy + b * sz
                    wab = wx[s, a] * wy[s, b]
                    z0 = wz[s, 0]
                    z1 = wz[s, 1]
                    z2 = wz[s, 2]
                    z3 = wz[s, 3]
                    for n in range(n_splines):
                        tz = (
                            table[row, n] * z0
                            + table[row + 1, n] * z1
                            + table[row + 2, n] * z2
                            + table[row + 3, n] * z3
                        )
                        v[s, n] += wab * tz
        return 0

    @numba.njit(cache=True, fastmath=False)
    def vgh_kernel(
        table, base, sy, sz,
        wx, dwx, d2wx, wy, dwy, d2wy, wz, dwz, d2wz,
        v, g, l, h, want_h, u,
    ):
        ns, n_splines = v.shape
        for s in range(ns):
            for n in range(n_splines):
                v[s, n] = 0.0
                g[s, 0, n] = 0.0
                g[s, 1, n] = 0.0
                g[s, 2, n] = 0.0
                l[s, n] = 0.0
            if want_h:
                for k in range(6):
                    for n in range(n_splines):
                        h[s, k, n] = 0.0
            for a in range(4):
                for k in range(6):
                    for n in range(n_splines):
                        u[k, n] = 0.0
                z0 = wz[s, 0]
                z1 = wz[s, 1]
                z2 = wz[s, 2]
                z3 = wz[s, 3]
                dz0 = dwz[s, 0]
                dz1 = dwz[s, 1]
                dz2 = dwz[s, 2]
                dz3 = dwz[s, 3]
                z20 = d2wz[s, 0]
                z21 = d2wz[s, 1]
                z22 = d2wz[s, 2]
                z23 = d2wz[s, 3]
                for b in range(4):
                    row = base[s] + a * sy + b * sz
                    yb = wy[s, b]
                    dyb = dwy[s, b]
                    d2yb = d2wy[s, b]
                    for n in range(n_splines):
                        c0 = table[row, n]
                        c1 = table[row + 1, n]
                        c2 = table[row + 2, n]
                        c3 = table[row + 3, n]
                        tz0 = c0 * z0 + c1 * z1 + c2 * z2 + c3 * z3
                        tz1 = c0 * dz0 + c1 * dz1 + c2 * dz2 + c3 * dz3
                        tz2 = c0 * z20 + c1 * z21 + c2 * z22 + c3 * z23
                        u[0, n] += tz0 * yb
                        u[1, n] += tz0 * dyb
                        u[2, n] += tz0 * d2yb
                        u[3, n] += tz1 * yb
                        u[4, n] += tz1 * dyb
                        u[5, n] += tz2 * yb
                xa = wx[s, a]
                dxa = dwx[s, a]
                d2xa = d2wx[s, a]
                for n in range(n_splines):
                    hxx = u[0, n] * d2xa
                    hyy = u[2, n] * xa
                    hzz = u[5, n] * xa
                    v[s, n] += u[0, n] * xa
                    g[s, 0, n] += u[0, n] * dxa
                    g[s, 1, n] += u[1, n] * xa
                    g[s, 2, n] += u[3, n] * xa
                    l[s, n] += hxx + hyy + hzz
                    if want_h:
                        h[s, 0, n] += hxx
                        h[s, 1, n] += u[1, n] * dxa
                        h[s, 2, n] += u[3, n] * dxa
                        h[s, 3, n] += hyy
                        h[s, 4, n] += u[4, n] * xa
                        h[s, 5, n] += hzz
        return 0

    _JIT = (v_kernel, vgh_kernel)
    return _JIT


class NumbaBackend(KernelBackend):
    """Numba-JIT fused kernels, specialized per (kind, dtype) on first call."""

    capability = BackendCapability(
        name="numba",
        tier="allclose",
        tolerances=(
            ("float64", 1e-12, 1e-12),
            ("float32", 1e-4, 1e-4),
        ),
        requires=("numba",),
        install_hint="Install it with `pip install numba`.",
        description=(
            "fused gather+contraction JIT-compiled by Numba per (kind, "
            "dtype) (allclose tier; optional dependency)"
        ),
    )

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)
        v_kernel, vgh_kernel = _build_kernels()
        flat = engine._flat
        sy, sz = engine._row_strides
        scratch = np.empty((6, engine.n_splines), dtype=engine.dtype)
        # The h stream is written through out.h views, which always
        # exist; this empty stand-in only satisfies the jitted
        # signature when the engine drives VGL (want_h=False).
        no_h = np.empty((0, 6, engine.n_splines), dtype=engine.dtype)

        def v_core(positions, v):
            base, ((ax, _, _), (ay, _, _), (az, _, _)) = engine._locate_weights(
                positions
            )
            v_kernel(flat, base, sy, sz, ax, ay, az, v)

        def vgh_core(positions, v, g, l, h):
            base, (wx3, wy3, wz3) = engine._locate_weights(positions)
            vgh_kernel(
                flat, base, sy, sz,
                wx3[0], wx3[1], wx3[2],
                wy3[0], wy3[1], wy3[2],
                wz3[0], wz3[1], wz3[2],
                v, g, l,
                h if h is not None else no_h,
                h is not None,
                scratch,
            )

        return BackendCores(v=v_core, vgh=vgh_core)
