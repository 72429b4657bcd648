"""1D cubic B-splines on a finite interval, for Jastrow radial functions.

The Jastrow factors of the QMC substrate (:mod:`repro.qmc.jastrow`) use
short-ranged radial functions u(r) with a finite cutoff, represented —
exactly as in QMCPACK — by 1D cubic B-splines.  Unlike the periodic 3D
orbital tables, these use a *bounded* knot grid on ``[0, rcut]`` with
boundary conditions, so the coefficient solve is a small dense system
rather than a circulant one.

Two boundary conditions are supported:

* ``"natural"`` — zero second derivative at both ends;
* ``"clamped"`` — prescribed first derivatives at both ends (QMCPACK's
  choice for e-e Jastrows is a cusp-condition derivative at r=0 and zero
  slope at the cutoff).

Evaluation is vectorized over arrays of radii; values beyond the cutoff
are zero (short-rangedness), and the helper returns value/first/second
derivatives together because the QMC kernels always need all three.
"""

from __future__ import annotations

import numpy as np

from repro.core.basis import bspline_fused_weights, bspline_weights_batch

__all__ = ["CubicBspline1D"]

#: Stencil offsets: interval ``i`` reads coefficients ``i .. i+3``.
_TAPS = np.arange(4)


class CubicBspline1D:
    """Interpolating cubic B-spline on ``[0, rcut]`` with boundary conditions.

    Parameters
    ----------
    samples:
        Function values at the ``n`` uniformly spaced knots
        ``r_j = j * rcut / (n-1)`` (so the first knot is 0 and the last is
        exactly ``rcut``).  Needs ``n >= 4``.
    rcut:
        Interval length / cutoff radius.
    bc:
        ``"natural"`` or ``"clamped"``.
    deriv0, deriv1:
        End-point first derivatives, used only with ``bc="clamped"``.
    """

    def __init__(
        self,
        samples: np.ndarray,
        rcut: float,
        bc: str = "natural",
        deriv0: float = 0.0,
        deriv1: float = 0.0,
    ):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError(
                f"need a 1D array of >= 4 samples, got shape {samples.shape}"
            )
        if rcut <= 0:
            raise ValueError(f"rcut must be positive, got {rcut}")
        if bc not in ("natural", "clamped"):
            raise ValueError(f"bc must be 'natural' or 'clamped', got {bc!r}")
        n = samples.size
        self.n_knots = n
        self.rcut = float(rcut)
        self.delta = self.rcut / (n - 1)
        self.inv_delta = 1.0 / self.delta
        self.bc = bc
        # Unknowns c[-1] .. c[n]  (n + 2 coefficients), stored with +1 offset.
        m = n + 2
        A = np.zeros((m, m))
        rhs = np.zeros(m)
        # Interpolation rows: (c[j-1] + 4 c[j] + c[j+1]) / 6 = f[j].
        for j in range(n):
            A[j, j] = 1.0 / 6.0
            A[j, j + 1] = 4.0 / 6.0
            A[j, j + 2] = 1.0 / 6.0
            rhs[j] = samples[j]
        if bc == "natural":
            # f''(0) = 0 and f''(rcut) = 0:
            # second-derivative weights at t=0 are (1, -2, 1, 0)/delta^2.
            A[n, 0:3] = (1.0, -2.0, 1.0)
            A[n + 1, n - 1 : n + 2] = (1.0, -2.0, 1.0)
        else:
            # f'(0) = deriv0, f'(rcut) = deriv1:
            # first-derivative weights at t=0 are (-1/2, 0, 1/2, 0)/delta.
            A[n, 0:3] = (-0.5, 0.0, 0.5)
            rhs[n] = deriv0 * self.delta
            A[n + 1, n - 1 : n + 2] = (-0.5, 0.0, 0.5)
            rhs[n + 1] = deriv1 * self.delta
        self.coeffs = np.linalg.solve(A, rhs)

    def _locate(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval index (clipped), fractional coordinate, in-range mask."""
        r = np.asarray(r, dtype=np.float64)
        inside = (r >= 0.0) & (r < self.rcut)
        u = np.clip(r, 0.0, self.rcut) * self.inv_delta
        i = np.minimum(u.astype(np.int64), self.n_knots - 2)
        return i, u - i, inside

    def _combine(self, i: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Weighted sum of the four coefficients at each interval."""
        c = self.coeffs
        # Storage offset: coefficient c[i-1] lives at index i (offset +1),
        # so the stencil for interval i is c[i : i+4].
        return (
            w[..., 0] * c[i]
            + w[..., 1] * c[i + 1]
            + w[..., 2] * c[i + 2]
            + w[..., 3] * c[i + 3]
        )

    def evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """Spline values; zero at and beyond the cutoff.

        Accepts scalars or arrays; returns float64 of the broadcast shape.
        """
        i, t, inside = self._locate(np.atleast_1d(r))
        v = self._combine(i, bspline_weights_batch(t, 0))
        v = np.where(inside, v, 0.0)
        return v if np.ndim(r) else v[0]

    def evaluate_vgl(self, r: np.ndarray | float) -> np.ndarray:
        """Value, first derivative and second derivative at each radius.

        Returns one ``(3,) + shape(r)`` array of (u, u', u''), which
        unpacks as ``v, dv, d2v``.  Beyond the cutoff all three are zero
        (the short-ranged convention of QMC Jastrow factors).

        The four stencil coefficients are gathered once and all three
        orders are combined in one broadcast over
        :func:`~repro.core.basis.bspline_fused_weights`, with the
        operations (and so the bits) of three :meth:`_combine` calls.
        """
        scalar = not np.ndim(r)
        i, t, inside = self._locate(np.atleast_1d(r))
        w = bspline_fused_weights(t)  # (order, tap) + t.shape
        c = self.coeffs[i + _TAPS.reshape((4,) + (1,) * i.ndim)]
        vgl = ((w[:, 0] * c[0] + w[:, 1] * c[1]) + w[:, 2] * c[2]) + w[:, 3] * c[3]
        vgl[1] *= self.inv_delta
        vgl[2] *= self.inv_delta**2
        vgl = np.where(inside, vgl, 0.0)
        return vgl[:, 0] if scalar else vgl

    @classmethod
    def fit_function(
        cls,
        func,
        rcut: float,
        n_knots: int = 12,
        bc: str = "natural",
        deriv0: float = 0.0,
        deriv1: float = 0.0,
    ) -> "CubicBspline1D":
        """Fit a callable ``func(r)`` by sampling it at the knots.

        The convenience constructor used by the Jastrow builders.
        """
        r = np.linspace(0.0, rcut, n_knots)
        return cls(func(r), rcut, bc=bc, deriv0=deriv0, deriv1=deriv1)
