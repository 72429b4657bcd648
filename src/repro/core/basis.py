"""1D cubic B-spline basis functions and their derivatives.

This is paper Eq. (5) and Fig. 2(a): at any point ``x`` inside a uniform
grid of spacing ``delta`` exactly four piecewise-cubic basis functions are
non-zero.  Writing ``i = floor(x / delta)`` and ``t = x/delta - i`` (the
fractional coordinate, ``0 <= t < 1``), the interpolated value is

    f(x) = a0(t) * p[i-1] + a1(t) * p[i] + a2(t) * p[i+1] + a3(t) * p[i+2]

with the uniform cubic B-spline weights

    a0(t) = (1 - t)^3 / 6
    a1(t) = (3 t^3 - 6 t^2 + 4) / 6
    a2(t) = (-3 t^3 + 3 t^2 + 3 t + 1) / 6
    a3(t) = t^3 / 6

The same four-tap structure applies per dimension in 3D, giving the
64-point tensor-product stencil of paper Eq. (6).

The weights are expressed through the einspline-style coefficient matrix
``A`` such that ``a_m(t) = A[m] @ [t^3, t^2, t, 1]``; ``dA`` and ``d2A``
hold the monomial coefficients of the first and second ``t``-derivatives.
Derivatives with respect to the *physical* coordinate ``x`` carry factors
of ``1/delta`` and ``1/delta^2`` (chain rule), which the callers in
:mod:`repro.core.layout_soa` and friends apply.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BSPLINE_A",
    "BSPLINE_DA",
    "BSPLINE_D2A",
    "bspline_weights",
    "bspline_dweights",
    "bspline_d2weights",
    "bspline_all_weights",
    "bspline_weights_batch",
    "bspline_fused_weights",
]

#: Monomial coefficients of the four cubic B-spline basis functions.
#: ``BSPLINE_A[m] @ [t**3, t**2, t, 1] == a_m(t)``.
BSPLINE_A = np.array(
    [
        [-1.0, 3.0, -3.0, 1.0],
        [3.0, -6.0, 0.0, 4.0],
        [-3.0, 3.0, 3.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
) / 6.0

#: Monomial coefficients of d a_m / d t (cubic -> quadratic; the constant
#: column keeps the same [t^3,t^2,t,1] monomial vector with a zero cubic
#: coefficient so a single ``@`` evaluates everything).
BSPLINE_DA = np.array(
    [
        [0.0, -3.0, 6.0, -3.0],
        [0.0, 9.0, -12.0, 0.0],
        [0.0, -9.0, 6.0, 3.0],
        [0.0, 3.0, 0.0, 0.0],
    ]
) / 6.0

#: Monomial coefficients of d^2 a_m / d t^2.
BSPLINE_D2A = np.array(
    [
        [0.0, 0.0, -6.0, 6.0],
        [0.0, 0.0, 18.0, -12.0],
        [0.0, 0.0, -18.0, 6.0],
        [0.0, 0.0, 6.0, 0.0],
    ]
) / 6.0


def _monomials(t: float | np.ndarray) -> np.ndarray:
    """Return the monomial vector(s) ``[t^3, t^2, t, 1]``.

    For scalar ``t`` the result has shape ``(4,)``; for an array of shape
    ``(...,)`` the result has shape ``(..., 4)``.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape + (4,), dtype=np.float64)
    out[..., 3] = 1.0
    out[..., 2] = t
    out[..., 1] = t * t
    out[..., 0] = out[..., 1] * t
    return out


def bspline_weights(t: float | np.ndarray) -> np.ndarray:
    """Four basis-function values ``a_m(t)`` at fractional coordinate ``t``.

    Parameters
    ----------
    t:
        Fractional coordinate(s) in ``[0, 1)``.  Scalar or array.

    Returns
    -------
    numpy.ndarray
        Shape ``(4,)`` for scalar input, ``(..., 4)`` for array input.
        The four weights always sum to 1 (partition of unity).
    """
    return _monomials(t) @ BSPLINE_A.T


def bspline_dweights(t: float | np.ndarray) -> np.ndarray:
    """First ``t``-derivatives ``a_m'(t)`` of the four basis functions.

    Note the result is a derivative with respect to the *fractional*
    coordinate; divide by the grid spacing to get d/dx.  The four
    derivative weights always sum to 0.
    """
    return _monomials(t) @ BSPLINE_DA.T


def bspline_d2weights(t: float | np.ndarray) -> np.ndarray:
    """Second ``t``-derivatives ``a_m''(t)`` of the four basis functions.

    Divide by the grid spacing squared to get d^2/dx^2.  The four weights
    sum to 0.
    """
    return _monomials(t) @ BSPLINE_D2A.T


def bspline_all_weights(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first and second derivative weights in one call.

    This is the per-dimension "prefactor" computation the paper amortizes
    over the N splines (Sec. IV: "The cost of computing {b} at (x,y,z) in
    Eq. 6 is amortized for N").

    Returns
    -------
    (a, da, d2a):
        Three ``(4,)`` arrays: ``a_m(t)``, ``a_m'(t)``, ``a_m''(t)``.
    """
    m = _monomials(float(t))
    return m @ BSPLINE_A.T, m @ BSPLINE_DA.T, m @ BSPLINE_D2A.T


def bspline_weights_batch(
    t: np.ndarray, order: int = 0
) -> np.ndarray:
    """Weights for a batch of fractional coordinates.

    Parameters
    ----------
    t:
        Array of fractional coordinates, any shape.
    order:
        0 for values, 1 for first derivatives, 2 for second derivatives.

    Returns
    -------
    numpy.ndarray
        Shape ``t.shape + (4,)``.

    Notes
    -----
    The contraction is written elementwise (not ``@``) on purpose: BLAS
    matmul kernels pick different accumulation orders for different batch
    sizes, which would make a weight's bits depend on how many positions
    it was computed alongside.  Elementwise ufunc chains are per-element
    deterministic, so a position's weights are identical whether it is
    evaluated alone, inside a chunk, or inside the full batch — the
    foundation of the bitwise chunking/sharding contracts in
    :mod:`repro.core.batched` and :mod:`repro.parallel`.
    """
    if order == 0:
        mat = BSPLINE_A
    elif order == 1:
        mat = BSPLINE_DA
    elif order == 2:
        mat = BSPLINE_D2A
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    m = _monomials(np.asarray(t))
    out = np.empty(m.shape, dtype=np.float64)
    for j in range(4):
        c3, c2, c1, c0 = mat[j]
        out[..., j] = ((c3 * m[..., 0] + c2 * m[..., 1]) + c1 * m[..., 2]) + c0 * m[..., 3]
    return out


#: ``(order, tap)`` coefficients of each monomial ``t^3, t^2, t, 1`` over
#: the value, first- and second-derivative matrices.
_FUSED_C3, _FUSED_C2, _FUSED_C1, _FUSED_C0 = np.moveaxis(
    np.stack([BSPLINE_A, BSPLINE_DA, BSPLINE_D2A]), -1, 0
)


def bspline_fused_weights(t: np.ndarray) -> np.ndarray:
    """All three derivative orders' weights for a batch, in one pass.

    The monomials are formed once and every ``(order, tap)`` weight is
    combined in one broadcast, so a batch pays a handful of array
    operations instead of three :func:`bspline_weights_batch` calls.

    Parameters
    ----------
    t:
        Array of fractional coordinates, any shape.

    Returns
    -------
    numpy.ndarray
        Shape ``(3, 4) + t.shape`` float64: ``[order, tap, ...]`` with
        the sample axes innermost, so ``out[o]`` is
        ``np.moveaxis(bspline_weights_batch(t, o), -1, 0)`` bit for bit.

    Notes
    -----
    Each weight is computed by exactly the elementwise operations of
    :func:`bspline_weights_batch` — ``((c3 t^3 + c2 t^2) + c1 t) + c0``
    with ``t^2 = t t`` and ``t^3 = t^2 t`` — so its bits, sign of zero
    included, equal the per-order reference and stay independent of the
    batch it is computed in.  (The reference's ``c0 * 1`` is ``c0``
    exactly, so the constant is added as is.)
    """
    t = np.asarray(t, dtype=np.float64)
    shape = (3, 4) + (1,) * t.ndim
    t2 = t * t
    t3 = t2 * t
    return (
        (_FUSED_C3.reshape(shape) * t3 + _FUSED_C2.reshape(shape) * t2)
        + _FUSED_C1.reshape(shape) * t
    ) + _FUSED_C0.reshape(shape)
