"""Particle-by-particle drift-diffusion moves (paper Sec. III, stage i).

Each electron is proposed a new position ``r' = r + tau * v(r) + chi`` with
``chi ~ N(0, tau I)`` Gaussian diffusion and ``v = grad log Psi`` the
quantum force ("to mimic QMC random moves by the quantum forces", paper
Sec. IV).  Acceptance is Metropolis-Hastings with the drift Green's
function ratio, making the sampling exact for any time step.

The drift is limited with the standard Umrigar cap — near determinant
nodes ``|v|`` diverges and an uncapped drift would push walkers far past
the node, so ``v_bar = v * (sqrt(1 + 2 tau v^2) - 1) / (tau v^2)``.
"""

from __future__ import annotations

import numpy as np

from repro.qmc.wavefunction import SlaterJastrow

__all__ = ["limited_drift", "log_greens_ratio", "sweep"]


def limited_drift(grad_logpsi: np.ndarray, tau: float) -> np.ndarray:
    """Umrigar-limited drift velocity ``v_bar * tau`` has bounded norm.

    For small ``tau * v^2`` this reduces smoothly to the bare gradient.

    Accepts a single ``(3,)`` gradient or a batch ``(..., 3)`` of them;
    the math is elementwise along the last axis either way, so the
    per-walker and crowd step paths produce the same bits from the same
    inputs.
    """
    g = np.asarray(grad_logpsi, dtype=np.float64)
    v2 = (g * g).sum(axis=-1)
    # Stable form of (sqrt(1 + 2 tau v^2) - 1) / (tau v^2): the naive
    # expression suffers catastrophic cancellation for tiny tau*v^2 and
    # can exceed 1 by rounding; this one is algebraically identical and
    # always in (0, 1].
    scale = 2.0 / (1.0 + np.sqrt(1.0 + 2.0 * tau * v2))
    # Multiplying by exactly 1.0 is a bitwise identity, so the tiny-v2
    # guard folds into the same multiply for scalars and batches alike.
    scale = np.where(v2 < 1e-300, 1.0, scale)
    return scale[..., np.newaxis] * g


def log_greens_ratio(
    r_old: np.ndarray,
    r_new: np.ndarray,
    drift_old: np.ndarray,
    drift_new: np.ndarray,
    tau: float,
):
    """log [ G(r' -> r) / G(r -> r') ] for the drift-diffusion kernel.

    With ``G(a -> b) = exp(-|b - a - tau v(a)|^2 / 2 tau)``, the forward
    and reverse displacement residuals give the detailed-balance factor
    of the Metropolis-Hastings acceptance.

    All arguments broadcast along leading axes: single ``(3,)`` vectors
    return a float, ``(nw, 3)`` batches return an ``(nw,)`` array with
    identical per-row bits.

    Parameters
    ----------
    drift_old, drift_new:
        *Limited* drift velocities at the old and new positions.
    """
    fwd = r_new - r_old - tau * drift_old
    rev = r_old - r_new - tau * drift_new
    out = ((fwd * fwd).sum(axis=-1) - (rev * rev).sum(axis=-1)) / (2.0 * tau)
    return float(out) if np.ndim(out) == 0 else out


def sweep(
    wf: SlaterJastrow,
    tau: float,
    rng: np.random.Generator,
    use_drift: bool = True,
) -> tuple[int, int]:
    """One pass of single-electron drift-diffusion moves over all electrons.

    The production drivers step through the batched
    :func:`repro.qmc.batched_step.batched_sweep` instead; this per-walker
    pass is the bitwise oracle it must reproduce, and the schedule of the
    profiled app (:mod:`repro.miniqmc.app`), which times each component
    call separately.

    Parameters
    ----------
    wf:
        The walker's wavefunction (owns the electron set).
    tau:
        Time step.
    rng:
        The walker's private random stream.
    use_drift:
        False gives plain symmetric Metropolis diffusion (VMC warm-up).

    Returns
    -------
    (accepted, attempted):
        Move counts for acceptance-ratio tracking.
    """
    n_el = len(wf.electrons)
    accepted = 0
    sqrt_tau = np.sqrt(tau)
    for e in range(n_el):
        r_old = wf.electrons[e]
        if use_drift:
            drift_old = limited_drift(wf.grad(e), tau)
        else:
            drift_old = np.zeros(3)
        chi = rng.standard_normal(3) * sqrt_tau
        r_new = r_old + tau * drift_old + chi
        ratio, grad_new = wf.ratio_grad(e, r_new)
        if ratio == 0.0:
            wf.reject_move(e)
            continue
        log_acc = 2.0 * np.log(abs(ratio))
        if use_drift:
            drift_new = limited_drift(grad_new, tau)
            # Use the unwrapped proposal in both directions: the trial
            # wavefunction is periodic so the drift at r_new equals the
            # drift at its wrapped image, and the forward/reverse residuals
            # then describe the same physical displacement.
            log_acc += log_greens_ratio(r_old, r_new, drift_old, drift_new, tau)
        if log_acc >= 0.0 or rng.random() < np.exp(log_acc):
            wf.accept_move(e)
            accepted += 1
        else:
            wf.reject_move(e)
    return accepted, n_el
