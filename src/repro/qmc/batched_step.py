"""Batched population-step hot path: whole-crowd drift-diffusion sweeps.

The per-walker :func:`repro.qmc.drift_diffusion.sweep` spends its time in
hundreds of tiny NumPy dispatches per move — one B-spline gather, one
distance row, one Jastrow radial at a time.  This module advances the
whole walker population through each electron index with *one* batched
kernel call per stage instead (the crowd design the paper's AoSoA work
grew into):

for each sweep:
    0. ONE ``vgl_batch`` over every walker's every committed electron
       position — the drift cache (:meth:`CrowdState.committed_vgl`).
       Within a sweep each electron is visited exactly once, so its
       committed orbitals cannot change before its visit and the cache
       never goes stale.  A crowd measurement
       (:class:`repro.qmc.estimators.CrowdLocalEnergy`) evaluates the
       same block at the same positions, so a sweep that follows one
       takes it over instead of evaluating it again.
    for each electron index e:
        1. drift for all walkers from the cache + batched committed
           Jastrow rows; per-walker Gaussian diffusion from each
           walker's private stream;
        2. ONE ``vgl_batch`` at all trial positions; batched
           minimal-image distance rows; batched Jastrow radials;
        3. each walker stages its slices
           (:meth:`~repro.qmc.wavefunction.SlaterJastrow.stage_precomputed`)
           and finishes its Metropolis decision independently.

Bit-identity with the per-walker path is a hard invariant, not an
aspiration: every batched stage uses only operations whose per-row bits
are independent of batch size (row-wise matmuls, last-axis reductions,
elementwise ufuncs — see the probes referenced in
:mod:`repro.core.batched`), walkers consume their streams in the same
per-walker order (``standard_normal`` at the proposal, ``random`` only
when the log-acceptance is negative and the ratio nonzero), and scalar
assembly (``(det * j1) * j2``) replays the per-walker operation order
exactly.  ``tests/qmc/test_batched_step.py`` locks this down with
``assert_array_equal`` against :func:`repro.qmc.drift_diffusion.sweep`,
which stays as the per-walker oracle: walker states after each sweep
and a full VMC energy trace.
"""

from __future__ import annotations

import numpy as np

from repro.obs import OBS
from repro.qmc.drift_diffusion import limited_drift, log_greens_ratio
from repro.qmc.wavefunction import SlaterJastrow

__all__ = ["CrowdState", "batched_sweep"]


def _ufunc_equal(a, b) -> bool:
    """True when two radial functions are interchangeable bit-for-bit.

    Compares type and every instance attribute (arrays by value).  DMC
    ensembles build one radial per walker with identical inputs; value
    equality lets the crowd evaluate one spline over every walker's rows.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    va, vb = vars(a), vars(b)
    if va.keys() != vb.keys():
        return False
    for k, x in va.items():
        y = vb[k]
        if isinstance(x, np.ndarray):
            if not (
                isinstance(y, np.ndarray)
                and x.shape == y.shape
                and np.array_equal(x, y)
            ):
                return False
        elif x != y:
            return False
    return True


class CrowdState:
    """SoA state for a crowd of walkers advanced in lock step.

    Holds the population-level arrays the batched step reads and writes —
    committed positions, last-move ratios, local energies — plus the
    shareability analysis (which Jastrows/tables can be evaluated stacked)
    done once at construction instead of every move.

    Parameters
    ----------
    wavefunctions:
        One :class:`SlaterJastrow` per walker.  All walkers must share
        the *same orbital set object* (the read-only table of paper
        Fig. 3), live in its cell, have equal electron counts, and agree
        on Jastrow structure.
    rngs:
        One private stream per walker.
    config:
        Optional :class:`repro.config.RunConfig`; when given, the shared
        orbital set is reconfigured with it (per-walker trajectories are
        bitwise invariant to the blocking knobs).
    tile_size, chunk_size:
        .. deprecated:: PR9
           Use ``config=RunConfig(...)``; honoured (with a warning) for
           one release.
    committed_vgl:
        Optional ``(g (nw, ne, 3, N), lap (nw, ne, N))`` measured at the
        walkers' current positions (a handed-over
        :meth:`committed_vgl`); the first sweep then skips its drift
        cache evaluation.  Rows are bitwise independent of the batch
        they were evaluated in, so they may come from another crowd.
    """

    def __init__(
        self,
        wavefunctions: list[SlaterJastrow],
        rngs: list,
        tile_size: int | None = None,
        chunk_size: int | None = None,
        config=None,
        committed_vgl: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if not wavefunctions:
            raise ValueError("a crowd needs at least one walker")
        if len(rngs) != len(wavefunctions):
            raise ValueError("need exactly one rng per walker")
        spos = wavefunctions[0].slater.spos
        n_el = len(wavefunctions[0].electrons)
        for wf in wavefunctions[1:]:
            if wf.slater.spos is not spos:
                raise ValueError(
                    "crowd walkers must share one orbital set (the shared "
                    "read-only table)"
                )
            if len(wf.electrons) != n_el:
                raise ValueError("crowd walkers must have equal electron counts")
        for wf in wavefunctions:
            if not np.array_equal(wf.electrons.cell.lattice, spos.cell.lattice):
                raise ValueError(
                    "crowd walkers must live in the orbital set's cell"
                )
        has_j1 = wavefunctions[0].j1 is not None
        has_j2 = wavefunctions[0].j2 is not None
        for wf in wavefunctions[1:]:
            if (wf.j1 is not None) != has_j1 or (wf.j2 is not None) != has_j2:
                raise ValueError(
                    "crowd walkers must agree on Jastrow structure "
                    "(every walker has j1 or none does; likewise j2)"
                )

        from repro.config import deprecated_kwargs

        deprecated_kwargs(
            "CrowdState",
            tile_size=tile_size is not None,
            chunk_size=chunk_size is not None,
        )
        if tile_size is not None or chunk_size is not None:
            config = (config or spos.config).replace(
                tile_size=tile_size, chunk_size=chunk_size
            )
        if config is not None:
            spos.configure_batched(config=config)

        self.wfs = list(wavefunctions)
        self.rngs = list(rngs)
        self.spos = spos
        self.cell = spos.cell
        self.n_electrons = n_el
        self.n_walkers = len(self.wfs)
        #: Committed positions, SoA over the crowd: ``(nw, ne, 3)``.
        self.positions = np.zeros((self.n_walkers, n_el, 3))
        #: Total Psi ratios of the last proposed move per walker.
        self.ratios = np.zeros(self.n_walkers)
        #: Per-walker local energies of the last crowd measurement
        #: (:class:`~repro.qmc.estimators.CrowdLocalEnergy`).
        self.e_local = np.zeros(self.n_walkers)
        #: Per-walker accepted-move counts of the last sweep.
        self.accepts = np.zeros(self.n_walkers, dtype=np.int64)
        #: Batched kernel calls performed (for instrumentation).
        self.n_batched_calls = 0

        self._has_j1 = has_j1
        self._has_j2 = has_j2
        # Stacked-row evaluation needs uniform layouts/shapes across the
        # crowd; stacked Jastrow evaluation additionally needs one radial
        # function valid for every walker.
        wf0 = self.wfs[0]
        self._ee_stack = all(
            wf.ee_table.layout == wf0.ee_table.layout for wf in self.wfs
        )
        self._ei_stack = all(
            wf.ei_table.layout == wf0.ei_table.layout
            and len(wf.ions) == len(wf0.ions)
            for wf in self.wfs
        )
        self._share_j1 = (
            has_j1
            and self._ei_stack
            and all(_ufunc_equal(wf.j1.u, wf0.j1.u) for wf in self.wfs)
        )
        self._share_j2 = (
            has_j2
            and self._ee_stack
            and all(_ufunc_equal(wf.j2.u, wf0.j2.u) for wf in self.wfs)
        )
        self._ee_fast = (
            self._ee_stack
            and wf0.ee_table.layout == "soa"
            and self.cell.is_orthorhombic
        )
        self._ei_fast = (
            self._ei_stack
            and wf0.ei_table.layout == "soa"
            and self.cell.is_orthorhombic
        )
        self.refresh_positions()
        self._committed_vgl = committed_vgl

    def __len__(self) -> int:
        return self.n_walkers

    def refresh_positions(self) -> None:
        """Re-gather every walker's committed positions into the SoA array.

        Call after any out-of-band position change (checkpoint restore,
        DMC branching assembling a new crowd from cloned walkers).  Drops
        the :meth:`committed_vgl` block, which belonged to the old
        positions.
        """
        for w, wf in enumerate(self.wfs):
            self.positions[w] = wf.electrons.positions
        self._committed_vgl = None

    def committed_vgl(self) -> tuple[np.ndarray, np.ndarray]:
        """Orbital gradients and Laplacians at every committed position.

        ``(g (nw, ne, 3, N), lap (nw, ne, N))`` from ONE ``vgl_batch``
        over the whole crowd, kept until a sweep moves the walkers.  It
        is both the sweep's drift cache and the crowd estimator's
        determinant input, so a measurement followed by a sweep
        evaluates it once.
        """
        if self._committed_vgl is None:
            _, g, lap = self.spos.vgl_batch(self.positions.reshape(-1, 3))
            self.n_batched_calls += 1
            nw, ne = self.n_walkers, self.n_electrons
            self._committed_vgl = (
                g.reshape(nw, ne, 3, -1),
                lap.reshape(nw, ne, -1),
            )
        return self._committed_vgl

    # -- batched distance rows ------------------------------------------------

    def _rows_ei(self, wrapped: np.ndarray):
        """Trial ion->electron rows for the whole crowd.

        Returns ``(dist, disp)`` stacked over walkers when layouts are
        uniform (fast path: one vectorized minimal-image computation for
        the soa/orthorhombic case), else lists of per-walker rows.
        """
        if self._ei_fast:
            cell = self.cell
            src = np.stack([wf.ei_table._src_frac for wf in self.wfs])
            tgt_frac = cell.cart_to_frac(wrapped)  # (nw, 3)
            dfrac = tgt_frac[:, :, np.newaxis] - src
            dfrac -= np.round(dfrac)
            diag = np.diag(cell.lattice)
            disp = dfrac * diag[np.newaxis, :, np.newaxis]
            dist = np.sqrt(disp[:, 0] ** 2 + disp[:, 1] ** 2 + disp[:, 2] ** 2)
            return dist, disp
        rows = [wf.ei_table._compute_row(wrapped[w]) for w, wf in enumerate(self.wfs)]
        dists = [dist for _, dist in rows]
        disps = [disp for disp, _ in rows]
        if self._ei_stack:
            return np.stack(dists), np.stack(disps)
        return dists, disps

    def _rows_ee(self, wrapped: np.ndarray, e: int):
        """Trial electron-electron rows (self entry zeroed, as propose_row)."""
        if self._ee_fast:
            cell = self.cell
            nw, ne = self.n_walkers, self.n_electrons
            frac = cell.cart_to_frac(self.positions.reshape(-1, 3))
            src = frac.reshape(nw, ne, 3).transpose(0, 2, 1)  # (nw, 3, ne)
            tgt_frac = cell.cart_to_frac(wrapped)
            dfrac = tgt_frac[:, :, np.newaxis] - src
            dfrac -= np.round(dfrac)
            diag = np.diag(cell.lattice)
            disp = dfrac * diag[np.newaxis, :, np.newaxis]
            dist = np.sqrt(disp[:, 0] ** 2 + disp[:, 1] ** 2 + disp[:, 2] ** 2)
            dist[:, e] = 0.0
            disp[:, :, e] = 0.0
            return dist, disp
        dists, disps = [], []
        for w, wf in enumerate(self.wfs):
            disp, dist = wf.ee_table._compute_row(wrapped[w])
            dist[e] = 0.0
            if wf.ee_table.layout == "aos":
                disp[e, :] = 0.0
            else:
                disp[:, e] = 0.0
            dists.append(dist)
            disps.append(disp)
        if self._ee_stack:
            return np.stack(dists), np.stack(disps)
        return dists, disps


def _stacked_committed_rows(tables, e: int):
    """Stack the committed (dist, disp) rows of electron ``e`` over a crowd."""
    dist = np.stack([t.row(e) for t in tables])
    disp = np.stack([t.disp_row(e) for t in tables])
    return dist, disp


def _j1_pieces(state: CrowdState, e: int, ei_dist, ei_disp):
    """(usum_temp, ratio, grad_temp) per walker for the one-body Jastrow."""
    nw = state.n_walkers
    if state._share_j1:
        j0 = state.wfs[0].j1
        v_new, _, _, _ = j0._row_terms(ei_dist, None)
        usum_temp = v_new.sum(axis=-1)
        usums = np.array([wf.j1._usum[e] for wf in state.wfs])
        ratio = np.exp(-(usum_temp - usums))
        gt, _ = j0._grad_lap_from_row(ei_dist, ei_disp, None)
        return usum_temp, ratio, gt
    usum_temp = np.empty(nw)
    ratio = np.empty(nw)
    gt = np.empty((nw, 3))
    for w, wf in enumerate(state.wfs):
        v_new, _, _, _ = wf.j1._row_terms(ei_dist[w], None)
        usum_temp[w] = float(v_new.sum())
        ratio[w] = float(np.exp(-(usum_temp[w] - wf.j1._usum[e])))
        gt[w], _ = wf.j1._grad_lap_from_row(ei_dist[w], ei_disp[w], None)
    return usum_temp, ratio, gt


def _j2_pieces(state: CrowdState, e: int, ee_dist, ee_disp):
    """(urow_new, urow_old, ratio, grad_temp) per walker, two-body Jastrow."""
    nw = state.n_walkers
    if state._share_j2:
        j0 = state.wfs[0].j2
        urow_new, _, _, _ = j0._row_terms(ee_dist, e)
        cd = np.stack([wf.ee_table.row(e) for wf in state.wfs])
        urow_old, _, _, _ = j0._row_terms(cd, e)
        usum_temp = urow_new.sum(axis=-1)
        usums = np.array([wf.j2._usum[e] for wf in state.wfs])
        ratio = np.exp(-(usum_temp - usums))
        gt, _ = j0._grad_lap_from_row(ee_dist, ee_disp, e)
        return urow_new, urow_old, ratio, gt
    n = state.n_electrons
    urow_new = np.empty((nw, n))
    urow_old = np.empty((nw, n))
    ratio = np.empty(nw)
    gt = np.empty((nw, 3))
    for w, wf in enumerate(state.wfs):
        vn, _, _, _ = wf.j2._row_terms(ee_dist[w], e)
        vo, _, _, _ = wf.j2._row_terms(wf.ee_table.row(e), e)
        urow_new[w] = vn
        urow_old[w] = vo
        usum_temp = float(vn.sum())
        ratio[w] = float(np.exp(-(usum_temp - wf.j2._usum[e])))
        gt[w], _ = wf.j2._grad_lap_from_row(ee_dist[w], ee_disp[w], e)
    return urow_new, urow_old, ratio, gt


def _committed_jastrow_terms(
    state: CrowdState, e: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each Jastrow factor's ``(grad (nw, 3), lap (nw,))`` at electron ``e``.

    Evaluated on every walker's committed rows: one stacked radial call
    per factor when the crowd shares it, else each walker's own
    ``grad_lap``.  The list runs j1 then j2 — the order
    :class:`SlaterJastrow` adds them in.
    """
    wfs = state.wfs
    factors = []
    if state._has_j1:
        factors.append(
            ([wf.j1 for wf in wfs], state._share_j1, [wf.ei_table for wf in wfs], None)
        )
    if state._has_j2:
        factors.append(
            ([wf.j2 for wf in wfs], state._share_j2, [wf.ee_table for wf in wfs], e)
        )
    terms = []
    for jastrows, shared, tables, exclude in factors:
        if shared:
            cd, cdisp = _stacked_committed_rows(tables, e)
            terms.append(jastrows[0]._grad_lap_from_row(cd, cdisp, exclude))
        else:
            pairs = [j.grad_lap(e) for j in jastrows]
            terms.append(
                (np.stack([g for g, _ in pairs]), np.array([l for _, l in pairs]))
            )
    return terms


def _committed_grads(state: CrowdState, e: int, cache_g, cache_lap):
    """grad log Psi at every walker's committed electron ``e`` (drift)."""
    nw = state.n_walkers
    grads = np.empty((nw, 3))
    for w, wf in enumerate(state.wfs):
        g, _ = wf.slater.grad_lap_from_vgl(e, cache_g[w, e], cache_lap[w, e])
        grads[w] = g
    # Same accumulation order as SlaterJastrow.grad: det, then j1, then j2.
    for g, _ in _committed_jastrow_terms(state, e):
        grads = grads + g
    return grads


def batched_sweep(
    state: CrowdState, tau: float, use_drift: bool = True
) -> tuple[int, int]:
    """One lock-step drift-diffusion pass over all electrons of a crowd.

    Per-walker trajectories are bitwise identical to running the
    sequential :func:`repro.qmc.drift_diffusion.sweep` on each walker
    with the same streams; only the evaluation schedule changes.

    Returns
    -------
    (accepted, attempted):
        Move counts summed over the crowd.
    """
    wfs, rngs = state.wfs, state.rngs
    nw, ne = state.n_walkers, state.n_electrons
    spos = state.spos
    accepted = 0
    state.accepts[:] = 0
    sqrt_tau = np.sqrt(tau)

    if use_drift:
        # Drift cache: the committed-position VGL, one batched call (or
        # the block a measurement at these positions left).  Valid for
        # the whole sweep — electron e's committed orbitals can only
        # change when e itself moves, and each e is visited once.
        cache_g, cache_lap = state.committed_vgl()
    # The walkers move from here on.
    state._committed_vgl = None

    for e in range(ne):
        # 1. proposals: batched drift, per-walker diffusion.
        r_old = state.positions[:, e, :]
        if use_drift:
            grads_old = _committed_grads(state, e, cache_g, cache_lap)
            drift_old = limited_drift(grads_old, tau)
        else:
            drift_old = np.zeros((nw, 3))
        chi = np.stack([rng.standard_normal(3) for rng in rngs])
        r_new = r_old + tau * drift_old + chi * sqrt_tau

        # 2. one batched orbital call + batched rows/radials at the trials.
        wrapped = state.cell.wrap_cart(r_new)
        v, g, lap = spos.vgl_batch(wrapped)
        state.n_batched_calls += 1
        ee_dist, ee_disp = state._rows_ee(wrapped, e)
        ei_dist, ei_disp = state._rows_ei(wrapped)
        if state._has_j1:
            j1_usum, j1_ratio, j1_gt = _j1_pieces(state, e, ei_dist, ei_disp)
        if state._has_j2:
            j2_new, j2_old, j2_ratio, j2_gt = _j2_pieces(
                state, e, ee_dist, ee_disp
            )

        # 3. per-walker staging; scalar assembly replays the per-walker
        # operation order: ratio = (det * j1) * j2, grad = (det + j1) + j2.
        ratios = np.empty(nw)
        grads_new = np.empty((nw, 3))
        for w, wf in enumerate(wfs):
            det_ratio, det_grad = wf.stage_precomputed(
                e,
                wrapped[w],
                (v[w], g[w], lap[w]),
                (ee_dist[w], ee_disp[w]),
                (ei_dist[w], ei_disp[w]),
                j1_usum_temp=float(j1_usum[w]) if state._has_j1 else None,
                j2_urows=(j2_new[w], j2_old[w]) if state._has_j2 else None,
            )
            ratio = det_ratio
            grad = det_grad
            if state._has_j1:
                ratio *= float(j1_ratio[w])
                grad = grad + j1_gt[w]
            if state._has_j2:
                ratio *= float(j2_ratio[w])
                grad = grad + j2_gt[w]
            ratios[w] = ratio
            grads_new[w] = grad
        state.ratios[...] = ratios

        # 4. independent Metropolis decisions (same per-stream RNG order
        # as the per-walker path: a uniform is drawn only when the ratio
        # is nonzero and the log-acceptance negative).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_acc = 2.0 * np.log(np.abs(ratios))
            if use_drift:
                drift_new = limited_drift(grads_new, tau)
                log_acc = log_acc + log_greens_ratio(
                    r_old, r_new, drift_old, drift_new, tau
                )
            acc_prob = np.exp(np.minimum(log_acc, 0.0))
        for w, wf in enumerate(wfs):
            if ratios[w] == 0.0:
                wf.reject_move(e)
                continue
            if log_acc[w] >= 0.0 or rngs[w].random() < acc_prob[w]:
                wf.accept_move(e)
                state.positions[w, e] = wrapped[w]
                accepted += 1
                state.accepts[w] += 1
            else:
                wf.reject_move(e)

    if OBS.enabled:
        OBS.count("crowd_batched_sweeps_total")
        OBS.count("crowd_batched_moves_total", nw * ne)
        OBS.count("crowd_batched_accepts_total", accepted)
    return accepted, nw * ne
