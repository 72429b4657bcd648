"""Batched population-step hot path: whole-crowd drift-diffusion sweeps.

The per-walker :func:`repro.qmc.drift_diffusion.sweep` spends its time in
hundreds of tiny NumPy dispatches per move — one B-spline gather, one
distance row, one Jastrow radial at a time.  This module advances the
whole walker population through each electron index with *one* batched
call per stage instead (the crowd design the paper's AoSoA work grew
into).

Walker state is resident in the crowd — the SoA container transformation
of paper Sec. V-A applied to the walkers themselves.
:class:`CrowdState` owns every walker's derived state as stacked arrays
with the walker as the leading axis: positions, each spin's Slater
matrix and inverse with its log-determinant and sign, both distance
tables, the Jastrow u-sums and the committed Jastrow radial rows (u, u',
u'').  Each walker's component objects hold views of its row, so
:func:`~repro.qmc.drift_diffusion.sweep`, ``recompute``,
:class:`~repro.qmc.estimators.LocalEnergy` and checkpoints read and
write the storage the batched step does.

for each sweep:
    0. the drift cache: the orbital ``(g, lap)`` of every walker's every
       committed electron position (:meth:`CrowdState.committed_vgl`),
       resident in the crowd like the rest of its state.  Only a crowd's
       first sweep evaluates it, with ONE ``vgl_batch`` over all those
       positions; after that each accepted move writes its trial rows
       into it (step 4), so it always holds the committed orbitals and
       a crowd measurement
       (:class:`repro.qmc.estimators.CrowdLocalEnergy`) reads it without
       a kernel call.  Rows are bitwise independent of the batch they
       were evaluated in, so the block equals a fresh evaluation.
    for each electron index e:
        1. drift for all walkers: stacked determinant gradients over the
           cache plus Jastrow gradients from the resident radial rows;
           per-walker Gaussian diffusion from each walker's private
           stream;
        2. ONE ``vgl_batch`` at all trial positions; batched
           minimal-image distance rows; ONE radial evaluation per
           Jastrow factor, whose (u, u', u'') serve the ratio, the trial
           gradient and, on acceptance, the radial rows;
        3. stacked determinant ratios and trial gradients, then each
           walker's Metropolis decision from its own stream;
        4. ONE masked row-wise commit of every accepted walker: the
           Sherman-Morrison update, table rows and columns, u-sums,
           radial rows and the drift cache's ``(g, lap)`` rows.  No
           per-walker staging or accept call runs.

Bit-identity with the per-walker path is a hard invariant, not an
aspiration.  Every contraction the per-walker path does with ``@`` is a
stacked ``np.matmul`` here, which calls the same BLAS ``dot``/``gemv``
for each walker; ``einsum`` and ``(a * b).sum(-1)`` round differently
and are never used for one.  Everything else is elementwise ufuncs and
last-axis reductions, whose per-row bits are independent of batch size
(see :mod:`repro.core.batched`).  Walkers consume their streams in the
same per-walker order (``standard_normal`` at the proposal, ``random``
only when the log-acceptance is negative and the ratio nonzero), and
scalar assembly (``(det * j1) * j2``) replays the per-walker operation
order exactly.  ``tests/qmc/test_batched_step.py`` locks this down with
``assert_array_equal`` against :func:`repro.qmc.drift_diffusion.sweep`,
which stays as the per-walker oracle: every stored array after each
sweep and a full VMC energy trace.
"""

from __future__ import annotations

import numpy as np

from repro.obs import OBS
from repro.qmc.drift_diffusion import limited_drift, log_greens_ratio
from repro.qmc.jastrow import pair_grad, pair_weights
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


def _resident(objs: list, attr: str) -> np.ndarray:
    """Stack ``attr`` of every object into one walker-leading block and
    rebind each object's ``attr`` to its row (a view): the block then
    holds the only copy, and a block the objects viewed before is freed
    once nothing else holds it."""
    block = np.stack([getattr(o, attr) for o in objs])
    for w, o in enumerate(objs):
        setattr(o, attr, block[w, ...])
    return block


class _JastrowFactor:
    """One Jastrow factor of a crowd: its resident rows and its table's.

    ``usum`` ``(nw, ne)`` and ``radials`` ``(nw, 3, ne, m)`` are the
    walkers' u-sums and committed (u, u', u'') rows; ``dist`` / ``disp``
    are the stacked table the factor reads.  A shared radial function
    evaluates every walker's rows in one call; otherwise each walker's
    own function runs over its own rows.
    """

    def __init__(self, jastrows, shared: bool, dist, disp, two_body: bool):
        self.jastrows = jastrows
        self.shared = shared
        self.two_body = two_body
        self.layout = jastrows[0].layout
        self.dist, self.disp = dist, disp
        self.usum = _resident(jastrows, "_usum")
        self.radials = _resident(jastrows, "radials")

    def evaluate(self, dist: np.ndarray, e: int) -> np.ndarray:
        """(u, u', u'') over electron ``e``'s stacked trial rows, ``(nw, 3, m)``."""
        exclude = e if self.two_body else None
        if self.shared:
            return np.stack(self.jastrows[0]._row_terms(dist, exclude)[:3], axis=1)
        return np.stack(
            [
                np.stack(j._row_terms(d, exclude)[:3])
                for j, d in zip(self.jastrows, dist)
            ]
        )

    def grad(self, dist, disp, du) -> np.ndarray:
        """grad J of every walker from stacked rows and their u', ``(nw, 3)``."""
        return pair_grad(self.layout, pair_weights(dist, du), disp)

    def committed_grad(self, e: int) -> np.ndarray:
        """grad_e J at every walker's committed position, from resident rows."""
        return self.grad(self.dist[:, e], self.disp[:, e], self.radials[:, 1, e])

    def commit(self, ia, e: int, trial: np.ndarray, usum: np.ndarray) -> None:
        """Accepted walkers ``ia`` take electron ``e``'s trial row, as the
        per-walker ``accept_move`` does (two-body: delta-updated sums and
        the row mirrored into column ``e``)."""
        if self.two_body:
            self.usum[ia] += trial[ia, 0] - self.radials[ia, 0, e]
        self.usum[ia, e] = usum[ia]
        self.radials[ia, :, e] = trial[ia]
        if self.two_body:
            self.radials[ia, :, :, e] = trial[ia]


class CrowdState:
    """The resident state of a crowd of walkers advanced in lock step.

    Construction *adopts* the walkers: their derived state is copied into
    stacked arrays with the walker as the leading axis, and every
    component array a walker holds is rebound to a view of its row.  The
    per-walker protocol (``sweep``, ``recompute``, ``load_positions``,
    ``LocalEnergy``) keeps working and writes in place, into the crowd.
    A walker belongs to the crowd that adopted it last; a deep copy
    (``DmcWalker.clone``) gets independent arrays.

    Resident arrays (row ``w`` is walker ``w``): ``positions``
    ``(nw, ne, 3)`` (a view of the walkers' SoA rows), ``A`` / ``Ainv``
    ``(nw, 2, N, N)`` and ``log_det`` / ``sign`` ``(nw, 2)`` per spin,
    ``ee_dist`` / ``ee_disp`` and ``ei_dist`` / ``ei_disp`` in the
    tables' layout, and per Jastrow factor its u-sums and committed
    radial rows.  Alongside: last-move ratios, local energies and
    per-walker accept counts.

    Parameters
    ----------
    wavefunctions:
        One :class:`SlaterJastrow` per walker.  All walkers must share
        the *same orbital set object* (the read-only table of paper
        Fig. 3), live in its cell, have equal electron counts, agree on
        Jastrow structure, table layout and ion count, and use per-move
        (Sherman-Morrison) determinants.
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
        :meth:`committed_vgl`); the crowd then never evaluates its drift
        cache.  Rows are bitwise independent of the batch they were
        evaluated in, so they may come from another crowd.  The crowd
        takes the arrays over and writes accepted moves into them.

    Moving a walker's positions by any route other than
    :func:`batched_sweep` (``load_positions``, say) leaves the block
    stale: build a new crowd afterwards.
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
        wf0 = wavefunctions[0]
        has_j1 = wf0.j1 is not None
        has_j2 = wf0.j2 is not None
        for wf in wavefunctions[1:]:
            if (wf.j1 is not None) != has_j1 or (wf.j2 is not None) != has_j2:
                raise ValueError(
                    "crowd walkers must agree on Jastrow structure "
                    "(every walker has j1 or none does; likewise j2)"
                )
        for wf in wavefunctions:
            if (
                wf.ee_table.layout != wf0.ee_table.layout
                or wf.ei_table.layout != wf0.ee_table.layout
                or len(wf.ions) != len(wf0.ions)
            ):
                raise ValueError(
                    "crowd walkers must agree on table layout and ion count"
                )
            if wf.slater.delay is not None:
                raise ValueError(
                    "crowd walkers need per-move determinants, not "
                    "delayed updates"
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
        self.n_walkers = nw = len(self.wfs)
        #: Total Psi ratios of the last proposed move per walker.
        self.ratios = np.zeros(nw)
        #: Per-walker local energies of the last crowd measurement
        #: (:class:`~repro.qmc.estimators.CrowdLocalEnergy`).
        self.e_local = np.zeros(nw)
        #: Per-walker accepted-move counts of the last sweep.
        self.accepts = np.zeros(nw, dtype=np.int64)
        #: Batched kernel calls performed (for instrumentation).
        self.n_batched_calls = 0

        self.layout = wf0.ee_table.layout
        # One vectorised minimal-image row computation serves the crowd
        # in the soa/orthorhombic case; otherwise each table computes
        # its walker's trial row.
        self._fast = self.layout == "soa" and self.cell.is_orthorhombic
        # Stacked Jastrow evaluation needs one radial function valid for
        # every walker.
        self._share_j1 = has_j1 and all(
            _ufunc_equal(wf.j1.u, wf0.j1.u) for wf in self.wfs
        )
        self._share_j2 = has_j2 and all(
            _ufunc_equal(wf.j2.u, wf0.j2.u) for wf in self.wfs
        )

        # Adopt the walkers, one kind of array at a time.
        wfs = self.wfs
        self._R = _resident([wf.electrons.R for wf in wfs], "_data")
        dets = [det for wf in wfs for det in wf.slater.dets]
        n = spos.n_orbitals
        self.A = _resident(dets, "A").reshape(nw, 2, n, n)
        self.Ainv = _resident(dets, "Ainv").reshape(nw, 2, n, n)
        self.log_det = _resident(dets, "_log_det").reshape(nw, 2)
        self.sign = _resident(dets, "_sign").reshape(nw, 2)
        ee = [wf.ee_table for wf in wfs]
        ei = [wf.ei_table for wf in wfs]
        self.ee_dist = _resident(ee, "distances")
        self.ee_disp = _resident(ee, "displacements")
        self.ei_dist = _resident(ei, "distances")
        self.ei_disp = _resident(ei, "displacements")
        #: The Jastrow factors in the order SlaterJastrow applies them.
        self._jastrows: list[_JastrowFactor] = []
        if has_j1:
            self._jastrows.append(
                _JastrowFactor(
                    [wf.j1 for wf in wfs], self._share_j1,
                    self.ei_dist, self.ei_disp, two_body=False,
                )
            )
        if has_j2:
            self._jastrows.append(
                _JastrowFactor(
                    [wf.j2 for wf in wfs], self._share_j2,
                    self.ee_dist, self.ee_disp, two_body=True,
                )
            )
        self._committed_vgl = committed_vgl

    def __len__(self) -> int:
        return self.n_walkers

    @property
    def positions(self) -> np.ndarray:
        """Committed positions ``(nw, ne, 3)``: a view of the walkers' rows."""
        return self._R.transpose(0, 2, 1)

    def committed_vgl(self) -> tuple[np.ndarray, np.ndarray]:
        """Orbital gradients and Laplacians at every committed position.

        ``(g (nw, ne, 3, N), lap (nw, ne, N))``, resident in the crowd:
        the first call (or a crowd's first sweep) evaluates it with ONE
        ``vgl_batch`` over the whole crowd, and from then on every
        accepted move writes its trial rows into it.  It is both the
        sweep's drift cache and the crowd estimator's determinant input,
        so a crowd pays for it once, not once per sweep or measurement.
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

    def _sources_frac(self):
        """Fast row path: every walker's ion and electron fractional
        coordinates ``(nw, 3, m)``, converted once per sweep.

        Ions stay put through a sweep; :func:`batched_sweep` rewrites an
        accepted walker's electron column with its trial's coordinates.
        The orthorhombic inverse lattice is diagonal, so a position's
        fractional bits do not depend on the batch it is converted in.
        """
        if not self._fast:
            return None, None
        ions = np.stack([wf.ei_table._src_frac for wf in self.wfs])
        nw, ne = self.n_walkers, self.n_electrons
        frac = self.cell.cart_to_frac(self.positions.reshape(-1, 3))
        electrons = frac.reshape(nw, ne, 3).transpose(0, 2, 1)
        return ions, np.ascontiguousarray(electrons)

    def _minimal_image(self, frac: np.ndarray, src: np.ndarray):
        """Orthorhombic minimal-image ``(dist (nw, m), disp (nw, 3, m))``
        from each walker's trial position (fractional, ``(nw, 3)``) to its
        ``(3, m)`` fractional sources: the soa table's row math,
        vectorised over the crowd."""
        dfrac = frac[:, :, np.newaxis] - src
        dfrac -= np.round(dfrac)
        disp = dfrac * np.diag(self.cell.lattice)[np.newaxis, :, np.newaxis]
        return np.sqrt(disp[:, 0] ** 2 + disp[:, 1] ** 2 + disp[:, 2] ** 2), disp

    def _rows_ei(self, wrapped: np.ndarray, frac, ion_frac):
        """Trial ion->electron rows ``(dist, disp)`` for the whole crowd:
        one vectorised minimal-image computation on the fast path, else
        each table's own ``_compute_row``."""
        if self._fast:
            return self._minimal_image(frac, ion_frac)
        rows = [wf.ei_table._compute_row(wrapped[w]) for w, wf in enumerate(self.wfs)]
        dist = np.stack([dist for _, dist in rows])
        return dist, np.stack([disp for disp, _ in rows])

    def _rows_ee(self, wrapped: np.ndarray, e: int, frac, el_frac):
        """Trial electron-electron rows (self entry zeroed, as propose_row)."""
        if self._fast:
            dist, disp = self._minimal_image(frac, el_frac)
            dist[:, e] = 0.0
            disp[:, :, e] = 0.0
            return dist, disp
        rows = [wf.ee_table._compute_row(wrapped[w]) for w, wf in enumerate(self.wfs)]
        dist = np.stack([dist for _, dist in rows])
        disp = np.stack([disp for disp, _ in rows])
        dist[:, e] = 0.0
        if self.layout == "aos":
            disp[:, e, :] = 0.0
        else:
            disp[:, :, e] = 0.0
        return dist, disp

    # -- the masked commit ----------------------------------------------------

    def _commit(
        self, ia, e, wrapped, trial_vgl, det_ratio, ee_rows, ei_rows, trials
    ) -> None:
        """Electron ``e``'s trial state becomes committed for the accepted
        walkers ``ia``: every update the per-walker ``accept_move`` makes,
        as one masked row-wise write per array, plus the trial orbital
        ``(g, lap)`` rows into the resident drift cache."""
        spin, row = divmod(e, self.spos.n_orbitals)
        v, g, lap = trial_vgl
        self._R[ia, :, e] = wrapped[ia]
        if self._committed_vgl is not None:
            cache_g, cache_lap = self._committed_vgl
            cache_g[ia, e] = g[ia]
            cache_lap[ia, e] = lap[ia]
        # Sherman-Morrison, DiracDeterminant.accept_move's operations.
        r = det_ratio[ia]
        u = v[ia]
        ainv = self.Ainv[ia, spin]
        u_ainv = np.matmul(u[:, np.newaxis, :], ainv)[:, 0]
        u_ainv[:, row] -= 1.0
        x = u_ainv / r[:, np.newaxis]
        ainv -= ainv[:, :, row, np.newaxis] * x[:, np.newaxis, :]
        self.Ainv[ia, spin] = ainv
        self.A[ia, spin, row] = u
        self.log_det[ia, spin] += np.log(np.abs(r))
        flip = ia[r < 0.0]
        self.sign[flip, spin] = -self.sign[flip, spin]
        # Table rows; the symmetric table mirrors into column e.
        dist, disp = ee_rows
        self.ee_dist[ia, e] = dist[ia]
        self.ee_dist[ia, :, e] = dist[ia]
        self.ee_disp[ia, e] = disp[ia]
        if self.layout == "aos":
            self.ee_disp[ia, :, e, :] = -disp[ia]
        else:
            self.ee_disp[ia, :, :, e] = -disp[ia].transpose(0, 2, 1)
        dist, disp = ei_rows
        self.ei_dist[ia, e] = dist[ia]
        self.ei_disp[ia, e] = disp[ia]
        for factor, (trial, usum) in zip(self._jastrows, trials):
            factor.commit(ia, e, trial, usum)


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
    rngs = state.rngs
    nw, ne = state.n_walkers, state.n_electrons
    n = state.spos.n_orbitals
    accepted = 0
    state.accepts[:] = 0
    sqrt_tau = np.sqrt(tau)

    if use_drift:
        # Drift cache: the resident committed-position VGL (one batched
        # call on a crowd's first sweep).  Electron e's row changes only
        # when e itself moves, after its drift has been read.
        cache_g, _ = state.committed_vgl()
    ion_frac, el_frac = state._sources_frac()

    for e in range(ne):
        spin, row = divmod(e, n)
        # Every walker's inverse column Ainv[:, row] as an (N, 1)
        # operand: np.matmul then calls the BLAS dot/gemv per walker
        # that the per-walker `@` calls.
        col = state.Ainv[:, spin, :, row, np.newaxis]

        # 1. proposals: stacked drift, per-walker diffusion.
        r_old = state._R[:, :, e]
        if use_drift:
            # Same accumulation order as SlaterJastrow.grad: det, j1, j2.
            grads_old = np.matmul(cache_g[:, e], col)[..., 0]
            for factor in state._jastrows:
                grads_old = grads_old + factor.committed_grad(e)
            drift_old = limited_drift(grads_old, tau)
        else:
            drift_old = np.zeros((nw, 3))
        chi = np.stack([rng.standard_normal(3) for rng in rngs])
        r_new = r_old + tau * drift_old + chi * sqrt_tau

        # 2. one batched orbital call, batched rows, one radial
        # evaluation per Jastrow factor at the trials.
        wrapped = state.cell.wrap_cart(r_new)
        trial_vgl = state.spos.vgl_batch(wrapped)
        v, g, _ = trial_vgl
        state.n_batched_calls += 1
        frac = state.cell.cart_to_frac(wrapped) if state._fast else None
        ee_rows = state._rows_ee(wrapped, e, frac, el_frac)
        ei_rows = state._rows_ei(wrapped, frac, ion_frac)

        # 3. stacked ratios and trial gradients in the per-walker order:
        # ratio = (det * j1) * j2, grad = (det + j1) + j2.
        det_ratio = np.matmul(v[:, np.newaxis, :], col)[:, 0, 0]
        grads_new = np.matmul(g, col)[..., 0]
        np.divide(
            grads_new, det_ratio[:, np.newaxis], out=grads_new,
            where=det_ratio[:, np.newaxis] != 0.0,
        )
        ratios = det_ratio
        trials = []
        for factor in state._jastrows:
            dist, disp = ee_rows if factor.two_body else ei_rows
            trial = factor.evaluate(dist, e)
            usum = trial[:, 0].sum(axis=-1)
            ratios = ratios * np.exp(-(usum - factor.usum[:, e]))
            grads_new = grads_new + factor.grad(dist, disp, trial[:, 1])
            trials.append((trial, usum))
        state.ratios[...] = ratios

        # Independent Metropolis decisions (same per-stream RNG order as
        # the per-walker path: a uniform is drawn only when the ratio is
        # nonzero and the log-acceptance negative).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_acc = 2.0 * np.log(np.abs(ratios))
            if use_drift:
                drift_new = limited_drift(grads_new, tau)
                log_acc = log_acc + log_greens_ratio(
                    r_old, r_new, drift_old, drift_new, tau
                )
            acc_prob = np.exp(np.minimum(log_acc, 0.0))
        accept = np.zeros(nw, dtype=bool)
        for w in range(nw):
            if ratios[w] != 0.0:
                accept[w] = log_acc[w] >= 0.0 or rngs[w].random() < acc_prob[w]
        ia = np.flatnonzero(accept)

        # 4. one masked commit of every accepted walker.
        if ia.size:
            state._commit(
                ia, e, wrapped, trial_vgl, det_ratio, ee_rows, ei_rows, trials
            )
            if el_frac is not None:
                el_frac[ia, :, e] = frac[ia]
            state.accepts[ia] += 1
            accepted += ia.size

    if OBS.enabled:
        OBS.count("crowd_batched_sweeps_total")
        OBS.count("crowd_batched_moves_total", nw * ne)
        OBS.count("crowd_batched_accepts_total", accepted)
    return accepted, nw * ne
