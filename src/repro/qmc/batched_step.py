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
           per-walker Gaussian diffusion drawn in place from each
           walker's private stream;
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

Everything per electron but the BLAS products, ``exp``/``log``, the
draws and the Metropolis loop has two implementations with the same
bits.  The NumPy ones (:func:`_numpy_propose`, :meth:`CrowdState._rows_ee`,
:meth:`~CrowdState._rows_ei`, :meth:`_JastrowFactor.evaluate`,
:func:`_numpy_trial`, :meth:`CrowdState._commit`) serve every crowd;
where the orbitals run the ``cc`` backend, a crowd on the fast path (soa
tables, orthorhombic cell) whose Jastrow radials are shared runs
:class:`_CompiledRows` instead: float64 C routines doing the same
operations in the same order, NumPy's pairwise summation included,
after a once-per-process byte-for-byte gate (:func:`_gate`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.backends import BackendUnavailable
from repro.backends import cc_backend
from repro.backends.cc_backend import address
from repro.backends.registry import _note_fallback
from repro.core.spline1d import CubicBspline1D
from repro.lattice.cell import Cell
from repro.obs import OBS
from repro.qmc.drift_diffusion import limited_drift, log_greens_ratio
from repro.qmc.jastrow import (
    _JastrowBase,
    make_polynomial_radial,
    pair_grad,
    pair_weights,
)
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
            return np.moveaxis(self.jastrows[0]._row_terms(dist, exclude), 0, 1)
        return np.stack(
            [j._row_terms(d, exclude) for j, d in zip(self.jastrows, dist)]
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
    per-walker accept counts.  Construction also picks the crowd's row
    path: compiled (:func:`_compiled_rows`) or the NumPy methods.

    Parameters
    ----------
    wavefunctions:
        One :class:`SlaterJastrow` per walker.  All walkers must share
        the *same orbital set object* (the read-only table of paper
        Fig. 3), live in its cell, have equal electron counts, agree on
        Jastrow structure, table layout and ion count.
    rngs:
        One private stream per walker.
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
        #: Each walker's diffusion draw of the current electron index,
        #: drawn in place row by row.
        self._chi = np.empty((nw, 3))
        self._chi_rows = list(self._chi)
        if self._fast:
            # Every walker's electron and ion fractional coordinates
            # (nw, 3, m), refilled each sweep (:meth:`_sources_frac`).
            self._el_frac = np.empty((nw, 3, n_el))
            self._ion_frac = np.empty((nw, 3, self.ei_dist.shape[-1]))
        #: The compiled row path, or None where the NumPy methods serve.
        self._cc = _compiled_rows(self)

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

    def _sources_frac(self) -> None:
        """Fast row path: refill every walker's ion and electron
        fractional coordinates ``(nw, 3, m)``, once per sweep.

        Ions stay put through a sweep; each commit rewrites an accepted
        walker's electron column with its trial's coordinates.  The
        orthorhombic inverse lattice is diagonal, so a position's
        fractional bits do not depend on the batch it is converted in.
        """
        if not self._fast:
            return
        for w, wf in enumerate(self.wfs):
            self._ion_frac[w] = wf.ei_table._src_frac
        nw, ne = self.n_walkers, self.n_electrons
        frac = self.cell.cart_to_frac(self.positions.reshape(-1, 3))
        self._el_frac[...] = frac.reshape(nw, ne, 3).transpose(0, 2, 1)

    def _minimal_image(self, frac: np.ndarray, src: np.ndarray):
        """Orthorhombic minimal-image ``(dist (nw, m), disp (nw, 3, m))``
        from each walker's trial position (fractional, ``(nw, 3)``) to its
        ``(3, m)`` fractional sources: the soa table's row math,
        vectorised over the crowd."""
        dfrac = frac[:, :, np.newaxis] - src
        dfrac -= np.round(dfrac)
        disp = dfrac * np.diag(self.cell.lattice)[np.newaxis, :, np.newaxis]
        return np.sqrt(disp[:, 0] ** 2 + disp[:, 1] ** 2 + disp[:, 2] ** 2), disp

    def _rows_ei(self, wrapped: np.ndarray, frac):
        """Trial ion->electron rows ``(dist, disp)`` for the whole crowd:
        one vectorised minimal-image computation on the fast path, else
        each table's own ``_compute_row``."""
        if self._fast:
            return self._minimal_image(frac, self._ion_frac)
        rows = [wf.ei_table._compute_row(wrapped[w]) for w, wf in enumerate(self.wfs)]
        dist = np.stack([dist for _, dist in rows])
        return dist, np.stack([disp for disp, _ in rows])

    def _rows_ee(self, wrapped: np.ndarray, e: int, frac):
        """Trial electron-electron rows (self entry zeroed, as propose_row)."""
        if self._fast:
            dist, disp = self._minimal_image(frac, self._el_frac)
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
        self, ia, e, wrapped, frac, trial_vgl, det_ratio, ee_rows, ei_rows, trials
    ) -> None:
        """Electron ``e``'s trial state becomes committed for the accepted
        walkers ``ia``: every update the per-walker ``accept_move`` makes,
        as one masked row-wise write per array, plus the trial orbital
        ``(g, lap)`` rows into the resident drift cache, the trial's
        fractional column (fast path) and the accept counts."""
        spin, row = divmod(e, self.spos.n_orbitals)
        v, g, lap = trial_vgl
        self._R[ia, :, e] = wrapped[ia]
        if self._fast:
            self._el_frac[ia, :, e] = frac[ia]
        self.accepts[ia] += 1
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


def _resident_arrays(state: CrowdState) -> dict[str, np.ndarray]:
    """Every block an accepted move writes, by name."""
    arrays = {
        "positions": state._R, "A": state.A, "Ainv": state.Ainv,
        "log_det": state.log_det, "sign": state.sign,
        "ee_dist": state.ee_dist, "ee_disp": state.ee_disp,
        "ei_dist": state.ei_dist, "ei_disp": state.ei_disp,
        "accepts": state.accepts,
    }
    if state._fast:
        arrays["el_frac"] = state._el_frac
    if state._committed_vgl is not None:
        arrays["cache_g"], arrays["cache_lap"] = state._committed_vgl
    for factor in state._jastrows:
        j = "j2" if factor.two_body else "j1"
        arrays[f"{j}_usum"], arrays[f"{j}_radials"] = factor.usum, factor.radials
    return arrays


def _numpy_propose(
    state: CrowdState, cache_g, col, e: int, use_drift: bool, tau, sqrt_tau
):
    """Step 1 on NumPy: ``(r_new, drift_old)`` of electron ``e`` from the
    drift cache ``cache_g``, the inverses' columns ``col`` and the
    crowd's drawn ``chi``."""
    r_old = state._R[:, :, e]
    if use_drift:
        # Same accumulation order as SlaterJastrow.grad: det, j1, j2.
        grads_old = np.matmul(cache_g[:, e], col)[..., 0]
        for factor in state._jastrows:
            grads_old = grads_old + factor.committed_grad(e)
        drift_old = limited_drift(grads_old, tau)
    else:
        drift_old = np.zeros((state.n_walkers, 3))
    return r_old + tau * drift_old + state._chi * sqrt_tau, drift_old


def _numpy_trial(
    state: CrowdState, v, g, col, e: int, ee_rows, ei_rows, terms,
    r_new, drift_old, use_drift: bool, tau,
):
    """Step 3 on NumPy: stacked ratios and trial gradients in the
    per-walker order, ratio = (det * j1) * j2 and grad = (det + j1) + j2,
    then the log-acceptance.  Returns ``(ratios, log_acc, det_ratio,
    trials)``, ``trials`` each factor's ``(terms, usum)``."""
    det_ratio = np.matmul(v[:, np.newaxis, :], col)[:, 0, 0]
    grads_new = np.matmul(g, col)[..., 0]
    np.divide(
        grads_new, det_ratio[:, np.newaxis], out=grads_new,
        where=det_ratio[:, np.newaxis] != 0.0,
    )
    ratios = det_ratio
    trials = []
    for factor, trial in zip(state._jastrows, terms):
        dist, disp = ee_rows if factor.two_body else ei_rows
        usum = trial[:, 0].sum(axis=-1)
        ratios = ratios * np.exp(-(usum - factor.usum[:, e]))
        grads_new = grads_new + factor.grad(dist, disp, trial[:, 1])
        trials.append((trial, usum))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_acc = 2.0 * np.log(np.abs(ratios))
        if use_drift:
            drift_new = limited_drift(grads_new, tau)
            log_acc = log_acc + log_greens_ratio(
                state._R[:, :, e], r_new, drift_old, drift_new, tau
            )
    return ratios, log_acc, det_ratio, trials


class _CompiledRows:
    """A crowd's per-electron row math and glue, compiled.

    The float64 routines of the ``cc`` library
    (:mod:`repro.backends.cc_backend`) repeat, in their order, the
    operations of :func:`_numpy_propose` (``repro_crowd_propose``: the
    committed Jastrow gradients, the limited drift and the proposal),
    :meth:`CrowdState._rows_ee` / :meth:`~CrowdState._rows_ei` and
    :meth:`_JastrowFactor.evaluate` (``repro_crowd_rows``),
    :func:`_numpy_trial` (``repro_crowd_trial``: the where-divide, the
    trial u-sums and Jastrow gradients, the second limited drift and the
    Green's ratio) and :meth:`CrowdState._commit` (``repro_crowd_commit``),
    so they write the same bytes (proved once per process by
    :func:`_gate`).  Every BLAS product, ``exp`` and ``log`` stays in
    NumPy.  Per-electron operands live in per-crowd scratch; the
    routines reach it and the crowd's resident blocks through one
    address table (:data:`~repro.backends.cc_backend.CROWD_SLOTS`), read
    once per crowd and again only when the drift cache appears.
    """

    def __init__(self, state: CrowdState, lib):
        # No reference to the crowd itself: a cycle would keep a DMC
        # generation's crowd blocks alive until the cyclic collector ran.
        self._rows_fn = lib.repro_crowd_rows
        self._commit_fn = lib.repro_crowd_commit
        self._propose_fn = lib.repro_crowd_propose
        self._trial_fn = lib.repro_crowd_trial
        nw, ne, n = state.n_walkers, state.n_electrons, state.spos.n_orbitals
        ni = state.ei_dist.shape[-1]
        self._dims = (nw, ne, n, ni)
        self.ee_rows = (np.zeros((nw, ne)), np.zeros((nw, 3, ne)))
        self.ei_rows = (np.zeros((nw, ni)), np.zeros((nw, 3, ni)))
        self.u_ainv = np.zeros((nw, 1, n))
        # The BLAS products' outputs (np.matmul's out=), and the glue's.
        self.grad_old = np.zeros((nw, 3, 1))
        self.det_ratio = np.zeros((nw, 1, 1))
        self.grad_new = np.zeros((nw, 3, 1))
        self.drift_old = np.zeros((nw, 3))
        self.r_new = np.zeros((nw, 3))
        self.greens = np.zeros(nw)
        usum_new, expo = np.zeros((2, nw)), np.zeros((2, nw))  # j1, j2 rows
        arrays = {
            "ion_frac": state._ion_frac,
            "diag": np.ascontiguousarray(np.diag(state.cell.lattice)),
            "weights": cc_backend.WEIGHT_COEFFS,
            "trial_ee_dist": self.ee_rows[0],
            "trial_ee_disp": self.ee_rows[1],
            "trial_ei_dist": self.ei_rows[0],
            "trial_ei_disp": self.ei_rows[1],
            "chi": state._chi,
            "grad_old": self.grad_old,
            "drift_old": self.drift_old,
            "r_new": self.r_new,
            "det_ratio": self.det_ratio,
            "grad_new": self.grad_new,
            "usum_new": usum_new,
            "expo": expo,
            "greens": self.greens,
            "work": np.zeros(2 * max(ne, ni)),
            "u_ainv": self.u_ainv,
            "column": np.zeros(2 * n),
        }
        arrays.update(_resident_arrays(state))
        # bind() reads the drift cache, which may appear later.
        arrays.pop("cache_g", None)
        arrays.pop("cache_lap", None)
        #: Each factor's (u, u', u'') trial terms, ``(nw, 3, m)`` views of
        #: ``(3, nw, m)`` scratch, its trial u-sums and its exponents
        #: ``-(usum - usum[e])``, in ``state._jastrows`` order.
        self.terms, self.usum_new, self.expo = [], [], []
        self._last = [0, 0]  # n_knots - 2 of the one- and two-body radial
        for factor in state._jastrows:
            j = "j2" if factor.two_body else "j1"
            u = factor.jastrows[0].u
            terms = np.zeros((3, nw, factor.radials.shape[-1]))
            arrays[f"{j}_coeffs"] = np.ascontiguousarray(u.coeffs, dtype=np.float64)
            arrays[f"{j}_params"] = np.array([u.rcut, u.inv_delta, u.inv_delta**2])
            arrays[f"{j}_terms"] = terms
            self.terms.append(np.moveaxis(terms, 0, 1))
            self.usum_new.append(usum_new[int(factor.two_body)])
            self.expo.append(expo[int(factor.two_body)])
            self._last[factor.two_body] = u.n_knots - 2
        slots = cc_backend.CROWD_SLOTS
        self._slots = {name: i for i, name in enumerate(slots)}
        self._table = np.zeros(len(slots), dtype=np.uintp)
        for name, a in arrays.items():
            self._table[self._slots[name]] = a.ctypes.data
        self._arrays = arrays  # the table's addresses stay valid with these
        self._table_address = self._table.ctypes.data
        self._Ainv = state.Ainv
        self._vgl = None

    def bind(self, vgl) -> "_CompiledRows | None":
        """Read the addresses of the drift cache ``vgl`` (the crowd's
        ``_committed_vgl``) once it exists; None, so the NumPy methods
        serve the sweep, for a handed-over cache that is not one
        C-contiguous float64 block."""
        if vgl is not self._vgl:
            if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in vgl):
                return None
            self._table[self._slots["cache_g"]] = vgl[0].ctypes.data
            self._table[self._slots["cache_lap"]] = vgl[1].ctypes.data
            self._arrays["cache_g"], self._arrays["cache_lap"] = vgl
            self._vgl = vgl
        return self

    def propose(self, cache_g, col, e: int, use_drift: bool, tau, sqrt_tau):
        """:func:`_numpy_propose` in C: ``(r_new, drift_old)``, scratch
        the next call overwrites."""
        nw, ne, _, ni = self._dims
        if use_drift:
            np.matmul(cache_g[:, e], col, out=self.grad_old)
        self._propose_fn(
            self._table_address, nw, ne, ni, e, use_drift, tau, 2.0 * tau, sqrt_tau
        )
        return self.r_new, self.drift_old

    def rows(self, frac: np.ndarray | None, e: int) -> bool:
        """Electron ``e``'s trial rows into :attr:`ee_rows` /
        :attr:`ei_rows` and the factors' terms into :attr:`terms`.  False
        when a distance a factor reads is NaN (NumPy then raises).  With
        ``frac`` None the distance rows already in the scratch are used
        as given."""
        nw, ne, _, ni = self._dims
        return not self._rows_fn(
            self._table_address, nw, ne, ni, e, *self._last,
            None if frac is None else address(frac),
        )

    def trial(self, v, g, col, e: int, use_drift: bool, tau):
        """:func:`_numpy_trial` over this object's rows and terms:
        ``(ratios, log_acc)``; the u-sums stay in :attr:`usum_new` for
        :meth:`commit`."""
        nw, ne, _, ni = self._dims
        np.matmul(v[:, np.newaxis, :], col, out=self.det_ratio)
        np.matmul(g, col, out=self.grad_new)
        self._trial_fn(self._table_address, nw, ne, ni, e, use_drift, tau, 2.0 * tau)
        ratios = self.det_ratio[:, 0, 0]
        for expo in self.expo:
            ratios = ratios * np.exp(expo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_acc = 2.0 * np.log(np.abs(ratios))
            if use_drift:
                log_acc = log_acc + self.greens
        return ratios, log_acc

    def commit(self, ia, e, wrapped, frac, trial_vgl) -> None:
        """:meth:`CrowdState._commit` in C, after :meth:`rows` and
        :meth:`trial`: the trial rows, terms, ratios and u-sums are read
        from this object's scratch."""
        nw, ne, n, ni = self._dims
        v, g, lap = trial_vgl
        # u @ Ainv for every walker, each the per-walker BLAS gemv; C
        # reads the accepted walkers' rows.
        np.matmul(v[:, np.newaxis, :], self._Ainv[:, e // n], out=self.u_ainv)
        log_abs = np.log(np.abs(self.det_ratio[ia, 0, 0]))
        self._commit_fn(
            self._table_address, nw, ne, n, ni, e, ia.size, address(ia),
            address(log_abs), address(wrapped), address(frac), address(v),
            address(g), address(lap),
        )


#: The once-per-process verdict of :func:`_gate` (None: not run yet).
_GATE: bool | None = None


def _compiled_rows(state: CrowdState) -> _CompiledRows | None:
    """The crowd's compiled row path where it applies, else None.

    It applies when the orbital engine resolved to ``cc``, the crowd is
    on the fast path (soa tables, orthorhombic cell), every Jastrow
    factor is shared (one :class:`CubicBspline1D` for all walkers) and
    the gate has passed.  Every other crowd runs the NumPy methods and
    glue.
    """
    if not state._fast or state.spos._get_batched().backend.name != "cc":
        return None
    for factor in state._jastrows:
        if not (factor.shared and type(factor.jastrows[0].u) is CubicBspline1D):
            return None
    try:
        lib = cc_backend._load_library()
    except BackendUnavailable:
        return None
    return _CompiledRows(state, lib) if _gate(lib) else None


def _gate(lib) -> bool:
    """Run both row paths once per process on one fixed input, and the
    library's pairwise sum against ``np.add.reduce``, and compare them
    byte for byte; a mismatch leaves every crowd on NumPy,
    warned and counted as ``backend_fallback_total{requested="crowd",
    skipped="cc"}`` (the kernels keep ``cc``)."""
    global _GATE
    if _GATE is None:
        with OBS.paused():
            differ = _compare_paths(lib, np.random.default_rng(0))
        _GATE = not differ
        if differ:
            _note_fallback(
                "crowd", "cc",
                f"its crowd row math differs from NumPy's in {', '.join(differ)}",
            )
    return _GATE


def _synthetic_crowd(rng, nw: int = 3, n: int = 5, ni: int = 9) -> CrowdState:
    """A fast-path crowd of random resident blocks, without walkers, for
    driving both row paths: two calls with equal generators build equal
    crowds.  The cell is cubic with edge 4, a power of two, and both
    radials have cutoff 1.5 with knots 0.3 apart.  The default rows (10
    electrons, 9 ions) reach the eight-accumulator branch of NumPy's
    pairwise sums, each with a remainder."""
    ne = 2 * n
    state = CrowdState.__new__(CrowdState)
    state.n_walkers, state.n_electrons = nw, ne
    state.spos = SimpleNamespace(n_orbitals=n)
    state.cell = Cell(np.diag([4.0, 4.0, 4.0]))
    state.layout, state._fast = "soa", True
    state.accepts = np.zeros(nw, dtype=np.int64)
    state._chi = np.zeros((nw, 3))
    state._R = 4.0 * rng.random((nw, 3, ne))
    state.A = rng.standard_normal((nw, 2, n, n))
    state.Ainv = rng.standard_normal((nw, 2, n, n))
    state.log_det = rng.standard_normal((nw, 2))
    state.sign = rng.choice([-1.0, 1.0], (nw, 2))
    state.ee_dist = rng.random((nw, ne, ne))
    state.ee_disp = rng.standard_normal((nw, ne, 3, ne))
    state.ei_dist = rng.random((nw, ne, ni))
    state.ei_disp = rng.standard_normal((nw, ne, 3, ni))
    # Quarter steps: trial separations hit exact halves, where np.round
    # ties to even.
    state._el_frac = rng.integers(0, 4, (nw, 3, ne)) / 4.0
    state._ion_frac = rng.integers(0, 4, (nw, 3, ni)) / 4.0
    state._committed_vgl = (
        rng.standard_normal((nw, ne, 3, n)), rng.standard_normal((nw, ne, n))
    )
    state._jastrows = []
    for strength, two_body, m, dist, disp in (
        (0.4, False, ni, state.ei_dist, state.ei_disp),
        (0.6, True, ne, state.ee_dist, state.ee_disp),
    ):
        radial = make_polynomial_radial(strength, 1.5, n_knots=6)
        jastrows = []
        for _ in range(nw):
            jastrow = _JastrowBase(radial, "soa")
            jastrow._usum = rng.standard_normal(ne)
            jastrow.radials = rng.standard_normal((3, ne, m))
            jastrows.append(jastrow)
        state._jastrows.append(_JastrowFactor(jastrows, True, dist, disp, two_body))
    return state


#: Distances where the radial's branches meet: zero, the smallest
#: subnormal, every knot and the cutoff 1.5 from both sides, and beyond.
_SEAM_DISTANCES = np.array(
    [0.0, 5e-324, 0.3, 0.6, 0.9, 1.2, np.nextafter(1.5, 0.0), 1.5, 1.7, 3.0,
     np.nextafter(0.3, 0.0), np.nextafter(0.9, 2.0)]
)


def _differ(a: dict, b: dict) -> list[str]:
    return [k for k in a if a[k].tobytes() != b[k].tobytes()]


def _row_sum_lengths(lib, rng, n: int = 300) -> list[str]:
    """The lengths in 1..n at which the library's pairwise sum differs
    from ``np.add.reduce`` over a row of mixed signs and magnitudes or a
    row of -0.0: below 8 terms, from 8 to 128 with every remainder, and
    the halving above 128."""
    rows = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-6, 7, (2, n))
    rows[1] = -0.0
    got = np.empty((n, 2))
    lib.repro_row_sums(rows.ctypes.data, 2, n, n, got.ctypes.data)
    want = np.array([np.add.reduce(rows[:, :m], axis=-1) for m in range(1, n + 1)])
    differ = (got.view(np.uint64) != want.view(np.uint64)).any(axis=1)
    return [f"row_sum:{m + 1}" for m in np.flatnonzero(differ)]


def _compare_paths(lib, rng, **sizes) -> list[str]:
    """Names of the arrays where the compiled row path and the NumPy one
    disagree, over one synthetic crowd (of ``sizes``, see
    :func:`_synthetic_crowd`) driven through both, plus the lengths where
    the pairwise sum does (:func:`_row_sum_lengths`).

    The input covers exact-half fractional separations, trial positions
    a box or more away, the radial seams (:data:`_SEAM_DISTANCES`, fed
    straight into the distance rows) with the self entry, proposals and
    trials with and without drift, a walker whose gradients are -0.0
    rows (``v2 = 0``) and one whose are ~1e-160 (``v2`` subnormal), a
    zero determinant ratio, and commits of one, some and all walkers on
    both spins with negative ratios.
    """
    seed = int(rng.integers(2**32))
    ref = _synthetic_crowd(np.random.default_rng(seed), **sizes)
    crowd = _synthetic_crowd(np.random.default_rng(seed), **sizes)
    cc = _CompiledRows(crowd, lib).bind(crowd._committed_vgl)
    nw, ne, n = ref.n_walkers, ref.n_electrons, ref.spos.n_orbitals
    walkers = np.arange(nw)
    differ = _row_sum_lengths(lib, rng)

    def numpy_rows(e, frac):
        ee = ref._rows_ee(None, e, frac)
        ei = ref._rows_ei(None, frac)
        return ee, ei, [
            f.evaluate(ee[0] if f.two_body else ei[0], e) for f in ref._jastrows
        ]

    def compare(label, want, got):
        differ.extend(f"{label}:{k}" for k in _differ(want, got))

    # Radial seams: the same distances through both radial evaluations.
    e = ne - 1
    for dist in (cc.ee_rows[0], cc.ei_rows[0]):
        dist[...] = np.resize(rng.permutation(_SEAM_DISTANCES), dist.shape)
    cc.rows(None, e)
    want = [
        f.evaluate((cc.ee_rows if f.two_body else cc.ei_rows)[0].copy(), e)
        for f in ref._jastrows
    ]
    compare("seams", dict(enumerate(want)), dict(enumerate(cc.terms)))

    one, some = walkers[-1:], np.flatnonzero(walkers % 2 == 0)
    quiet, tiny = 0, min(1, nw - 1)  # -0.0 and ~1e-160 gradients
    cases = (
        (n - 1, one, True, 0.3), (n, some, True, 0.02),
        (0, walkers, False, 0.6), (ne - 1, walkers, True, 0.6),
    )
    for e, ia, use_drift, tau in cases:
        spin, row = divmod(e, n)
        chi = rng.standard_normal((nw, 3))
        for state in (ref, crowd):
            state._chi[...] = chi
            state._committed_vgl[0][quiet, e] = -0.0
            state._committed_vgl[0][tiny, e] *= 1e-160
            for factor in state._jastrows:
                factor.radials[quiet, 1, e] = -0.0
                factor.radials[tiny, 1, e] = 0.0
        cols = [s.Ainv[:, spin, :, row, np.newaxis] for s in (ref, crowd)]
        args = (e, use_drift, tau, np.sqrt(tau))
        proposal = _numpy_propose(ref, ref._committed_vgl[0], cols[0], *args)
        got = cc.propose(crowd._committed_vgl[0], cols[1], *args)
        compare(
            f"propose e={e}", dict(zip(("r_new", "drift_old"), proposal)),
            dict(zip(("r_new", "drift_old"), got)),
        )

        frac = rng.integers(-4, 12, (nw, 3)) / 4.0
        ee, ei, terms = numpy_rows(e, frac)
        cc.rows(frac, e)
        compare(
            f"rows e={e}",
            {"ee_dist": ee[0], "ee_disp": ee[1], "ei_dist": ei[0],
             "ei_disp": ei[1], **dict(enumerate(terms))},
            {"ee_dist": cc.ee_rows[0], "ee_disp": cc.ee_rows[1],
             "ei_dist": cc.ei_rows[0], "ei_disp": cc.ei_rows[1],
             **dict(enumerate(cc.terms))},
        )
        v = rng.standard_normal((nw, n))
        # Odd walkers' determinant ratios negative, even ones' positive.
        sign = np.sign(np.matmul(v[:, np.newaxis, :], cols[0])[:, 0, 0])
        v *= (sign * np.where(walkers % 2, -1.0, 1.0))[:, np.newaxis]
        g = rng.standard_normal((nw, 3, n))
        g[quiet] = -0.0
        g[tiny] *= 1e-160
        for t in terms + cc.terms:
            t[quiet] = -0.0
            t[tiny, 1] = 0.0
        idle = np.ones(nw, dtype=bool)
        idle[ia] = False
        if idle.any():
            v[np.argmax(idle)] = 0.0  # a zero ratio, never committed
        ratios, log_acc, det_ratio, trials = _numpy_trial(
            ref, v, g, cols[0], e, ee, ei, terms, *proposal, use_drift, tau
        )
        got = cc.trial(v, g, cols[1], e, use_drift, tau)
        compare(
            f"trial e={e}",
            {"ratios": ratios, "log_acc": log_acc,
             **{f"usum{k}": usum for k, (_, usum) in enumerate(trials)}},
            {"ratios": got[0], "log_acc": got[1],
             **{f"usum{k}": usum for k, usum in enumerate(cc.usum_new)}},
        )
        trial_vgl = (v, g, rng.standard_normal((nw, n)))
        wrapped = 4.0 * frac
        ref._commit(ia, e, wrapped, frac, trial_vgl, det_ratio, ee, ei, trials)
        cc.commit(ia, e, wrapped, frac, trial_vgl)
        compare(f"commit e={e}", _resident_arrays(ref), _resident_arrays(crowd))
    return differ


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

    cache_g = None
    if use_drift:
        # Drift cache: the resident committed-position VGL (one batched
        # call on a crowd's first sweep).  Electron e's row changes only
        # when e itself moves, after its drift has been read.
        cache_g, _ = state.committed_vgl()
    state._sources_frac()
    cc = state._cc.bind(state._committed_vgl) if state._cc is not None else None

    for e in range(ne):
        spin, row = divmod(e, n)
        # Every walker's inverse column Ainv[:, row] as an (N, 1)
        # operand: np.matmul then calls the BLAS dot/gemv per walker
        # that the per-walker `@` calls.
        col = state.Ainv[:, spin, :, row, np.newaxis]

        # 1. proposals: per-walker diffusion drawn in place from each
        # walker's stream, stacked drift.
        for rng, chi in zip(rngs, state._chi_rows):
            rng.standard_normal(out=chi)
        if cc is None:
            r_new, drift_old = _numpy_propose(
                state, cache_g, col, e, use_drift, tau, sqrt_tau
            )
        else:
            r_new, drift_old = cc.propose(cache_g, col, e, use_drift, tau, sqrt_tau)

        # 2. one batched orbital call, batched rows, one radial
        # evaluation per Jastrow factor at the trials: compiled where
        # the crowd has the row path, else (or at a NaN distance, which
        # then raises) the NumPy methods.
        wrapped = state.cell.wrap_cart(r_new)
        trial_vgl = state.spos.vgl_batch(wrapped)
        v, g, _ = trial_vgl
        state.n_batched_calls += 1
        frac = state.cell.cart_to_frac(wrapped) if state._fast else None
        compiled = cc is not None and cc.rows(frac, e)
        # 3. stacked ratios, trial gradients and log-acceptances.
        if compiled:
            ratios, log_acc = cc.trial(v, g, col, e, use_drift, tau)
        else:
            ee_rows = state._rows_ee(wrapped, e, frac)
            ei_rows = state._rows_ei(wrapped, frac)
            terms = [
                factor.evaluate((ee_rows if factor.two_body else ei_rows)[0], e)
                for factor in state._jastrows
            ]
            ratios, log_acc, det_ratio, trials = _numpy_trial(
                state, v, g, col, e, ee_rows, ei_rows, terms,
                r_new, drift_old, use_drift, tau,
            )
        state.ratios[...] = ratios

        # Independent Metropolis decisions (same per-stream RNG order as
        # the per-walker path: a uniform is drawn only when the ratio is
        # nonzero and the log-acceptance negative).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            acc_prob = np.exp(np.minimum(log_acc, 0.0))
        accept = np.zeros(nw, dtype=bool)
        for w in range(nw):
            if ratios[w] != 0.0:
                accept[w] = log_acc[w] >= 0.0 or rngs[w].random() < acc_prob[w]
        ia = np.flatnonzero(accept)

        # 4. one masked commit of every accepted walker.
        if ia.size:
            if compiled:
                cc.commit(ia, e, wrapped, frac, trial_vgl)
            else:
                state._commit(
                    ia, e, wrapped, frac, trial_vgl, det_ratio, ee_rows,
                    ei_rows, trials,
                )
            accepted += ia.size

    if OBS.enabled:
        OBS.count(
            "crowd_batched_sweeps_total", rows="numpy" if cc is None else "cc"
        )
        OBS.count("crowd_batched_moves_total", nw * ne)
        OBS.count("crowd_batched_accepts_total", accepted)
    return accepted, nw * ne
