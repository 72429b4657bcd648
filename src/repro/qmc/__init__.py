"""repro.qmc — the miniQMC substrate: everything around the B-spline kernels.

Implements the QMC machinery whose profile the paper measures (Tables
II/III): particle sets, AoS/SoA distance tables, one-/two-body Jastrow
factors, Slater determinants with Sherman-Morrison updates (paper Eqs.
2-4), drift-diffusion particle-by-particle moves, and VMC/DMC drivers
(paper Sec. III's three-stage generation loop).
"""

from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.delayed import DelayedDeterminant
from repro.qmc.determinant import DiracDeterminant
from repro.qmc.distance_tables import DistanceTableAA, DistanceTableAB
from repro.qmc.dmc import DmcResult, DmcWalker, run_dmc
from repro.qmc.drift_diffusion import limited_drift, log_greens_ratio, sweep
from repro.qmc.estimators import (
    CrowdLocalEnergy,
    LocalEnergy,
    coulomb_ee,
    coulomb_ei,
    coulomb_ii,
    kinetic_energy,
)
from repro.qmc.jastrow import OneBodyJastrow, TwoBodyJastrow, make_polynomial_radial
from repro.qmc.particleset import ParticleSet
from repro.qmc.pseudopotential import (
    NonlocalPseudopotential,
    icosahedron_quadrature,
    legendre,
    octahedron_quadrature,
)
from repro.qmc.observables import PairCorrelation, StructureFactor
from repro.qmc.optimize import OptimizationResult, optimize_jastrow_strengths
from repro.qmc.rng import WalkerRngPool
from repro.qmc.slater import SlaterDet, SplineOrbitalSet
from repro.qmc.vmc import VmcResult, run_vmc
from repro.qmc.wavefunction import SlaterJastrow

__all__ = [
    "ParticleSet",
    "CrowdState",
    "batched_sweep",
    "DelayedDeterminant",
    "DistanceTableAA",
    "DistanceTableAB",
    "OneBodyJastrow",
    "TwoBodyJastrow",
    "make_polynomial_radial",
    "DiracDeterminant",
    "SlaterDet",
    "SplineOrbitalSet",
    "SlaterJastrow",
    "LocalEnergy",
    "CrowdLocalEnergy",
    "kinetic_energy",
    "coulomb_ee",
    "coulomb_ei",
    "coulomb_ii",
    "limited_drift",
    "log_greens_ratio",
    "sweep",
    "run_vmc",
    "VmcResult",
    "run_dmc",
    "DmcWalker",
    "DmcResult",
    "WalkerRngPool",
    "NonlocalPseudopotential",
    "octahedron_quadrature",
    "icosahedron_quadrature",
    "legendre",
    "PairCorrelation",
    "StructureFactor",
    "optimize_jastrow_strengths",
    "OptimizationResult",
]
