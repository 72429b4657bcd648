"""repro.miniqmc — the miniQMC drivers (paper Figs. 3/6) and the full app.

* :mod:`repro.miniqmc.config` — paper-scale and host-scale configurations;
* :mod:`repro.miniqmc.driver` — kernel-only drivers for layout studies;
* :mod:`repro.miniqmc.app` — the profiled full application (Tables II/III
  and the miniQMC speedup headline).  Import it by its module path; the
  package does not re-export it, so ``python -m repro.miniqmc.app`` runs
  the module fresh as ``__main__``.
"""

from repro.miniqmc.config import (
    MiniQmcConfig,
    live_app_config,
    live_kernel_config,
    paper_coral,
    paper_sweep_sizes,
    random_coefficients,
)
from repro.miniqmc.driver import DriverResult, run_kernel_driver, run_tiled_driver

__all__ = [
    "MiniQmcConfig",
    "paper_coral",
    "paper_sweep_sizes",
    "live_kernel_config",
    "live_app_config",
    "random_coefficients",
    "DriverResult",
    "run_kernel_driver",
    "run_tiled_driver",
]
