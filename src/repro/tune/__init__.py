"""repro.tune — blocking-parameter selection, heuristic and empirical.

Promoted from ``repro.core.tune`` in PR9 and grown into a two-tier
auto-tuner:

* :mod:`repro.tune.planner` — the PR5 cache-budget **heuristic**
  (:func:`plan_tiles`): instant, deterministic, no measurement.  The
  fallback tier and the baseline every measured winner is compared to.
* :mod:`repro.tune.search` — the **empirical** tier: micro-benchmarks
  model-pruned candidates, gates each one bit for bit against the frozen
  PR4 oracle (every stored config carries the ``exact`` conformance
  tier), and persists winners per host.
* :mod:`repro.tune.db` / :mod:`repro.tune.hostspec` — the persistent
  per-host tuning database and the declarative hardware spec that keys
  it.

Only the measurement-free modules are imported eagerly here;
:mod:`repro.tune.search` pulls in the kernel engines (which themselves
import :mod:`repro.tune.planner`), so it is imported lazily by the
callers that need it.
"""

from repro.tune.db import (
    TIER_EXACT,
    TuneDB,
    TunedConfig,
    TuneShape,
    default_db_path,
)
from repro.tune.hostspec import HostSpec, current_host
from repro.tune.planner import (
    CacheInfo,
    TilePlan,
    detect_caches,
    gather_bytes,
    plan_budget_bytes,
    plan_tiles,
    working_set_bytes,
)

__all__ = [
    "CacheInfo",
    "TilePlan",
    "detect_caches",
    "plan_tiles",
    "plan_budget_bytes",
    "gather_bytes",
    "working_set_bytes",
    "HostSpec",
    "current_host",
    "TuneShape",
    "TunedConfig",
    "TuneDB",
    "default_db_path",
    "TIER_EXACT",
]
