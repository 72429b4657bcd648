"""One static partition implementation for every Opt C surface.

The paper's Opt C (Sec. V-C) distributes M objects among nth workers
with "an explicit data partition scheme": a static contiguous split,
computed once, no locks, imbalance bounded at one object.  Three layers
of this repo need exactly that split — the nested thread evaluator
(:mod:`repro.core.nested`), the process-level orbital shard planner
(:mod:`repro.parallel.orbital`), and the tuner's candidate generator —
and they must *agree*, or a thread-side and a process-side run of the
same shape would block the spline axis differently.  This module is the
single home.

:func:`plan_orbital_blocks` adds the one extra rule the bitwise
contract needs: **no width-1 block**.  NumPy's einsum dispatches a
length-1 contraction axis to a different inner loop whose accumulation
order differs by an ulp (see :meth:`repro.core.batched.BsplineBatched._tiles`),
so a shard planner that emitted a single-column block would break
``assert_array_equal`` between the concatenated blocks and the
single-engine result.  The shard count is therefore clamped so every
block spans at least two splines (the paper's own limit is the same
shape: nth <= N/Nb).
"""

from __future__ import annotations

__all__ = ["partition", "plan_orbital_blocks"]


def partition(n_items: int, n_parts: int) -> list[range]:
    """Static contiguous partition of ``n_items`` among ``n_parts``.

    Extra items (when ``n_items % n_parts != 0``) go to the first
    ``n_items % n_parts`` parts, keeping the imbalance at one item.
    Parts beyond ``n_items`` receive empty ranges (they idle, matching
    the paper's ``nth <= N/Nb`` scaling limit).

    Parameters
    ----------
    n_items:
        M, the number of objects to distribute (> 0).
    n_parts:
        The worker count (> 0).
    """
    if n_items <= 0:
        raise ValueError(f"n_items must be positive, got {n_items}")
    if n_parts <= 0:
        raise ValueError(f"n_parts must be positive, got {n_parts}")
    base, extra = divmod(n_items, n_parts)
    ranges = []
    start = 0
    for part in range(n_parts):
        count = base + (1 if part < extra else 0)
        ranges.append(range(start, start + count))
        start += count
    return ranges


def plan_orbital_blocks(n_splines: int, n_shards: int) -> list[slice]:
    """Contiguous spline-axis blocks for ``n_shards`` orbital shards.

    The blocks cover ``[0, n_splines)`` exactly, in order, with widths
    differing by at most one — and **never narrower than two splines**
    (the einsum width-1 dispatch would break bit-identity; see the
    module docstring).  A shard count too large for that rule is
    clamped, so callers may ask for ``processes`` shards and receive
    however many the spline axis actually supports; a 1-wide table
    yields the single full block.

    Parameters
    ----------
    n_splines:
        N, the padded coefficient table's spline-axis width (> 0).
    n_shards:
        Requested shard count (> 0); clamped to ``n_splines // 2``.
    """
    if n_splines <= 0:
        raise ValueError(f"n_splines must be positive, got {n_splines}")
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n_shards = max(1, min(n_shards, n_splines // 2)) if n_splines > 1 else 1
    return [
        slice(rng.start, rng.stop)
        for rng in partition(n_splines, n_shards)
    ]
