"""Bounded retry-with-backoff and the resilient nested evaluator.

Worker-task failures in the nested (Opt C) evaluator are the one failure
mode where simply retrying is usually right: the computation is a pure
function of a read-only table, so a transient fault (an OOM-killed
thread, an injected test fault) leaves nothing to clean up.  The policy
here is deliberately conservative:

* :func:`retry_with_backoff` — at most ``max_attempts`` tries with
  exponential backoff between them; the final failure re-raises.
* :class:`ResilientEvaluator` — wraps a
  :class:`~repro.core.nested.NestedEvaluator`; when retries are
  exhausted it *degrades* instead of failing: the evaluation runs
  single-threaded over all tiles on the caller's thread (same results,
  no worker pool), and the degradation is counted so callers can report
  it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.kinds import Kind
from repro.obs import OBS

__all__ = ["RetryPolicy", "RetryExhausted", "retry_with_backoff", "ResilientEvaluator"]


class RetryExhausted(RuntimeError):
    """All retry attempts failed; ``__cause__`` is the last error."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff.

    Attributes
    ----------
    max_attempts:
        Total tries (first call included); must be >= 1.
    base_delay:
        Seconds before the first retry.
    multiplier:
        Backoff factor between consecutive retries.
    max_delay:
        Ceiling on any single delay.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def delays(self) -> list[float]:
        """The sleep before each retry (``max_attempts - 1`` entries)."""
        out = []
        d = self.base_delay
        for _ in range(self.max_attempts - 1):
            out.append(min(d, self.max_delay))
            d *= self.multiplier
        return out


def retry_with_backoff(
    fn,
    policy: RetryPolicy = RetryPolicy(),
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep=time.sleep,
    on_retry=None,
):
    """Call ``fn()`` with bounded retries; returns its result.

    Parameters
    ----------
    fn:
        Zero-argument callable (close over arguments).
    policy:
        The backoff schedule.
    retry_on:
        Exception types worth retrying; anything else propagates
        immediately.
    sleep:
        Injectable sleeper (tests pass a recorder to avoid real delays).
    on_retry:
        Optional ``on_retry(attempt, exc)`` callback before each retry.

    Raises
    ------
    RetryExhausted:
        After ``policy.max_attempts`` failures, chaining the last error.
    """
    delays = policy.delays()
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt < len(delays):
                if on_retry is not None:
                    on_retry(attempt + 1, exc)
                sleep(delays[attempt])
    raise RetryExhausted(
        f"gave up after {policy.max_attempts} attempts: {last}"
    ) from last


class ResilientEvaluator:
    """A :class:`~repro.core.nested.NestedEvaluator` that survives workers.

    ``evaluate`` retries the nested evaluation under ``policy``; if every
    attempt fails it falls back to evaluating all tiles single-threaded
    on the calling thread — bit-identical results (the kernels are pure
    functions of position and table), just without the parallelism.

    Parameters
    ----------
    nested:
        The wrapped evaluator (owns the engine and the worker pool).
    policy:
        Retry schedule for worker failures.
    sleep:
        Injectable sleeper forwarded to :func:`retry_with_backoff`.

    Attributes
    ----------
    retries:
        Worker failures absorbed by retrying.
    fallbacks:
        Evaluations that completed on the single-threaded fallback path.
    """

    def __init__(self, nested, policy: RetryPolicy | None = None, sleep=time.sleep):
        self.nested = nested
        self.engine = nested.engine
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self.retries = 0
        self.fallbacks = 0

    def evaluate(self, kind: Kind, positions: np.ndarray, out) -> None:
        """Nested evaluation with retry, then single-threaded degradation."""
        kind = Kind.check(kind)

        def count_retry(attempt, exc):
            self.retries += 1
            OBS.count("nested_retries_total", kernel=kind.value)
            OBS.event(
                "retry:nested_worker",
                cat="resilience",
                kernel=kind.value,
                attempt=attempt,
                error=type(exc).__name__,
            )

        try:
            retry_with_backoff(
                lambda: self.nested.evaluate(kind, positions, out),
                policy=self.policy,
                sleep=self._sleep,
                on_retry=count_retry,
            )
        except RetryExhausted:
            self.fallbacks += 1
            OBS.count("nested_fallbacks_total", kernel=kind.value)
            OBS.event(
                "retry:single_thread_fallback", cat="resilience", kernel=kind.value
            )
            self.engine.eval_tiles(
                kind, range(self.engine.n_tiles), positions, out
            )

    def close(self) -> None:
        """Shut down the wrapped evaluator's worker pool."""
        self.nested.close()

    def __enter__(self) -> "ResilientEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
