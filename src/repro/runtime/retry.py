"""Fault-tolerant shard dispatch: retry, backoff, watchdog, pool rebuild.

:class:`ShardExecutor` wraps shard execution — inline or over a
``ProcessPoolExecutor`` — with the failure semantics a long campaign
needs:

* a shard that raises is **retried** up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff.  The
  reseed is *jitterless*: shard streams are pure functions of
  ``(campaign_seed, index)`` (see :func:`repro.runtime.parallel
  .shard_seed`), so the retry re-captures the bit-identical shard and no
  randomness needs to be perturbed for the retry to be safe.  A
  :class:`~repro.errors.ReproError` (a refused shard store) is raised
  as is, without retry;
* a ``BrokenProcessPool`` (worker killed by the OS, OOM, hard crash)
  **rebuilds the pool** and re-dispatches only the unfinished shards —
  results already shipped back are kept.  The break costs one retry,
  charged in :meth:`ShardExecutor.result` to the first shard awaited
  after it (the oldest unfinished one, for the in-order consumers here),
  whether :meth:`~ShardExecutor.submit` or :meth:`~ShardExecutor.result`
  saw it first;
* an optional per-shard wall-clock ``timeout`` acts as a **watchdog** on
  the shard's future: a hung worker cannot be cancelled in-flight, so
  the pool is torn down (processes terminated) and rebuilt, which
  requeues the hung shard along with its unfinished siblings;
* when a shard exhausts its retries the executor records a
  :class:`ShardFailure` and raises it from :meth:`ShardExecutor.result`,
  letting the campaign degrade gracefully (merge the completed prefix,
  report ``partial``) instead of aborting with a raw pool error.

The executor is deliberately campaign-agnostic — it dispatches
``(fn, *args)`` tasks keyed by shard index.  Its one caller is
:func:`~repro.runtime.parallel.run_shards`, the dispatch loop of the
sharded attack campaign, the TVLA campaign and the guessing-entropy
repetitions of
:meth:`~repro.runtime.engine.ExperimentEngine.run_ge_curve`, so every
fan-out shares one fault-tolerance layer.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError, ShardFailure, UsageError

__all__ = ["RetryPolicy", "ShardExecutor", "ShardFailure", "pool_context"]


def pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - non-fork platforms


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for each shard before giving up on it.

    ``max_retries`` counts *re*-executions (0 disables retry entirely);
    ``backoff`` seconds doubles on every consecutive failure of the same
    shard; ``timeout`` is the per-attempt wall-clock watchdog (``None``
    waits forever).
    """

    max_retries: int = 2
    backoff: float = 0.5
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise UsageError("max_retries must be >= 0")
        if self.backoff < 0:
            raise UsageError("backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise UsageError("timeout must be > 0 (or None to disable)")

    def delay(self, retries_done: int) -> float:
        """Backoff before retry number ``retries_done + 1``."""
        return self.backoff * (2.0 ** int(retries_done))


class ShardExecutor:
    """Dispatch shard tasks with retry, watchdog, and pool-rebuild logic.

    Tasks are keyed by shard index and must be **idempotent re-runnable**
    — in this codebase they are, by the deterministic-reseed property.
    With ``workers == 1`` and no timeout, tasks run inline at
    :meth:`result` time (no pool, no pickling); a timeout forces pool
    mode even at one worker, because only a separate process can be
    killed by the watchdog.

    ``on_event(index, state, retries)`` observes the shard lifecycle
    (``capturing`` / ``retrying`` / ``done`` / ``failed``) — the campaign
    journal hangs off this hook.  ``sleep`` is injectable so tests can
    pin backoff schedules without waiting them out.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        on_event: Callable[[int, str, int], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self._on_event = on_event
        self._sleep = sleep
        self._use_pool = self.workers > 1 or self.policy.timeout is not None
        self._pool: ProcessPoolExecutor | None = None
        self._tasks: dict[int, tuple] = {}
        self._futures: dict[int, object] = {}
        self._results: dict[int, object] = {}
        self._failures: dict[int, ShardFailure] = {}
        self.retries: dict[int, int] = {}
        self.pool_rebuilds = 0

    # -- bookkeeping ---------------------------------------------------

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def failures(self) -> dict[int, ShardFailure]:
        return dict(self._failures)

    def _emit(self, index: int, state: str) -> None:
        if self._on_event is not None:
            self._on_event(index, state, self.retries.get(index, 0))

    # -- pool lifecycle ------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=pool_context()
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _kill_pool(self) -> None:
        """Terminate worker processes without waiting on their futures."""
        if self._pool is None:
            return
        for process in list(getattr(self._pool, "_processes", {}).values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _rebuild_pool(self) -> None:
        """Replace a broken/hung pool, requeueing only unfinished shards.

        Futures that completed cleanly before the break are harvested
        into the result cache; futures holding a genuine task exception
        are kept as-is so :meth:`result` charges them against that
        shard's retry budget; everything else (running, queued,
        cancelled, or poisoned by the pool break itself) is re-submitted
        to the fresh pool.
        """
        self.pool_rebuilds += 1
        resubmit = []
        for index, future in list(self._futures.items()):
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    self._results[index] = future.result()
                    del self._futures[index]
                    self._emit(index, "done")
                    continue
                if not isinstance(exc, BrokenProcessPool):
                    continue
            resubmit.append(index)
        self._kill_pool()
        pool = self._ensure_pool()
        for index in resubmit:
            fn, args = self._tasks[index]
            self._futures[index] = pool.submit(fn, *args)

    # -- the public surface --------------------------------------------

    def submit(self, index: int, fn, *args) -> None:
        """Queue shard ``index`` as ``fn(*args)`` (dispatches immediately
        in pool mode, lazily at :meth:`result` time inline)."""
        index = int(index)
        self._tasks[index] = (fn, args)
        if self._use_pool:
            try:
                self._futures[index] = self._ensure_pool().submit(fn, *args)
            except BrokenProcessPool as exc:
                # A worker died since the last dispatch.  Rebuilding here
                # would requeue the dead shard without charging it a
                # retry.  Instead this future carries the break like the
                # dead shard's, and result() charges the break to the
                # first shard it waits on, then rebuilds the pool once.
                self._futures[index] = Future()
                self._futures[index].set_exception(exc)
        self._emit(index, "capturing")

    def result(self, index: int):
        """Block for shard ``index``, retrying through the policy.

        Raises the shard's :class:`ShardFailure` once (and whenever asked
        again) after the retry budget is exhausted.
        """
        index = int(index)
        if index in self._results:
            return self._results[index]
        if index in self._failures:
            raise self._failures[index]
        if index not in self._tasks:
            raise KeyError(f"shard {index} was never submitted")
        fn, args = self._tasks[index]
        while True:
            recover = None
            try:
                if self._use_pool:
                    value = self._futures[index].result(
                        timeout=self.policy.timeout
                    )
                else:
                    value = fn(*args)
            except (KeyboardInterrupt, SystemExit, ReproError):
                # A refusal (an incompatible shard store, an invalid
                # option) fails the same way on every attempt.
                raise
            except FutureTimeoutError as exc:
                # Py >= 3.11 aliases this to builtin TimeoutError, so a
                # genuine in-task timeout lands here too — both mean "this
                # attempt is dead", and only a pool teardown can reclaim
                # the stuck worker.
                cause: BaseException = TimeoutError(
                    f"shard {index} exceeded the {self.policy.timeout}s "
                    f"watchdog"
                )
                cause.__cause__ = exc
                recover = "rebuild"
            except BrokenProcessPool as exc:
                cause = exc
                recover = "rebuild"
            except Exception as exc:
                cause = exc
                recover = "resubmit" if self._use_pool else None
            else:
                self._results[index] = value
                self._futures.pop(index, None)
                self._emit(index, "done")
                return value
            attempt = self.retries.get(index, 0) + 1
            if attempt > self.policy.max_retries:
                # Drop this shard's future *before* any rebuild so it is
                # not requeued, then rebuild anyway when the pool itself
                # is the casualty — the surviving shards need workers.
                self._futures.pop(index, None)
                if recover == "rebuild":
                    self._rebuild_pool()
                failure = ShardFailure(index, attempt, cause)
                self._failures[index] = failure
                self._emit(index, "failed")
                raise failure
            self.retries[index] = attempt
            self._emit(index, "retrying")
            self._sleep(self.policy.delay(attempt - 1))
            if recover == "rebuild":
                self._rebuild_pool()
            elif recover == "resubmit":
                self._futures[index] = self._ensure_pool().submit(fn, *args)

    def close(self, force: bool = False) -> None:
        """Shut the pool down.

        ``force`` terminates worker processes outright — required when a
        speculative shard may be hung (a graceful shutdown would block on
        it forever) and on interrupt, where zombie workers must not keep
        capturing after the parent dies.
        """
        if self._pool is None:
            return
        if force:
            self._kill_pool()
        else:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
