"""The one shard dispatch loop, driven with toy picklable tasks.

``run_shards`` runs every fan-out in the package (sharded attack
campaigns, TVLA, guessing-entropy repetitions), so its contract is pinned
here on tasks that capture nothing: results merge in index order at any
worker count, the pool never runs more than ``workers - 1`` tasks past a
rung, an early stop or an exhausted task ends the run over the merged
prefix, and an error in the parent kills the workers.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.runtime.journal import CampaignJournal
from repro.runtime.parallel import run_shards
from repro.runtime.retry import RetryPolicy, ShardExecutor, ShardFailure

NO_RETRY = RetryPolicy(max_retries=0, backoff=0.0)


def _square(value, delay=0.0):
    time.sleep(delay)
    return value * value


def _fail(value):
    raise RuntimeError(f"task {value} failed")


def _tasks(count):
    # Later tasks finish first, so a pool returns them out of order.
    return [(_square, i, 0.01 * (count - i)) for i in range(count)]


@pytest.mark.parametrize("workers", [1, 2])
def test_results_merge_in_index_order(workers):
    merged = []
    outcome = run_shards(_tasks(6), [2, 4, 6], merged.append, workers, NO_RETRY)
    assert merged == [i * i for i in range(6)]
    assert outcome == (6, [], False, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_submissions_stay_within_a_rung_plus_the_pool(workers, monkeypatch):
    submitted = []
    submit = ShardExecutor.submit

    def counting_submit(self, index, *task):
        submitted.append(index)
        submit(self, index, *task)

    monkeypatch.setattr(ShardExecutor, "submit", counting_submit)
    seen = []

    def checkpoint():
        seen.append(len(submitted))
        return False

    rungs = [1, 3, 6]
    run_shards(_tasks(6), rungs, lambda result: None, workers, NO_RETRY,
               checkpoint=checkpoint)
    assert seen == [min(6, rung + workers - 1) for rung in rungs]


def test_an_early_stop_merges_nothing_later():
    merged = []
    count, failures, stopped, _ = run_shards(
        _tasks(6), [2, 4, 6], merged.append, 2, NO_RETRY,
        checkpoint=lambda: len(merged) >= 4,
    )
    assert (count, failures, stopped) == (4, [], True)
    assert merged == [0, 1, 4, 9]


@pytest.mark.parametrize("workers", [1, 2])
def test_an_exhausted_task_returns_the_merged_prefix(workers):
    tasks = _tasks(5)
    tasks[2] = (_fail, 2)
    merged = []
    count, failures, stopped, retries = run_shards(
        tasks, [5], merged.append, workers,
        RetryPolicy(max_retries=1, backoff=0.0),
    )
    assert (count, merged, stopped, retries) == (2, [0, 1], False, 1)
    assert [type(f) for f in failures] == [ShardFailure]
    assert failures[0].index == 2


def test_a_merge_error_kills_the_pool_and_marks_the_journal(tmp_path):
    journal = CampaignJournal.open_or_create(tmp_path, "toy")
    # Two tasks still sleep in the pool when the first merge fails: a
    # graceful shutdown would wait them out.
    tasks = [(_square, 0), (_square, 1, 60.0), (_square, 2, 60.0)]

    def merge(result):
        raise RuntimeError("merge failed")

    begin = time.monotonic()
    with pytest.raises(RuntimeError, match="merge failed"):
        run_shards(tasks, [3], merge, 2, NO_RETRY, journal)
    assert time.monotonic() - begin < 30
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and multiprocessing.active_children():
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert CampaignJournal.load(tmp_path).phase == "interrupted"
