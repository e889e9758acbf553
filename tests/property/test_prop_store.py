"""Property tests of the checkpoint store's one heal rule.

A blob that is torn, has a flipped payload, carries another schema or
another task's digest reads as *absent*, and the next commit heals it.
Racing committers leave exactly one valid blob, and a read never
returns a value nobody committed.  Through the :class:`Supervisor`, a
run that crashed and had blobs damaged is healed by the next run, which
executes exactly the tasks that had no valid blob.
"""

from __future__ import annotations

import json
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.faults.exec_chaos import break_blob_schema, corrupt_blob, tear_blob
from repro.sim.resilient import (
    MISSING,
    RESULT_SCHEMA,
    ExecutionAborted,
    ResultStore,
    Supervisor,
    task_digest,
)


def _task(x):
    return x


DIGEST = task_digest("prop", "ctx", "k0", _task)
OTHER = task_digest("prop", "ctx", "k1", _task)
DAMAGE = ("torn", "flip", "schema", "task")
VALUES = st.one_of(
    st.integers(-1000, 1000), st.tuples(st.integers(), st.text(max_size=8))
)


@contextmanager
def _store():
    """Per-example store (hypothesis reuses function-scoped fixtures)."""
    with tempfile.TemporaryDirectory(prefix="repro-store-prop-") as name:
        yield ResultStore(Path(name))


def _damage(store: ResultStore, kind: str, digest: str = DIGEST) -> None:
    path = store.path(digest)
    if kind == "torn":
        tear_blob(path)
    elif kind == "flip":
        corrupt_blob(path)
    elif kind == "schema":
        break_blob_schema(path)
    else:  # a valid blob of another task, misplaced at this address
        store.commit(OTHER, "k1", "foreign")
        path.write_bytes(store.path(OTHER).read_bytes())


@settings(max_examples=30, deadline=None)
@given(first=VALUES, second=VALUES, kind=st.sampled_from(DAMAGE))
def test_damaged_blob_reads_absent_and_next_commit_heals(first, second, kind):
    with _store() as store:
        assert store.commit(DIGEST, "k0", first)
        _damage(store, kind)
        assert store.path(DIGEST).exists()
        assert store.load(DIGEST) is MISSING
        assert store.commit(DIGEST, "k0", second)
        assert store.load(DIGEST) == second


@settings(max_examples=30, deadline=None)
@given(
    schema=st.text(max_size=24).filter(lambda text: text != RESULT_SCHEMA),
    value=VALUES,
)
def test_any_other_schema_reads_absent(schema, value):
    with _store() as store:
        assert store.commit(DIGEST, "k0", value)
        path = store.path(DIGEST)
        env = json.loads(path.read_text(encoding="utf-8"))
        env["schema"] = schema
        path.write_text(json.dumps(env), encoding="utf-8")
        assert store.load(DIGEST) is MISSING
        assert store.commit(DIGEST, "k0", value)
        assert store.load(DIGEST) == value


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(), min_size=2, max_size=5, unique=True),
    damaged=st.one_of(st.none(), st.sampled_from(DAMAGE)),
)
def test_racing_committers_leave_exactly_one_valid_blob(values, damaged):
    with _store() as store:
        if damaged is not None:
            store.commit(DIGEST, "k0", "stale")
            _damage(store, damaged)
        barrier = threading.Barrier(len(values))
        won = {}

        def committer(value):
            barrier.wait(timeout=10)
            won[value] = store.commit(DIGEST, "k0", value)

        threads = [
            threading.Thread(target=committer, args=(value,))
            for value in values
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(won) == sorted(values)

        stored = store.load(DIGEST)
        assert stored in values and won[stored]
        if damaged is None:
            # Over a valid or absent slot the link race has one winner.
            assert sum(won.values()) == 1
        assert list(store.root.glob("*/.*.tmp")) == []
        blobs = [path for path in store.blobs() if path.stem == DIGEST]
        assert len(blobs) == 1


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), VALUES),
        st.tuples(st.just("damage"), st.sampled_from(DAMAGE)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_read_never_returns_an_uncommitted_value(ops):
    with _store() as store:
        current = MISSING  # the model: the surviving committed value
        committed = []
        for op, arg in ops:
            if op == "commit":
                won = store.commit(DIGEST, "k0", arg)
                committed.append(arg)
                assert won == (current is MISSING)
                if won:
                    current = arg
            elif current is not MISSING:  # damage the valid blob
                _damage(store, arg)
                current = MISSING
            value = store.load(DIGEST)
            assert value is MISSING or value in committed
            if current is MISSING:
                assert value is MISSING
            else:
                assert value == current


#: Items the supervised task below ran (``jobs=1`` runs in-process).
EXECUTED = []


def _recorded(x):
    EXECUTED.append(x)
    return x * 7


@settings(max_examples=20, deadline=None)
@given(n_tasks=st.integers(1, 4), data=st.data())
def test_crashed_run_rerun_commits_each_task_exactly_once(n_tasks, data):
    items = list(range(n_tasks))
    keys = [f"k{item}" for item in items]
    crash_after = data.draw(st.integers(1, n_tasks), label="crash_after")
    committed = st.integers(0, crash_after - 1)
    damage = data.draw(
        st.lists(
            st.tuples(committed, st.sampled_from(DAMAGE)),
            max_size=crash_after,
            unique_by=lambda pair: pair[0],
        ),
        label="damage",
    )

    class Crash:
        abort_after = crash_after

    with tempfile.TemporaryDirectory(prefix="repro-store-run-") as runs:
        crashed = Supervisor(run_id="r1", runs_dir=runs, chaos=Crash())
        with pytest.raises(ExecutionAborted):
            crashed.map(_recorded, items, keys=keys, jobs=1)
        store = ResultStore(crashed.store_dir())
        digests = [task_digest("map", "", key, _recorded) for key in keys]
        for index, kind in damage:
            _damage(store, kind, digests[index])

        EXECUTED.clear()
        rerun = Supervisor(run_id="r2", runs_dir=runs)
        assert rerun.map(_recorded, items, keys=keys, jobs=1) == [
            item * 7 for item in items
        ]
        # Exactly the tasks without a valid blob ran again ...
        valid = set(range(crash_after)) - {index for index, _ in damage}
        assert sorted(EXECUTED) == sorted(set(items) - valid)
        assert rerun.report.resume_skips == len(valid)
        assert rerun.report.dropped_results == len(damage)
        # ... and every task now holds one valid blob of its true value.
        for item, digest in zip(items, digests):
            assert store.load(digest) == item * 7
        stems = {path.stem for path in store.blobs()} - {OTHER}
        assert stems == set(digests)
        assert list(store.root.glob("*/.*.tmp")) == []
