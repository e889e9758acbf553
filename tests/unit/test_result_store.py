"""Unit tests of the content-addressed checkpoint store and ``repro gc``.

Covers :class:`ResultStore` (at-most-once commit, invalid blobs read
as absent and heal on the next commit) and the
:func:`collect_garbage` collector.  The supervised runs that use the
store live in ``tests/integration/test_resilient_resume.py``; the
property suite is ``tests/property/test_prop_store.py``.
"""

import hashlib
import json
import os
import shutil
import time

from repro.faults.exec_chaos import valid_blobs
from repro.sim.resilient import (
    MISSING,
    PACKAGE_ROOT,
    RESULT_SCHEMA,
    ResultStore,
    code_fingerprint,
    default_store_dir,
    task_digest,
)
from repro.sim.store_gc import collect_garbage


def probe(x):
    return x * 10


def digest_for(key="k0"):
    return task_digest("unit", "ctx", key, probe)


class TestResultStore:
    def test_commit_and_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_for()
        assert store.load(digest) is MISSING
        assert store.commit(digest, "k0", {"v": 1})
        assert store.load(digest) == {"v": 1}

    def test_second_commit_loses_and_preserves_first(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_for()
        assert store.commit(digest, "k0", "first")
        assert not store.commit(digest, "k0", "second")
        assert store.load(digest) == "first"
        assert list(store.root.glob("*/.*.tmp")) == []

    def test_torn_blob_reads_as_absent_and_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_for()
        store.commit(digest, "k0", "good")
        path = store.path(digest)
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        assert store.load(digest) is MISSING
        # A later committer heals the torn occupant and wins.
        assert store.commit(digest, "k0", "healed")
        assert store.load(digest) == "healed"

    def test_wrong_task_or_payload_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        digest, other = digest_for("a"), digest_for("b")
        store.commit(digest, "a", "v")
        env = json.loads(store.path(digest).read_text(encoding="utf-8"))
        env["payload"] = env["payload"][:-4] + "AAA="
        store.path(digest).write_text(json.dumps(env), encoding="utf-8")
        assert store.load(digest) is MISSING
        # Another task's valid blob at this address is not this result.
        store.commit(other, "b", "w")
        store.path(digest).write_bytes(store.path(other).read_bytes())
        assert store.load(digest) is MISSING

    def test_none_and_nested_values_roundtrip(self, tmp_path):
        # A task may return None: only MISSING means "absent".
        values = {"a": None, "b": {"v": [1, 2.5, ("x", None)]}, "c": b"\0"}
        writer = ResultStore(tmp_path)
        for key, value in values.items():
            assert writer.commit(digest_for(key), key, value)
        # A fresh instance (a later process) reads every blob back.
        reader = ResultStore(tmp_path)
        for key, value in values.items():
            loaded = reader.load(digest_for(key))
            assert loaded is not MISSING and loaded == value
        assert len(list(reader.blobs())) == len(values)

    def test_other_schema_version_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_for()
        store.commit(digest, "k0", "from-a-newer-tree")
        env = json.loads(store.path(digest).read_text(encoding="utf-8"))
        env["schema"] = "repro-result/v2"
        store.path(digest).write_text(json.dumps(env), encoding="utf-8")
        # Neither older nor newer versions are misread as this one.
        assert store.load(digest) is MISSING
        assert store.commit(digest, "k0", "healed")
        env = json.loads(store.path(digest).read_text(encoding="utf-8"))
        assert env["schema"] == RESULT_SCHEMA
        assert store.load(digest) == "healed"

    def test_torn_blob_leaves_other_tasks_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        digests = {key: digest_for(key) for key in ("a", "b", "c")}
        for key, digest in digests.items():
            store.commit(digest, key, key.upper())
        path = store.path(digests["b"])
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[:-10], encoding="utf-8")  # crash mid-write
        assert store.load(digests["a"]) == "A"
        assert store.load(digests["b"]) is MISSING
        assert store.load(digests["c"]) == "C"
        assert len(valid_blobs(store)) == 2

    def test_task_digest_pins_kind_context_key_and_function(self):
        base = task_digest("sweep", "ctx", "k", probe)
        assert base == task_digest("sweep", "ctx", "k", probe)
        assert base != task_digest("campaign", "ctx", "k", probe)
        assert base != task_digest("sweep", "ctx2", "k", probe)
        assert base != task_digest("sweep", "ctx", "k2", probe)
        assert base != task_digest("sweep", "ctx", "k", digest_for)

    def test_code_fingerprint_pins_the_source_tree(self, tmp_path):
        same, edited = tmp_path / "same", tmp_path / "edited"
        for copy in (same, edited):
            shutil.copytree(
                PACKAGE_ROOT, copy,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        with open(edited / "sim" / "resilient.py", "a") as handle:
            handle.write("# one edited line\n")
        assert code_fingerprint(same) == code_fingerprint()
        assert code_fingerprint(edited) != code_fingerprint()

    def test_payload_checks_the_envelope_without_unpickling(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_for()
        store.commit(digest, "k0", "v")
        env = json.loads(store.path(digest).read_text(encoding="utf-8"))
        assert store.payload(digest) == env["payload"]
        # A well-formed envelope around bytes that do not unpickle:
        # the envelope check passes, only ``load`` rejects it.
        env["payload"] = "bm90IGEgcGlja2xl"
        env["digest"] = hashlib.sha256(
            env["payload"].encode("utf-8")
        ).hexdigest()
        store.path(digest).write_text(json.dumps(env), encoding="utf-8")
        assert store.payload(digest) == env["payload"]
        assert store.load(digest) is MISSING
        assert store.payload(digest_for("absent")) is None


class TestGc:
    def _run(self, runs, name, age=0.0):
        path = runs / name
        path.mkdir(parents=True)
        if age:
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        return path

    def test_keeps_newest_and_prunes_rest(self, tmp_path):
        runs = tmp_path / "runs"
        self._run(runs, "old", age=3600)
        self._run(runs, "mid", age=1800)
        new = self._run(runs, "new")
        report = collect_garbage(runs, keep=1)
        assert report.runs_kept == ["new"]
        assert sorted(report.runs_removed) == ["mid", "old"]
        assert new.exists()
        assert not (runs / "old").exists()

    def test_store_pruning_classes(self, tmp_path):
        runs = tmp_path / "runs"
        self._run(runs, "live")
        store = ResultStore(default_store_dir(runs))
        fresh, stale, torn = digest_for("a"), digest_for("b"), digest_for("c")
        store.commit(fresh, "a", 1)
        store.commit(stale, "b", 2)
        old = time.time() - 7200
        os.utime(store.path(stale), (old, old))
        store.commit(torn, "c", 3)
        raw = store.path(torn).read_text(encoding="utf-8")
        store.path(torn).write_text(raw[:20], encoding="utf-8")
        (store.path(fresh).parent / ".litter.tmp").write_text("x")
        report = collect_garbage(runs, keep=5)
        assert report.blobs_removed == 1      # stale: older than kept runs
        assert report.invalid_blobs_removed == 1
        assert report.tmp_removed == 1
        assert store.load(fresh) == 1
        assert not store.path(stale).exists()

    def test_dry_run_touches_nothing(self, tmp_path):
        runs = tmp_path / "runs"
        self._run(runs, "old", age=3600)
        self._run(runs, "new")
        report = collect_garbage(runs, keep=1, dry_run=True)
        assert report.runs_removed == ["old"]
        assert (runs / "old").exists()

    def test_missing_runs_dir_is_a_noop(self, tmp_path):
        report = collect_garbage(tmp_path / "absent", keep=1)
        assert report.runs_kept == [] and report.runs_removed == []

    def test_store_max_age_overrides_run_anchor(self, tmp_path):
        runs = tmp_path / "runs"
        self._run(runs, "live", age=7200)
        store = ResultStore(default_store_dir(runs))
        digest = digest_for("x")
        store.commit(digest, "x", 1)
        old = time.time() - 3600
        os.utime(store.path(digest), (old, old))
        # Anchored on the (older) run dir the blob survives ...
        assert collect_garbage(runs, keep=5, dry_run=True).blobs_removed == 0
        # ... but an explicit max age prunes it.
        report = collect_garbage(runs, keep=5, store_max_age_seconds=60.0)
        assert report.blobs_removed == 1
