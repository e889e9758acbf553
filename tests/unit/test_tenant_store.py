"""``repro-tenant/v1`` journal semantics: prefix replay, torn tails, heal.

The tenant store is an *ordered* event log (unlike the executor's
content-addressed result store, whose blobs are independent): state
after entry N depends on every entry before it, so damage anywhere
ends the usable prefix.  These tests pin
that discipline file-by-file, without a daemon in the loop.
"""

import json

import pytest

from repro.common.canonical import canonical_json
from repro.service.store import (
    TENANT_SCHEMA,
    TenantJournal,
    TenantStore,
    TenantStoreError,
)

PARAMS = {
    "scenario": "cc1", "scheme": "ours", "engine": "scalar",
    "duration": 300.0, "seed": 7, "warmup": False, "data_bytes": 0,
}


def make_journal(tmp_path, entries=3):
    store = TenantStore(tmp_path)
    journal = store.create("tenant-a", "kid-1", PARAMS)
    journal.record_open(1, {"issued": 0})
    for index in range(entries):
        journal.record_step(
            2 + index, f"tag-{index}", (index + 1) * 50, f"digest-{index}"
        )
    journal.close()
    return store, journal.path


def test_roundtrip_header_and_entries(tmp_path):
    store, path = make_journal(tmp_path)
    journal, entries = store.load("tenant-a")
    assert journal.header["schema"] == TENANT_SCHEMA
    assert journal.header["tenant"] == "tenant-a"
    assert journal.header["kid"] == "kid-1"
    assert journal.header["params"] == PARAMS
    assert [e["type"] for e in entries] == ["open", "step", "step", "step"]
    assert entries[-1] == {
        "type": "step", "seq": 4, "tag": "tag-2",
        "issued": 150, "digest": "digest-2",
    }
    assert journal.dropped_entries == 0
    assert store.count() == 1


def test_torn_tail_drops_only_final_entry(tmp_path):
    store, path = make_journal(tmp_path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    path.write_text(
        "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2].rstrip("\n"),
        encoding="utf-8",
    )
    journal, entries = store.load("tenant-a")
    assert [e["seq"] for e in entries] == [1, 2, 3]
    assert journal.dropped_entries == 1


def test_corrupt_middle_entry_ends_the_prefix(tmp_path):
    store, path = make_journal(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # Flip one payload byte in the second entry: digest mismatch.
    lines[2] = lines[2].replace("digest-0", "digest-X")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    journal, entries = store.load("tenant-a")
    assert [e["seq"] for e in entries] == [1]  # open only
    assert journal.dropped_entries == 3  # damaged line + whole suffix


def test_truncate_to_heals_atomically(tmp_path):
    store, path = make_journal(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + '{"torn', encoding="utf-8")
    journal, entries = store.load("tenant-a")
    assert journal.dropped_entries == 1
    journal.truncate_to(entries)
    # Healed: clean reload, nothing dropped, appends still work.
    journal2, entries2 = store.load("tenant-a")
    assert entries2 == entries
    assert journal2.dropped_entries == 0
    journal2.record_step(9, "tag-9", 500, "digest-9")
    journal2.close()
    _, entries3 = store.load("tenant-a")
    assert entries3[-1]["seq"] == 9


def test_header_damage_discards_the_file(tmp_path):
    store, path = make_journal(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema"] = "repro-tenant/v999"
    lines[0] = canonical_json(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert store.load("tenant-a") is None
    assert not path.exists()  # untrusted identity: fall back to fresh
    with pytest.raises(TenantStoreError, match="header"):
        TenantJournal.attach(path)


def test_create_replaces_and_discard_unlinks(tmp_path):
    store, path = make_journal(tmp_path)
    journal = store.create("tenant-a", "kid-2", PARAMS)
    journal.close()
    reloaded, entries = store.load("tenant-a")
    assert reloaded.header["kid"] == "kid-2"
    assert entries == []
    assert store.exists("tenant-a")
    store.discard("tenant-a")
    assert not store.exists("tenant-a")
    assert store.load("tenant-a") is None
    assert store.count() == 0


def test_names_are_hashed_out_of_the_filesystem(tmp_path):
    store = TenantStore(tmp_path)
    hostile = "../../../etc/passwd\n; rm -rf /"
    path = store.path_for(hostile)
    assert path.parent == store.tenants_dir
    journal = store.create(hostile, "kid-1", PARAMS)
    journal.close()
    _, entries = store.load(hostile)
    assert entries == []
    assert store.load("some-other-name") is None
