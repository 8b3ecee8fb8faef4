"""Converting a legacy JSONL store with ``repro cache import``.

Before the SQLite format, a store kept its records as JSONL shards
(``shards/<pp>.jsonl``), moved invalid lines to ``quarantine/`` and could
carry a derived ``index.sqlite``.  ``cache import`` loads every valid line
into ``store.sqlite`` once, skips and counts the invalid ones, and removes
the old layout.  The golden is the parent format's ``cache export`` of the
same legacy directory, so an import must not change a single exported byte.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import StoreSchemaError
from repro.store.keys import SCHEMA_VERSION
from repro.store.store import ExperimentStore, import_legacy

GOLDEN = Path(__file__).parent / "golden" / "legacy_export.json"


def _key(n):
    return hashlib.sha256(f"legacy-cell-{n}".encode()).hexdigest()


def _line(n, kind, ts, value):
    record = {"key": _key(n), "kind": kind, "schema": SCHEMA_VERSION, "ts": ts, "value": value}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


#: The legacy store's valid lines, in write order; key 3 is written twice.
LEGACY_LINES = [
    _line(0, "run", 1760000000.0, {
        "epoch_time_s": 0.1 + 0.2,
        "metadata": {"none": None, "note": "µs ≤ 1", "ok": True},
        "stages": [[0, 3], [3, 7]],
        "strategy": "Pipe-BD",
    }),
    _line(1, "estimate", 1760000000.125, {"epoch_time_s": 1e-07, "speedup": 3.08}),
    _line(2, "run", 1760000000.25, {
        "epoch_time_s": 12345.678901234567,
        "per_device": [1.5, 2.25, 3.125],
    }),
    _line(3, "run", 1760000000.375, {"x": 1}),
    _line(4, "estimate", 1760000000.5, {"nested": {"a": 1e300, "b": [1, {"c": -0.0}]}}),
    _line(3, "run", 1760000100.5, {"x": 2}),
]

TRUNCATED = '{"key": "dead", "kind": "run", "sch'
MISSING_FIELDS = '{"key": "k", "kind": "run"}'
FOREIGN_SCHEMA = json.dumps(
    {"key": "k" * 64, "kind": "run", "schema": SCHEMA_VERSION + 7, "ts": time.time(), "value": {}}
)


def write_legacy_store(root, bad_lines=()):
    """A store directory in the JSONL layout, as the old writer left it.

    Valid lines go to the shard named by their key's first two hex digits;
    ``bad_lines`` (and one blank line, which is not a record) are appended
    to the first shard.
    """
    root.mkdir(parents=True)
    meta = {"magic": "repro-store", "schema_version": SCHEMA_VERSION}
    (root / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (root / "shards").mkdir()
    (root / "quarantine").mkdir()
    (root / "quarantine" / "00.jsonl").write_text("moved aside long ago\n")
    (root / ".lock").touch()
    for line in LEGACY_LINES:
        shard = root / "shards" / f"{json.loads(line)['key'][:2]}.jsonl"
        with open(shard, "a") as handle:
            handle.write(line + "\n")
    first = sorted((root / "shards").glob("*.jsonl"))[0]
    with open(first, "a") as handle:
        handle.write("".join(line + "\n" for line in ("", *bad_lines)))
    return root


@pytest.fixture
def legacy(tmp_path):
    return tmp_path / "legacy"


class TestSkippedLines:
    def test_truncated_line_is_skipped_and_rest_served(self, legacy):
        write_legacy_store(legacy, [TRUNCATED])
        assert import_legacy(legacy) == {"imported": 6, "skipped": 1}
        store = ExperimentStore(legacy)
        assert len(store) == 5
        for record in store.records():
            json.dumps(record)

    def test_missing_fields_are_skipped(self, legacy):
        write_legacy_store(legacy, [MISSING_FIELDS])
        assert import_legacy(legacy)["skipped"] == 1
        assert len(ExperimentStore(legacy)) == 5

    def test_foreign_record_schema_is_skipped(self, legacy):
        write_legacy_store(legacy, [FOREIGN_SCHEMA, "[1, 2]"])
        assert import_legacy(legacy) == {"imported": 6, "skipped": 2}
        assert _key("k") not in {r["key"] for r in ExperimentStore(legacy).records()}


class TestImport:
    def test_last_line_wins_for_a_duplicate_key(self, legacy):
        write_legacy_store(legacy)
        import_legacy(legacy)
        values = {r["key"]: r["value"] for r in ExperimentStore(legacy).records()}
        assert values[_key(3)] == {"x": 2}

    def test_import_removes_the_legacy_layout(self, legacy):
        write_legacy_store(legacy)
        for name in ("index.sqlite", "index.sqlite-wal", "index.sqlite-shm"):
            (legacy / name).write_bytes(b"derived")
        import_legacy(legacy)
        assert sorted(path.name for path in legacy.iterdir()) == [
            "meta.json",
            "store.sqlite",
        ]

    def test_second_import_is_a_no_op(self, legacy):
        write_legacy_store(legacy, [TRUNCATED])
        import_legacy(legacy)
        before = ExperimentStore(legacy).export()
        assert import_legacy(legacy) == {"imported": 0, "skipped": 0}
        assert ExperimentStore(legacy).export() == before

    def test_interrupted_import_repeats(self, legacy):
        """Shards left beside a filled database still mark the store legacy."""
        write_legacy_store(legacy)
        import_legacy(legacy)
        write_legacy_store(legacy.with_name("again"))
        (legacy.with_name("again") / "shards").rename(legacy / "shards")
        with pytest.raises(StoreSchemaError, match="repro cache import"):
            ExperimentStore(legacy)
        assert import_legacy(legacy) == {"imported": 6, "skipped": 0}
        assert len(ExperimentStore(legacy)) == 5

    def test_opening_a_legacy_store_names_the_fix(self, legacy):
        write_legacy_store(legacy)
        with pytest.raises(StoreSchemaError, match="repro cache import"):
            ExperimentStore(legacy)
        assert not (legacy / "store.sqlite").exists()

    def test_export_after_import_matches_the_legacy_export(self, legacy, capsys):
        write_legacy_store(legacy, [TRUNCATED, MISSING_FIELDS, FOREIGN_SCHEMA])
        assert main(["cache", "import", "--store", str(legacy)]) == 0
        assert json.loads(capsys.readouterr().out) == {"imported": 6, "skipped": 3}
        assert main(["cache", "export", "--store", str(legacy)]) == 0
        exported = capsys.readouterr().out.replace(str(legacy), "<root>")
        assert exported == GOLDEN.read_text()
