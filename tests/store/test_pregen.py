"""Tests for pregen grids, manifests, resume semantics and gc pinning."""

import json

import pytest

from repro.core.session import Session
from repro.errors import StoreError, StoreSchemaError
from repro.store import ExperimentStore
from repro.store.pregen import (
    GridSpec,
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    load_manifest,
    manifest_path,
    manifest_record_keys,
    resolve_grid,
    run_pregen,
    save_manifest,
)


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


def _tiny_grid(**overrides):
    """A 2-cell grid that keeps simulation time negligible."""
    spec = dict(
        name="tiny",
        servers=("a6000",),
        gpu_counts=(2,),
        batch_sizes=(128,),
        strategies=("DP", "TR"),
        policies=("fifo",),
        steps=4,
    )
    spec.update(overrides)
    return GridSpec(**spec)


class TestGridSpec:
    def test_canonical_grid_covers_every_registered_strategy(self):
        from repro.cluster import POLICIES
        from repro.parallel.registry import REGISTRY

        grid = resolve_grid("canonical")
        assert grid.strategies == REGISTRY.names()
        assert grid.policies == POLICIES.names()
        # 6 strategies x 4 batch sizes x 2 GPU counts x 2 servers.
        assert len(grid.cells()) == 96
        assert len(grid.cell_keys()) == 96

    def test_grid_hash_is_stable_and_spec_sensitive(self):
        assert _tiny_grid().grid_hash() == _tiny_grid().grid_hash()
        assert resolve_grid("smoke").grid_hash() == resolve_grid("smoke").grid_hash()
        assert _tiny_grid().grid_hash() != _tiny_grid(batch_sizes=(256,)).grid_hash()
        assert resolve_grid("smoke").grid_hash() != resolve_grid("canonical").grid_hash()

    def test_grid_round_trips_through_dict(self):
        grid = _tiny_grid()
        assert GridSpec.from_dict(grid.to_dict()) == grid

    def test_policies_do_not_multiply_cells(self):
        assert len(_tiny_grid(policies=("fifo", "sjf")).cells()) == len(
            _tiny_grid(policies=()).cells()
        )
        # ...but they do participate in the hash (the artifact is advertised
        # for a specific policy registry).
        assert (
            _tiny_grid(policies=("fifo", "sjf")).grid_hash()
            != _tiny_grid(policies=()).grid_hash()
        )

    def test_unknown_grid_name_is_rejected(self):
        with pytest.raises(StoreError, match="unknown pregen grid"):
            resolve_grid("nightly")

    def test_unknown_strategy_fails_fast(self):
        from repro.errors import ConfigurationError

        with pytest.raises((StoreError, ConfigurationError)):
            resolve_grid(_tiny_grid(strategies=("FSDP",)))

    def test_empty_strategy_list_is_rejected(self):
        with pytest.raises(StoreError, match="names no strategies"):
            resolve_grid(_tiny_grid(strategies=()))


class TestManifest:
    def test_round_trip(self, store):
        grid = _tiny_grid()
        manifest = Manifest(
            grid=grid,
            grid_hash=grid.grid_hash(),
            row_count=2,
            complete=True,
            keys=tuple(grid.cell_keys()),
        )
        save_manifest(store.root, manifest)
        loaded = load_manifest(store.root)
        assert loaded.grid == grid
        assert loaded.grid_hash == grid.grid_hash()
        assert loaded.row_count == 2
        assert loaded.complete
        assert set(loaded.keys) == set(grid.cell_keys())
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION

    def test_missing_manifest_is_none(self, store):
        assert load_manifest(store.root) is None
        assert manifest_record_keys(store.root) == frozenset()

    def test_corrupt_manifest_is_rejected(self, store):
        manifest_path(store.root).write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            load_manifest(store.root)

    def test_foreign_manifest_is_rejected(self, store):
        manifest_path(store.root).write_text(
            json.dumps({"magic": "npm-package", "version": "9.9.9"})
        )
        with pytest.raises(StoreError, match="not a pregen manifest"):
            load_manifest(store.root)

    def test_future_schema_is_rejected(self, store):
        grid = _tiny_grid()
        payload = Manifest(
            grid=grid, grid_hash=grid.grid_hash(), row_count=0, complete=False
        ).to_dict()
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        manifest_path(store.root).write_text(json.dumps(payload))
        with pytest.raises(StoreSchemaError, match="regenerate"):
            load_manifest(store.root)

    def test_malformed_key_list_is_rejected(self, store):
        grid = _tiny_grid()
        payload = Manifest(
            grid=grid, grid_hash=grid.grid_hash(), row_count=0, complete=False
        ).to_dict()
        payload["keys"] = "abc123"
        manifest_path(store.root).write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="key list"):
            load_manifest(store.root)


def _pregen(store, **kwargs):
    """``run_pregen`` on a fresh session over ``store``."""
    return run_pregen(Session(store=store), **kwargs)


class TestRunPregen:
    def test_full_run_is_complete_and_reusable(self, store):
        report = _pregen(store, grid=_tiny_grid())
        assert report["complete"]
        assert report["simulated"] == report["grid_size"] == 2
        assert report["cells"] == 1
        assert report["hydrated"] == 0
        assert report["row_count"] == 2
        manifest = load_manifest(store.root)
        assert manifest.complete and manifest.row_count == 2

        # A brand-new session against the artifact never simulates.
        session = Session(store=ExperimentStore(store.root))
        for config, strategy in _tiny_grid().cells():
            session.run(config, strategy=strategy)
        assert session.stats.runs == 0
        assert session.stats.store_hits == 2

    def test_interrupt_then_resume_fills_only_missing_cells(self, store):
        grid = _tiny_grid()
        partial = _pregen(store, grid=grid, max_cells=1)
        assert not partial["complete"]
        assert partial["simulated"] == 1 and partial["row_count"] == 1
        assert not load_manifest(store.root).complete

        resumed = _pregen(store, grid=grid)
        assert resumed["complete"]
        assert resumed["hydrated"] == partial["row_count"] == 1
        assert resumed["simulated"] == resumed["grid_size"] - partial["row_count"] == 1
        assert load_manifest(store.root).complete

        # Idempotent once complete: a third run is a pure no-op.
        noop = _pregen(store, grid=grid)
        assert noop["simulated"] == 0 and noop["hydrated"] == noop["grid_size"]

    def test_runs_on_the_callers_session(self, store):
        session = Session(store=store)
        run_pregen(session, grid=_tiny_grid())
        assert session.stats.runs == 2
        again = run_pregen(session, grid=_tiny_grid())
        # Present cells are counted, not read.
        assert again["hydrated"] == 2
        assert session.stats.runs == 2 and session.stats.store_hits == 0

    def test_a_target_listed_twice_is_simulated_once(self, store):
        report = _pregen(store, grid=_tiny_grid(batch_sizes=(128, 128)))
        assert report["grid_size"] == 4 and report["cells"] == 2
        assert report["simulated"] == 2 and report["hydrated"] == 2

    def test_negative_max_cells_is_rejected(self, store):
        with pytest.raises(StoreError, match="max_cells"):
            _pregen(store, grid=_tiny_grid(), max_cells=-1)
        assert load_manifest(store.root) is None

    def test_a_session_without_a_store_is_rejected(self):
        with pytest.raises(StoreError, match="has none"):
            run_pregen(Session(), grid=_tiny_grid())


class TestGcPinning:
    def test_gc_never_evicts_manifest_referenced_rows(self, store):
        grid = _tiny_grid()
        _pregen(store, grid=grid)
        store.put("run", {"cell": "unpinned"}, {"epoch_time_s": 9.9})
        assert len(store) == 3

        evicted = store.gc(max_records=0)

        assert evicted == 1  # only the unpinned record
        assert store.get("run", {"cell": "unpinned"}) is None
        session = Session(store=ExperimentStore(store.root))
        for config, strategy in grid.cells():
            session.run(config, strategy=strategy)
        assert session.stats.runs == 0, "gc evicted pinned pregen rows"

    def test_gc_age_bound_also_respects_pins(self, store):
        _pregen(store, grid=_tiny_grid())
        assert store.gc(max_age_seconds=0.0) == 0
        assert len(store) == 2

    def test_a_second_grid_keeps_the_first_grids_rows_pinned(self, store):
        first = _tiny_grid(name="first")
        second = _tiny_grid(name="second", batch_sizes=(256,), strategies=("DP",))
        _pregen(store, grid=first)
        _pregen(store, grid=second)
        manifest = load_manifest(store.root)
        assert manifest.grid == second and manifest.row_count == 1
        assert set(manifest.keys) == set(first.cell_keys()) | set(second.cell_keys())

        assert store.gc(max_records=0) == 0
        session = Session(store=ExperimentStore(store.root))
        for config, strategy in first.cells():
            session.run(config, strategy=strategy)
        assert session.stats.runs == 0, "the second grid unpinned the first"

    def test_gc_fails_loudly_on_a_corrupt_manifest(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        manifest_path(store.root).write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            store.gc(max_records=0)
        # Nothing was evicted while the pin set was unknowable.
        assert len(store) == 1

    def test_pregen_fails_loudly_on_a_corrupt_manifest(self, store):
        manifest_path(store.root).write_text("{not json")
        session = Session(store=store)
        with pytest.raises(StoreError, match="unreadable"):
            run_pregen(session, grid=_tiny_grid())
        # Nothing ran while the pin set to extend was unknowable.
        assert session.stats.runs == 0 and len(store) == 0
