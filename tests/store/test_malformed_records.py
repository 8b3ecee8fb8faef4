"""A store record that does not hydrate fails as a typed StoreError.

A warm ``/v1/plan`` hit and a warm ``repro run --store`` embed the stored
result document as is, so the hydrate in ``Session.run`` is the record's
only check.  Each edit below used to escape as a 500 (``KeyError``,
``TypeError``, ``ValueError``, ``JSONDecodeError``) or, for a bad plan, as
a domain error that did not name the record.  Now every one is a 400 on
the service and exit code 2 on the CLI, and the message names the record
key and how to clear it.
"""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.cluster.spec import cluster_from_shorthand
from repro.core.session import Session
from repro.errors import StoreError
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService
from repro.store.store import ExperimentStore
from repro.tune.evaluator import TuneEvaluator
from repro.tune.space import TunePoint

BODY = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}


def _drop_epoch_time(value: dict) -> str:
    del value["epoch_time_s"]
    return json.dumps(value)


def _device_key_x(value: dict) -> str:
    breakdown = value["breakdown_s"]
    breakdown["x"] = breakdown.pop("0")
    return json.dumps(value)


def _duplicate_devices(value: dict) -> str:
    stage = value["plan"]["stages"][0]
    stage["device_ids"] = [stage["device_ids"][0]] * 2
    return json.dumps(value)


#: record edit -> the stored value text it leaves behind
EDITS = {
    "missing_epoch_time": _drop_epoch_time,
    "json_list": lambda value: json.dumps([value]),
    "device_key_x": _device_key_x,
    "not_json": lambda value: json.dumps(value)[:-7],
    "duplicate_devices": _duplicate_devices,
    "metadata_list": lambda value: json.dumps({**value, "metadata": [value["metadata"]]}),
}


def tamper(store_root, edit) -> str:
    """Rewrite the store's single record with ``edit``; returns its key."""
    with sqlite3.connect(store_root / "store.sqlite") as conn:
        ((key, value),) = conn.execute("SELECT key, value FROM records").fetchall()
        conn.execute(
            "UPDATE records SET value = ? WHERE key = ?", (edit(json.loads(value)), key)
        )
    return key


def assert_names_the_record(message: str, key: str) -> None:
    assert key in message
    assert "DELETE FROM records" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_service_answers_400_naming_the_record(tmp_path, edit):
    store_root = tmp_path / "store"
    client = LocalClient(PlannerService(store=store_root))
    assert client.post("/v1/plan", json=BODY).status_code == 200
    key = tamper(store_root, EDITS[edit])
    response = client.post("/v1/plan", json=BODY)
    assert response.status_code == 400
    error = response.json()["error"]
    assert error["type"] == "domain"
    assert_names_the_record(error["message"], key)


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_cli_run_exits_2_naming_the_record(tmp_path, capsys, edit):
    store_root = tmp_path / "store"
    argv = ["run", "--strategy", "TR", "--steps", "4", "--store", str(store_root)]
    assert main(argv) == 0
    key = tamper(store_root, EDITS[edit])
    capsys.readouterr()
    assert main(argv) == 2
    assert_names_the_record(capsys.readouterr().err, key)


def test_store_get_types_an_undecodable_value_of_any_kind(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    store.put("estimate", {"cell": 1}, {"x": 1.0})
    tamper(store.root, lambda value: "{")
    with pytest.raises(StoreError, match="estimate"):
        store.get("estimate", {"cell": 1})


class TestTuneRecords:
    """A stored tune estimate or fleet probe that does not hydrate names
    its record (these used to escape as ``KeyError`` / ``TypeError``)."""

    POINT = TunePoint(
        task="nas",
        dataset="cifar10",
        server="a6000",
        num_gpus=2,
        batch_size=128,
        strategy="DP",
        policy="fifo",
        cluster=cluster_from_shorthand("a6000:4"),
    )
    PROBES = {
        "estimate": TuneEvaluator.estimate,
        "throughput": TuneEvaluator.throughput,
        "slo": TuneEvaluator.slo,
    }

    @pytest.mark.parametrize("kind", sorted(PROBES))
    @pytest.mark.parametrize(
        "edit",
        [lambda value: [value], lambda value: {}, lambda value: dict.fromkeys(value, "x")],
        ids=["json_list", "no_fields", "not_a_number"],
    )
    def test_raises_a_store_error_naming_the_record(self, tmp_path, kind, edit):
        store_root = tmp_path / "store"

        def probe():
            evaluator = TuneEvaluator(
                Session(store=store_root), simulated_steps=4, throughput_jobs=2
            )
            return self.PROBES[kind](evaluator, self.POINT)

        probe()
        with sqlite3.connect(store_root / "store.sqlite") as conn:
            ((key, value),) = conn.execute(
                "SELECT key, value FROM records WHERE kind = ?", (kind,)
            ).fetchall()
            conn.execute(
                "UPDATE records SET value = ? WHERE key = ?",
                (json.dumps(edit(json.loads(value))), key),
            )
        with pytest.raises(StoreError) as excinfo:
            probe()
        assert_names_the_record(str(excinfo.value), key)
