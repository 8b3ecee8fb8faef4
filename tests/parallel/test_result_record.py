"""Result documents are canonical, so a hydrated result rebuilds its record.

``ExecutionResult.to_dict`` builds its dict in the store's canonical order
(keys sorted, device keys sorted as strings), so a freshly simulated result
and one hydrated from the store dump to the same bytes.  That is what lets
a session keep a warm result rather than its stored document and copy the
document the result builds once per hit: cold and warm ``/v1/plan`` bodies
stay byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.parallel.executor import RECORD_FIELDS, ExecutionResult
from repro.parallel.registry import REGISTRY
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService
from repro.store.keys import canonical_json, run_key

SESSION = Session()

cells = st.fixed_dictionaries(
    {
        "strategy": st.sampled_from(REGISTRY.names()),
        "num_gpus": st.integers(1, 12),
        "batch_size": st.integers(32, 512),
        "simulated_steps": st.integers(4, 8),
    }
)


def hydrate(result: ExecutionResult) -> ExecutionResult:
    """The result as a warm store hit rebuilds it."""
    return ExecutionResult.from_dict(json.loads(canonical_json(result.to_dict())))


@given(cell=cells)
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_fresh_and_hydrated_documents_are_byte_identical(cell):
    fresh = SESSION.run(ExperimentConfig(**cell))
    document = json.dumps(fresh.to_dict(), indent=2)
    hydrated = hydrate(fresh)
    assert json.dumps(hydrated.to_dict(), indent=2) == document
    assert json.dumps(fresh.to_dict(), indent=2, sort_keys=True) == document
    assert json.dumps(hydrated.document, indent=2) == document
    assert hydrated.to_dict() is not hydrated.to_dict()
    # The document is built once and takes no part in equality.
    assert hydrated.document is hydrated.document
    assert hydrated == replace(hydrated)


def test_device_keys_sort_as_strings_at_12_gpus():
    result = SESSION.run(ExperimentConfig(num_gpus=12, simulated_steps=4), "LS")
    document = result.to_dict()
    assert list(document) == list(RECORD_FIELDS)
    expected = sorted(str(device) for device in range(12))
    assert list(document["breakdown_s"]) == expected
    assert list(document["peak_memory_bytes"]) == expected
    assert list(document["plan"]["device_blocks"]) == sorted(
        document["plan"]["device_blocks"]
    )


def test_12_gpu_cold_and_warm_plan_bodies_are_byte_identical(tmp_path):
    client = LocalClient(PlannerService(store=tmp_path / "store"))
    bodies = []
    for strategy in REGISTRY.names():
        body = {"strategy": strategy, "num_gpus": 12, "steps": 4}
        cold = client.post("/v1/plan", json=body).json()
        warm = client.post("/v1/plan", json=body).json()
        assert cold.pop("meta")["request"]["warm"] is False
        assert warm.pop("meta")["request"]["warm"] is True
        assert json.dumps(warm, indent=2) == json.dumps(cold, indent=2)
        bodies.append(warm)
    fresh = Session().run(ExperimentConfig(num_gpus=12, simulated_steps=4), "TR+DPU+AHD")
    assert json.dumps(bodies[-1]["result"], indent=2) == json.dumps(
        fresh.to_dict(), indent=2
    )


@pytest.mark.parametrize("num_gpus", [2, 4, 12])
def test_cold_warm_and_store_less_answers_are_byte_identical(tmp_path, num_gpus):
    # No sort_keys: the key order of every answer is compared too.
    client = LocalClient(PlannerService(store=tmp_path / "store"))
    session = Session()
    for strategy in REGISTRY.names():
        body = {"strategy": strategy, "num_gpus": num_gpus, "steps": 4}
        answers = [client.post("/v1/plan", json=body).json() for _ in range(3)]
        assert [answer["meta"]["request"]["warm"] for answer in answers] == [
            False,
            True,
            True,
        ]
        config = ExperimentConfig(strategy=strategy, num_gpus=num_gpus, simulated_steps=4)
        fresh = json.dumps(session.run(config).to_dict())
        for answer in answers:
            assert json.dumps(answer["result"]) == fresh


def test_a_cold_store_run_keeps_the_document_it_wrote(tmp_path):
    session = Session(store=tmp_path / "store")
    config = ExperimentConfig(simulated_steps=4)
    result = session.run(config)
    document = result.document
    assert session.store.get("run", run_key(config, config.strategy)) == document
    assert result.to_dict() == document and result.to_dict() is not document
    assert document == replace(result).to_dict()
    assert result.document is document


class TestFromDictRejects:
    """Every field of a record is served as stored, so each one is checked."""

    @pytest.fixture
    def document(self):
        result = SESSION.run(ExperimentConfig(num_gpus=4, simulated_steps=4), "TR")
        return json.loads(canonical_json(result.to_dict()))

    def test_a_value_that_is_not_an_object(self, document):
        with pytest.raises(TypeError, match="list"):
            ExecutionResult.from_dict([document])

    def test_a_missing_field(self, document):
        del document["max_memory_gb"]
        with pytest.raises(ValueError, match=r"missing \['max_memory_gb'\]"):
            ExecutionResult.from_dict(document)

    def test_an_unexpected_field(self, document):
        document["note"] = "extra"
        with pytest.raises(ValueError, match=r"unexpected \['note'\]"):
            ExecutionResult.from_dict(document)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", "DP"),
            ("plan_kind", "layerwise"),
            ("batch_size", 1),
            ("num_devices", 99),
            ("max_memory_gb", 0.0),
            ("peak_memory_gb", {"0": 0.0}),
        ],
    )
    def test_a_derived_field_that_disagrees(self, document, field, value):
        document[field] = value
        with pytest.raises(ValueError, match=field):
            ExecutionResult.from_dict(document)
