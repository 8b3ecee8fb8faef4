"""Request-body validation: the stdlib validator against a recorded corpus.

``validation_corpus.json`` holds request bodies for all five compute
endpoints with the verdict the service gave when it validated bodies with
pydantic: accept (with the request built) or reject (with each error's
``loc``).  :func:`repro.commands.from_mapping` must give every verdict,
request and loc again, except on the bodies pydantic accepted only by
coercing a value of the wrong JSON type; those carry a ``now`` entry, the
422 that strict validation gives instead.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.commands import COMMANDS, ClusterRequest, PlanRequest, from_mapping
from repro.errors import RequestError
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService

CORPUS = json.loads((Path(__file__).parent / "validation_corpus.json").read_text())["cases"]
IDS = [f"{case['endpoint']} {json.dumps(case['body'])}" for case in CORPUS]


def request_type(endpoint):
    return COMMANDS[endpoint.rpartition("/")[2]][0]


def expected(case):
    return case.get("now", case["pydantic"])


def validate(case):
    """``("accept", request dict)`` or ``("reject", locs)`` for one case."""
    try:
        request = from_mapping(request_type(case["endpoint"]), case["body"])
    except RequestError as error:
        assert (error.status, error.body["type"]) == (422, "validation")
        return "reject", [entry["loc"] for entry in error.body["detail"]]
    return "accept", dataclasses.asdict(request)


@pytest.fixture(scope="module")
def client():
    return LocalClient(PlannerService())


class TestCorpus:
    def test_covers_every_endpoint_and_each_coercion(self):
        assert {case["endpoint"] for case in CORPUS} == {f"/v1/{name}" for name in COMMANDS}
        assert len(CORPUS) >= 40
        coerced = [case for case in CORPUS if "now" in case]
        assert all(case["now"]["verdict"] == "reject" for case in coerced)
        assert all(case["now"]["status"] == 422 for case in coerced)
        assert {json.dumps(case["body"]) for case in coerced} >= {
            '{"batch_size": true}',
            '{"batch_size": "256"}',
            '{"batch_size": 256.0}',
            '{"rate": "0.5"}',
        }

    @pytest.mark.parametrize("case", CORPUS, ids=IDS)
    def test_verdict_request_and_loc_match(self, case):
        verdict, result = validate(case)
        want = expected(case)
        assert verdict == want["verdict"]
        if verdict == "accept":
            # Byte-equal, so an integer sent to a float field must come out
            # a float, as it did before.
            assert json.dumps(result, sort_keys=True) == json.dumps(
                want["request"], sort_keys=True
            )
        else:
            assert result == want["loc"]

    @pytest.mark.parametrize(
        "case",
        [case for case in CORPUS if expected(case)["verdict"] == "reject"],
        ids=[i for i, case in zip(IDS, CORPUS) if expected(case)["verdict"] == "reject"],
    )
    def test_rejections_are_422_over_the_service(self, client, case):
        response = client.post(case["endpoint"], json=case["body"])
        assert response.status_code == 422
        error = response.json()["error"]
        assert error["type"] == "validation"
        assert [entry["loc"] for entry in error["detail"]] == expected(case)["loc"]
        assert all(set(entry) == {"loc", "msg", "type"} for entry in error["detail"])


class TestCoercionsAreNow422:
    """One regression test per value pydantic used to coerce silently."""

    def rejected(self, client, path, body):
        response = client.post(path, json=body)
        assert response.status_code == 422, response.json()
        (entry,) = response.json()["error"]["detail"]
        return entry

    def test_bool_is_not_an_integer(self, client):
        # pydantic planned batch size 1 for this body.
        entry = self.rejected(client, "/v1/plan", {"batch_size": True})
        assert entry == {
            "loc": ["batch_size"],
            "msg": "expected an integer, got a boolean",
            "type": "int_type",
        }

    def test_numeric_string_is_not_an_integer(self, client):
        entry = self.rejected(client, "/v1/plan", {"batch_size": "256"})
        assert (entry["loc"], entry["type"]) == (["batch_size"], "int_type")
        assert entry["msg"] == "expected an integer, got a string"

    def test_integral_float_is_not_an_integer(self, client):
        entry = self.rejected(client, "/v1/plan", {"batch_size": 256.0})
        assert (entry["loc"], entry["type"]) == (["batch_size"], "int_type")
        assert entry["msg"] == "expected an integer, got a number"

    def test_numeric_string_is_not_a_number(self, client):
        entry = self.rejected(client, "/v1/cluster", {"rate": "0.5"})
        assert (entry["loc"], entry["type"]) == (["rate"], "float_type")
        assert entry["msg"] == "expected a number, got a string"


class TestRules:
    def test_integer_becomes_a_float_on_a_float_field(self):
        rate = from_mapping(ClusterRequest, {"rate": 1}).rate
        assert type(rate) is float and rate == 1.0

    def test_null_only_on_optional_fields(self):
        assert from_mapping(ClusterRequest, {"nodes": None}) == ClusterRequest()
        with pytest.raises(RequestError) as error:
            from_mapping(ClusterRequest, {"policy": None})
        assert error.value.body["detail"][0]["msg"] == "expected a string, got null"

    def test_every_problem_is_listed_fields_first(self):
        body = {"bogus": 1, "steps": "4", "batch_size": None, "task": 7}
        with pytest.raises(RequestError) as error:
            from_mapping(PlanRequest, body)
        detail = error.value.body["detail"]
        locs = [entry["loc"] for entry in detail]
        assert locs == [["task"], ["batch_size"], ["steps"], ["bogus"]]
        assert detail[-1]["type"] == "unexpected_keyword_argument"
        assert "strategy" in detail[-1]["msg"]  # names the valid fields
        message = str(error.value)
        assert "PlanRequest" in message and "task" in message and "3 more" in message

    def test_a_body_that_is_not_an_object(self):
        with pytest.raises(RequestError) as error:
            from_mapping(PlanRequest, [1, 2])
        assert error.value.body["detail"] == [
            {"loc": [], "msg": "expected an object, got an array", "type": "dict_type"}
        ]

    def test_absent_fields_keep_their_defaults(self):
        assert from_mapping(PlanRequest, {}) == PlanRequest()
        request = from_mapping(PlanRequest, {"strategy": "TR", "steps": 4})
        assert request == PlanRequest(strategy="TR", steps=4)
