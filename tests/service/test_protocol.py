"""The request/response contract, exercised without a socket."""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.pks import PksConfig
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.evaluation.context import build_context
from repro.evaluation.engine import TaskOutcome
from repro.methods import get_method
from repro.profiling.csv_io import read_profile_csv, write_profile_csv
from repro.service import protocol
from repro.utils.errors import (
    BadRequestError,
    FaultInjectionError,
    UnknownMethodError,
)

VALID = {"workload": "rodinia/nw", "method": "periodic", "cap": 200}


def test_parse_request_catalog_happy_path():
    request = protocol.parse_request("predict", dict(VALID))
    assert request.kind == "predict"
    assert request.method == "periodic"
    assert request.workload == "rodinia/nw"
    assert request.cap == 200
    assert not request.inline
    assert request.method_request().key == "periodic"


def test_parse_request_defaults_to_sieve():
    request = protocol.parse_request("select", {"workload": "rodinia/nw"})
    assert request.method == "sieve"
    assert request.cap is None and request.config is None


@pytest.mark.parametrize(
    "payload, match",
    [
        ({}, "exactly one of"),
        ({"workload": "rodinia/nw", "profile_rows": []}, "exactly one of"),
        ({"workload": "rodinia/nw", "chaos": 1}, "unknown request field"),
        ({"workload": "nope/nope"}, "unknown workload"),
        ({"workload": "rodinia/nw", "cap": 0}, "positive integer"),
        ({"workload": "rodinia/nw", "cap": "many"}, "positive integer"),
        ({"workload": 7}, "string label"),
        ({"workload": "rodinia/nw", "method": ""}, "non-empty"),
        ({"workload": "rodinia/nw", "faults": 3}, "MODE:RATE"),
        ({"workload": "rodinia/nw", "cap": True}, "positive integer"),
        ({"workload": "cactus/lmc", "cap": 57}, "cactus/lmc has 58 kernels"),
        ({"workload": "rodinia/nw", "fault_seed": True}, "fault_seed"),
    ],
)
def test_parse_request_rejects_malformed(payload, match):
    with pytest.raises(BadRequestError, match=match):
        protocol.parse_request("select", payload)


def test_parse_request_rejects_unknown_kind_and_body():
    with pytest.raises(BadRequestError, match="unknown request kind"):
        protocol.parse_request("mutate", dict(VALID))
    with pytest.raises(BadRequestError, match="JSON object"):
        protocol.parse_request("select", [1, 2])


def test_parse_request_unknown_method_is_typed_and_400():
    with pytest.raises(UnknownMethodError) as info:
        protocol.parse_request("select", {"workload": "rodinia/nw", "method": "zzz"})
    assert protocol.status_for(info.value) == 400


def test_parse_request_bad_fault_plan_is_typed_and_400():
    with pytest.raises(FaultInjectionError) as info:
        protocol.parse_request(
            "select", {"workload": "rodinia/nw", "faults": "gremlins:1.0"}
        )
    assert protocol.status_for(info.value) == 400


def test_config_from_dict_builds_typed_configs():
    config = protocol.config_from_dict("sieve", {"theta": 0.7})
    assert isinstance(config, SieveConfig) and config.theta == 0.7
    assert protocol.config_from_dict("sieve", None) is None
    assert protocol.config_from_dict("sieve", {}) is None


def test_config_from_dict_recurses_into_nested_dataclasses():
    config = protocol.config_from_dict(
        "pks-two-level", {"pks": {"max_k": 5}}
    )
    assert isinstance(config.pks, PksConfig) and config.pks.max_k == 5


@pytest.mark.parametrize(
    "body", [{"kmeans_iterations": 0}, {"kmeans_fit_sample": 0}]
)
def test_config_from_dict_rejects_unusable_kmeans_settings(body):
    for method, payload in (("pks", body), ("pks-two-level", {"pks": body})):
        with pytest.raises(BadRequestError, match="kmeans_") as caught:
            protocol.config_from_dict(method, payload)
        assert caught.value.http_status == 400


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(BadRequestError, match="unknown config.*nope"):
        protocol.config_from_dict("sieve", {"nope": 1})
    with pytest.raises(BadRequestError, match="JSON object"):
        protocol.config_from_dict("sieve", 42)


def test_inline_rows_select_matches_direct_pipeline():
    rows = [
        {"kernel_name": f"k{i % 3}", "insn_count": 1000 + 37 * i}
        for i in range(60)
    ]
    request = protocol.parse_request(
        "select", {"method": "sieve", "profile_rows": rows}
    )
    assert request.inline
    served = protocol.select_inline(request)
    direct = SievePipeline(SieveConfig()).select(
        protocol.table_from_rows(rows, workload="inline")
    )
    assert pickle.dumps(served) == pickle.dumps(direct)


def test_inline_csv_select_matches_direct_pipeline(tmp_path):
    table = build_context("rodinia/nw", 150).sieve_table
    path = tmp_path / "profile.csv"
    write_profile_csv(table, path)
    text = path.read_text()
    request = protocol.parse_request(
        "select", {"method": "periodic", "profile_csv": text}
    )
    served = protocol.select_inline(request)
    direct = get_method("periodic").config_schema().select(read_profile_csv(path))
    assert pickle.dumps(served) == pickle.dumps(direct)


@pytest.mark.parametrize(
    "payload, match",
    [
        (
            {"method": "pks", "profile_rows": [{"kernel_name": "k", "insn_count": 1}]},
            "inline profiles support",
        ),
        (
            {"method": "sieve", "profile_rows": [{"kernel_name": "k"}]},
            "insn_count",
        ),
        ({"method": "sieve", "profile_rows": []}, "non-empty"),
        ({"method": "sieve", "profile_csv": "   "}, "non-empty"),
        (
            {
                "method": "sieve",
                "cap": 5,
                "profile_rows": [{"kernel_name": "k", "insn_count": 1}],
            },
            "cap applies to catalog",
        ),
        (
            {
                "method": "sieve",
                "faults": "crash:1.0",
                "profile_rows": [{"kernel_name": "k", "insn_count": 1}],
            },
            "faults apply to catalog",
        ),
    ],
)
def test_inline_requests_reject_unsupported_shapes(payload, match):
    with pytest.raises(BadRequestError, match=match):
        protocol.parse_request("select", payload)


def test_inline_predict_is_rejected():
    with pytest.raises(BadRequestError, match="golden reference"):
        protocol.parse_request(
            "predict",
            {"method": "sieve", "profile_rows": [{"kernel_name": "k", "insn_count": 1}]},
        )


def test_serialization_is_deterministic():
    context = build_context("rodinia/nw", 150)
    from repro.evaluation.runner import evaluate_method

    result = evaluate_method("periodic", context, None)
    first = protocol.result_to_dict(result)
    assert first == protocol.result_to_dict(result)
    assert protocol.canonical_json(first) == protocol.canonical_json(
        protocol.result_to_dict(result)
    )
    assert protocol.pickle_digest(result) == protocol.pickle_digest(result)
    selection = protocol.selection_to_dict(result.selection)
    assert selection["num_representatives"] == len(selection["representatives"])
    assert selection["workload"] == "rodinia/nw"


def test_error_payload_carries_structured_context():
    error = BadRequestError("bad knob", workload="rodinia/nw", cap=200)
    payload = protocol.error_payload(error)
    assert payload["type"] == "BadRequestError"
    assert payload["message"] == "bad knob"
    assert payload["context"] == {"cap": 200, "workload": "rodinia/nw"}
    assert protocol.status_for(RuntimeError("boom")) == 500


@pytest.mark.parametrize(
    "status, expected_type, expected_http",
    [
        ("crash", "TaskCrashError", 500),
        ("timeout", "TaskTimeoutError", 500),
        ("error", "EngineError", 500),
        ("quarantined", "QuarantinedTaskError", 503),
    ],
)
def test_outcome_error_mapping(status, expected_type, expected_http):
    outcome = TaskOutcome(
        label="rodinia/nw", status=status, attempts=2, error="boom"
    )
    payload = protocol.outcome_error_payload(outcome)
    assert payload["type"] == expected_type
    assert payload["context"]["attempts"] == 2
    assert protocol.outcome_status(outcome) == expected_http
