"""Fuzz served method configs: every ``config`` parses or is a typed 400.

A request's ``config`` object is untrusted JSON. For every registered
method, hypothesis sends objects whose keys mix the schema's field names
with junk and whose values are any JSON (integers past 64 bits, floats
including the non-finite ones Python's decoder accepts, booleans, null,
strings, arrays, nested objects), and bare non-object values. Parsing
must return a request whose config can be hashed into a cache key, or
raise a ``SieveError`` that maps onto HTTP 400, never anything else; a
400 for unknown fields names one of the keys sent.

The default hypothesis profile keeps this to a few seconds; CI runs it
deeper with ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.methods import get_method, list_methods
from repro.service import protocol
from repro.utils.errors import SieveError
from repro.utils.hashing import stable_hash

METHODS = list_methods()

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**64 + 2),
    st.sampled_from([-(2**64), 10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=8),
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@st.composite
def served_configs(draw) -> tuple[str, object]:
    method = draw(st.sampled_from(METHODS))
    fields = [field.name for field in dataclasses.fields(get_method(method).config_schema)]
    keys = st.sampled_from(fields) | st.text(max_size=8)
    config = draw(st.dictionaries(keys, JSON, max_size=4) | JSON)
    return method, config


@given(served_configs())
def test_served_configs_parse_or_are_400s(case):
    method, config = case
    payload = {"workload": "cactus/gru", "method": method, "cap": 1000, "config": config}
    try:
        request = protocol.parse_request("select", payload)
    except SieveError as exc:
        assert protocol.status_for(exc) == 400
        if exc.message.startswith("unknown config"):
            assert exc.context["field"] in config  # names a key it was sent
        return
    schema = get_method(method).config_schema
    assert request.config is None or isinstance(request.config, schema)
    stable_hash(request.config)


@pytest.mark.parametrize("method", METHODS)
def test_default_configs_round_trip_through_json(method):
    default = get_method(method).config_schema()
    sent = json.loads(json.dumps(dataclasses.asdict(default)))
    assert protocol.config_from_dict(method, sent) == default
