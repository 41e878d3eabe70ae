"""The CLI's indented JSON writer equals ``json.dumps(indent=2)`` byte for byte.

``cli._dumps`` writes ``check --json``, the expansion trace and the
obstruction sets.  The payloads here have those shapes, with labels that
need escaping, plus arbitrary nestings of the node types the writer
handles itself and the ones it leaves to ``json.dumps``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitclosure import cli

# any code point, lone surrogates included, with the characters JSON
# must escape drawn often
labels = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7fé 𐏿\U0001f600/'),
        st.characters(exclude_categories=()),
    ),
    max_size=6,
)
maybe_label = st.one_of(st.none(), labels)
pair = st.lists(labels, min_size=2, max_size=2)


@st.composite
def trace_payloads(draw):
    iterations = []
    for index in range(1, draw(st.integers(0, 2)) + 1):
        record = {
            "index": index,
            "clasp": draw(labels),
            "construction": draw(st.sampled_from("AB")),
            "Y": draw(st.lists(labels, max_size=4)),
            "A": draw(st.lists(labels, max_size=4)),
        }
        if record["construction"] == "A":
            record["B"] = draw(st.lists(labels, max_size=4))
        else:
            record["T"] = draw(st.lists(pair, max_size=4))
            record["witness"] = {"a": draw(labels), "b": draw(labels), "y": draw(labels)}
        record["removed"] = draw(st.lists(pair, max_size=4))
        record["added"] = draw(st.lists(pair, max_size=4))
        record["new_vertex"] = draw(labels)
        iterations.append(record)
    return {
        "input": draw(labels),
        "iterations": iterations,
        "result": draw(labels),
        "map": draw(st.dictionaries(labels, labels, max_size=4)),
    }


clasp_entries = st.fixed_dictionaries(
    {
        "vertex": labels,
        "witness": pair,
        "status": st.sampled_from(["locked", "unlocked"]),
        "lock_witness": st.one_of(st.none(), st.lists(labels, min_size=4, max_size=4)),
    }
)
check_payloads = st.fixed_dictionaries(
    {
        "name": maybe_label,
        "reflexive": st.booleans(),
        "missing_loop": maybe_label,
        "transitive": st.booleans(),
        "transitive_witness": st.one_of(st.none(), st.lists(labels, min_size=3, max_size=3)),
        "preordered": st.booleans(),
        "balanced": st.one_of(st.none(), st.booleans()),
        "balanced_witness": st.one_of(st.none(), st.lists(labels, min_size=4, max_size=4)),
        "stable": st.one_of(st.none(), st.booleans()),
        "stable_witness": st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {"kind": labels, "witness": st.lists(labels, min_size=4, max_size=4)}
            ),
        ),
        "clasps": st.one_of(st.none(), st.lists(clasp_entries, max_size=4)),
        "soloists": st.one_of(st.none(), st.lists(labels, max_size=4)),
    }
)
obstruction_payloads = st.fixed_dictionaries(
    {"predicate": labels, "n_max": st.integers(1, 5), "classes": st.lists(labels, max_size=4)}
)
# every node type the writer encodes itself: empty and mixed containers,
# tuples, big and negative ints, bools and None
plain_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), labels),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(labels, inner, max_size=4),
    ),
    max_leaves=30,
)


@given(st.one_of(trace_payloads(), check_payloads, obstruction_payloads, plain_payloads))
@settings(max_examples=120, deadline=None)
def test_writer_matches_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "payload",
    [
        {"clasps": [{"vertex": "x", "weight": 0.5}]},  # a float
        {"map": {1: "x"}},  # a non-string key
        [["x", "y"], {None: True}],
    ],
)
def test_other_nodes_take_json_dumps_for_the_whole_payload(payload):
    with pytest.raises(TypeError):
        cli._indented(payload, "\n")
    assert cli._dumps(payload) == json.dumps(payload, indent=2)
