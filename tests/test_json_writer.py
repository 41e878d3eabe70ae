"""The package's indented JSON writers equal ``json.dumps(indent=2)`` byte for byte.

``cli._dumps`` writes ``check --json`` and the obstruction sets.  The
payloads here have those shapes and the trace's, with labels that need
escaping, plus arbitrary nestings of the node types the writer handles
itself and the ones it leaves to ``json.dumps``.  ``expansion._trace_text``
writes the expansion trace straight from the records; it must equal
``cli._dumps`` of ``ExpansionOutcome.to_json``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from splitclosure import DiGraph, cli, emit_digraph, enumerate_reflexive, expand_to_preorder
from splitclosure.expansion import _trace_text
from test_expansion_oracle import layered_dags, stable_and_unlocked

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


# -- the trace, written straight from the records ------------------------------


def trace_texts(graph: DiGraph) -> tuple[str, str]:
    """The trace text of the writer, and the dict tree's through ``_dumps``."""
    outcome = expand_to_preorder(graph)
    text = _trace_text(outcome, emit_digraph(outcome.result, "dg"))
    return text, cli._dumps(outcome.to_json()) + "\n"


# labels a graph accepts, built from characters JSON must escape or
# writes as \u escapes
vertex_labels = st.text(
    st.sampled_from('ab"\\/\x00\x7f\xe9\U000103ff\U0001f600'), min_size=1, max_size=3
)


def relabeled(graph: DiGraph, labels) -> DiGraph:
    new = dict(zip(graph.vertices, labels))
    return DiGraph([new[v] for v in graph.vertices], {(new[a], new[b]) for a, b in graph.arrows})


def test_trace_writer_on_the_empty_graph():
    text, expected = trace_texts(DiGraph((), ()))
    assert text == expected and '"iterations": []' in text and '"map": {}' in text


def test_trace_writer_on_an_input_already_preordered(split4):
    text, expected = trace_texts(split4)
    assert text == expected and '"iterations": []' in text


def test_trace_writer_on_labels_that_need_escaping(two_clasps):
    graph = relabeled(two_clasps, ['"', "\\", "\xe9", "a\\\"", "\U0001f600", "/\x00"])
    text, expected = trace_texts(graph)
    assert text == expected
    assert '"construction": "B"' in text and "\\ud83d\\ude00" in text


def test_trace_writer_on_every_stable_unlocked_class_up_to_five():
    unsplit, rules = 0, []
    for n in range(1, 6):
        for graph in enumerate_reflexive(n):
            if stable_and_unlocked(graph):
                text, expected = trace_texts(graph)
                assert text == expected
                iterations = json.loads(text)["iterations"]
                unsplit += not iterations
                rules += [record["construction"] for record in iterations]
    assert unsplit and set(rules) == {"A", "B"}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layered_dags(), st.data())
def test_trace_writer_on_relabeled_layered_dags(graph, data):
    assume(stable_and_unlocked(graph))
    n = len(graph.vertices)
    labels = data.draw(st.lists(vertex_labels, min_size=n, max_size=n, unique=True))
    text, expected = trace_texts(relabeled(graph, labels))
    assert text == expected
