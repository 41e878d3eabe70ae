"""The public surface of the package, pinned so that every addition or
removal is a deliberate edit here: the package's names, and the public
methods and properties of the classes most prone to growing helpers that
only the tests call."""

from __future__ import annotations

import types

import pytest

import splitclosure

PUBLIC_NAMES = [
    "Arrow",
    "BoundExceeded",
    "ChainMismatch",
    "CheckResult",
    "ClaspContext",
    "ClaspRecord",
    "CompressionMap",
    "CompressionVerdict",
    "ConstructionChoice",
    "DiGraph",
    "DomainMismatch",
    "DuplicateArrow",
    "DuplicateVertex",
    "ExpansionOutcome",
    "GraphError",
    "InternalInvariantBreached",
    "InvalidSplit",
    "IterationRecord",
    "LockStatus",
    "LockedClasp",
    "NotReflexive",
    "NotStable",
    "ObstructionSet",
    "ParseError",
    "PreconditionViolated",
    "PropertyReport",
    "StableWitness",
    "UnknownVertex",
    "ValidationReport",
    "canonical_form",
    "clasps",
    "compose",
    "construction_a",
    "construction_b",
    "contains_induced",
    "emit_digraph",
    "enumerate_reflexive",
    "expand_to_preorder",
    "graph_from_mask",
    "is_balanced",
    "is_isomorphic",
    "is_preordered",
    "is_stable",
    "is_star_acyclic",
    "is_transitive",
    "locked_status",
    "minimal_obstructions",
    "missing_loop",
    "oracle_preorder_expansion",
    "parse_digraph",
    "parse_map_file",
    "property_report",
    "select_construction",
    "soloists",
    "split_vertex",
    "trans_triples",
    "transitive_witness",
    "validate_theorems",
    "verify_compression",
]


def test_public_names_are_pinned():
    # submodules become attributes once imported anywhere, so they are skipped
    names = sorted(
        name
        for name, value in vars(splitclosure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


PUBLIC_MEMBERS = {
    "DiGraph": [
        "arrow_count",
        "arrows",
        "has_arrow",
        "in_neighbors",
        "index",
        "induced",
        "is_reflexive",
        "out_neighbors",
        "sorted_arrows",
        "star",
        "transitive_closure",
    ],
    "CompressionMap": ["to_json"],
    "IterationRecord": ["added", "apply", "removed", "to_json"],
}


@pytest.mark.parametrize("cls", sorted(PUBLIC_MEMBERS))
def test_public_members_are_pinned(cls):
    # dataclass fields without defaults are not class attributes, so this
    # lists the methods and properties only
    members = sorted(n for n in dir(getattr(splitclosure, cls)) if not n.startswith("_"))
    assert members == PUBLIC_MEMBERS[cls]
