"""The public surface of the package, pinned so that every addition or
removal is a deliberate edit here."""

from __future__ import annotations

import types

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
    "NotAClasp",
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
    "clasp_context",
    "clasp_vertices",
    "clasps",
    "compose",
    "construction_a",
    "construction_b",
    "contains_induced",
    "emit_digraph",
    "enumerate_reflexive",
    "expand_once",
    "expand_to_preorder",
    "graph_from_mask",
    "is_balanced",
    "is_isomorphic",
    "is_preordered",
    "is_reflexive",
    "is_stable",
    "is_star_acyclic",
    "is_transitive",
    "locked_status",
    "mask_from_graph",
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
