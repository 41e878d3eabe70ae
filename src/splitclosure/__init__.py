"""splitclosure: make a digraph transitive by adding vertices, not arrows.

The transitive closure forces new arrows; this package instead splits
vertices, producing a preordered graph that compresses back onto the
input through a verified vertex map.  It ships the predicate family that
governs when this works (balanced, stable, clasps and their lock status),
the expansion algorithm itself, and an exhaustive small-graph census that
re-derives the forbidden-subgraph characterizations and re-checks the
supporting theorems.
"""

from .census import (
    CheckResult,
    ObstructionSet,
    ValidationReport,
    contains_induced,
    enumerate_reflexive,
    graph_from_mask,
    minimal_obstructions,
    oracle_preorder_expansion,
    validate_theorems,
)
from .compression import (
    CompressionMap,
    CompressionVerdict,
    compose,
    parse_map_file,
    split_vertex,
    verify_compression,
)
from .digraph import (
    Arrow,
    DiGraph,
    canonical_form,
    emit_digraph,
    is_isomorphic,
    is_star_acyclic,
    parse_digraph,
)
from .errors import (
    BoundExceeded,
    ChainMismatch,
    DomainMismatch,
    DuplicateArrow,
    DuplicateVertex,
    GraphError,
    InternalInvariantBreached,
    InvalidSplit,
    LockedClasp,
    NotReflexive,
    NotStable,
    ParseError,
    PreconditionViolated,
    UnknownVertex,
)
from .expansion import (
    ClaspContext,
    ConstructionChoice,
    ExpansionOutcome,
    IterationRecord,
    construction_a,
    construction_b,
    expand_to_preorder,
    select_construction,
)
from .predicates import (
    ClaspRecord,
    LockStatus,
    PropertyReport,
    StableWitness,
    clasps,
    is_balanced,
    is_preordered,
    is_stable,
    is_transitive,
    locked_status,
    missing_loop,
    property_report,
    soloists,
    trans_triples,
    transitive_witness,
)

__version__ = "0.1.0"
