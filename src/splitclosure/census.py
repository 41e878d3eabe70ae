"""Exhaustive small-graph enumeration and desk-scale theorem validation.

The census enumerates reflexive digraphs up to isomorphism, mines minimal
forbidden induced subgraphs for the predicate family, decides "is a
compression of a preordered graph" exactly (a bounded brute-force search is
kept as its reference), and sweeps the whole universe re-checking every
theorem the rest of the package relies on.

Enumeration is by packed non-loop adjacency bit-strings (row-major, first
cell most significant), so lexicographic order on bit-strings is numeric
order on masks.  Each isomorphism class is emitted as its orbit's minimal
mask.  For n <= 5 whole orbits are marked eagerly: ``bytearray.find``
skips to the next unmarked mask, its orbit's minimum, whose permutation
images are marked through byte tables.  The sweeps find the stable classes
once per n on bit rows decoded from the masks, and build a ``DiGraph``
only for a class a later check looks at.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .compression import CompressionMap, split_vertex, verify_compression
from .digraph import (
    DiGraph, _canonical_packed, _heads_of, _packed_matrix, bits, emit_digraph, is_star_acyclic
)
from .errors import BoundExceeded, InvalidSplit
from .expansion import ExpansionOutcome, expand_to_preorder
from .predicates import (
    _balance_witness,
    _require_reflexive,
    _stability_witness,
    _transitive_witness,
    clasps,
    is_preordered,
    is_stable,
    soloists,
)

_LABELS = ("a", "b", "c", "d", "e", "f")


def _positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


@functools.lru_cache(maxsize=None)
def _row_decoder(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per vertex i: the shift of its (n-1)-cell field in a packed mask and
    a table from that field to the reflexive bit row of i."""
    decoder = []
    for i in range(n):
        heads = [j for j in reversed(range(n)) if j != i]  # last cell = low field bit
        table = tuple(
            sum((1 << j for k, j in enumerate(heads) if (field >> k) & 1), 1 << i)
            for field in range(1 << (n - 1))
        )
        decoder.append(((n - 1 - i) * (n - 1), table))
    return tuple(decoder)


def _mask_rows(n: int, mask: int) -> tuple[int, ...]:
    """Reflexive bit rows of a packed non-loop mask."""
    field = (1 << (n - 1)) - 1
    return tuple(table[(mask >> shift) & field] for shift, table in _row_decoder(n))


def graph_from_mask(n: int, mask: int, name: Optional[str] = None) -> DiGraph:
    """Reflexive graph on letter vertices from a packed non-loop mask."""
    return DiGraph._from_rows(_LABELS[:n], _mask_rows(n, mask), name)


@functools.lru_cache(maxsize=None)
def _perm_chunk_tables(n: int) -> tuple:
    """Per permutation, byte-indexed lookup tables applying the induced
    bit permutation to a packed mask 8 bits at a time."""
    pos = _positions(n)
    width = len(pos)
    pos_index = {pair: p for p, pair in enumerate(pos)}
    nchunks = (width + 7) // 8
    all_tables = []
    for perm in itertools.permutations(range(n)):
        single = [0] * width
        for p, (i, j) in enumerate(pos):
            q = pos_index[(perm[i], perm[j])]
            single[width - 1 - p] = 1 << (width - 1 - q)
        chunks = []
        for c in range(nchunks):
            table = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                bit = c * 8 + low.bit_length() - 1
                mapped = single[bit] if bit < width else 0
                table[byte] = table[byte ^ low] | mapped
            chunks.append(tuple(table))
        all_tables.append(tuple(chunks))
    return tuple(all_tables)


@functools.lru_cache(maxsize=None)
def canonical_masks(n: int) -> tuple[int, ...]:
    """Minimal mask of every isomorphism orbit, ascending (n <= 5)."""
    if not 1 <= n <= 5:
        raise BoundExceeded(f"class enumeration bound {n} outside 1..5")
    # masks have at most 20 bits: three byte tables, zero-padded for small n
    pad = (0,) * 256
    tables = [(chunks + (pad, pad, pad))[:3] for chunks in _perm_chunk_tables(n)]
    seen = bytearray(1 << (n * (n - 1)))
    out = []
    mask = 0
    while mask >= 0:
        out.append(mask)
        a, b, c = mask & 255, (mask >> 8) & 255, mask >> 16
        for t0, t1, t2 in tables:
            seen[t0[a] | t1[b] | t2[c]] = 1
        mask = seen.find(0, mask + 1)
    return tuple(out)


def _witness_kind(rows: tuple[int, ...]) -> Optional[str]:
    """The kind of the first stable witness of reflexive bit rows, or None."""
    heads = _heads_of(rows)
    if _balance_witness(rows, heads):
        return "balance"
    return "stability" if _stability_witness(rows, heads) else None


@functools.lru_cache(maxsize=None)
def _classes_by_witness(n: int) -> Mapping[Optional[str], tuple[int, ...]]:
    """Canonical masks on ``n`` vertices, ascending, grouped by the kind of
    their first stable witness; the group None holds the stable classes."""
    groups: dict[Optional[str], list[int]] = {None: [], "balance": [], "stability": []}
    for mask in canonical_masks(n):
        groups[_witness_kind(_mask_rows(n, mask))].append(mask)
    return MappingProxyType({kind: tuple(masks) for kind, masks in groups.items()})


def enumerate_reflexive(n: int) -> Iterator[DiGraph]:
    """One reflexive digraph per isomorphism class on ``n`` vertices
    (n <= 5), named ``c<n>-<mask>``, in ascending mask order."""
    masks = canonical_masks(n)
    return (graph_from_mask(n, mask, name=f"c{n}-{mask}") for mask in masks)


# -- minimal forbidden induced subgraphs ------------------------------------


def _kind(graph: DiGraph) -> Optional[str]:
    """How a reflexive graph falls short: "balance" or "stability" by its
    first stable witness, "locked" if it is stable with a locked clasp, and
    None if it is stable and all-unlocked."""
    if kind := _witness_kind(graph._rows):
        return kind
    return "locked" if any(r.locked for r in clasps(graph)) else None


# Per predicate: the kind of graph that fails it.
_FAILING_KIND = {
    "balanced": "balance",
    "stable-given-balanced": "stability",
    "unlocked-given-stable": "locked",
}


@dataclass(frozen=True)
class ObstructionSet:
    """Minimal forbidden induced subgraphs for one predicate, up to iso."""

    predicate: str
    n_max: int
    members: tuple[DiGraph, ...]

    def to_json(self) -> dict:
        return {
            "predicate": self.predicate,
            "n_max": self.n_max,
            "classes": [emit_digraph(g, "dg") for g in self.members],
        }


def contains_induced(graph: DiGraph, pattern: DiGraph) -> bool:
    """Does some induced subgraph of ``graph`` realize ``pattern``?"""
    k = len(pattern.vertices)
    if k > len(graph.vertices):
        return False
    key = _canonical_packed(k, _packed_matrix(pattern._rows, range(k)))[0]
    arrows = key.bit_count()  # isomorphic graphs have equal arrow counts
    rows = graph._rows
    for subset in itertools.combinations(range(len(graph.vertices)), k):
        packed = _packed_matrix(rows, subset)
        if packed.bit_count() == arrows and _canonical_packed(k, packed)[0] == key:
            return True
    return False


def minimal_obstructions(predicate: str, n_max: int) -> ObstructionSet:
    """Mine every minimal failing induced subgraph up to ``n_max`` vertices.

    A member fails the predicate while all of its proper induced
    subgraphs satisfy it; members are pairwise non-isomorphic canonical
    representatives ordered by vertex count, then mask.
    """
    try:
        kind = _FAILING_KIND[predicate]
    except KeyError:
        raise ValueError(f"unknown predicate {predicate!r}") from None
    if not 1 <= n_max <= 5:
        raise BoundExceeded(f"obstruction search bound {n_max} outside 1..5")
    members = []
    for n in range(1, n_max + 1):
        # a locked class is stable: its bit rows have no witness
        for mask in _classes_by_witness(n)[None if kind == "locked" else kind]:
            graph = graph_from_mask(n, mask)
            # A balance witness, a stability witness and a clasp with its
            # lock are arrow facts among their own vertices, so each survives
            # in every induced supergraph, and balanced and stable are
            # hereditary.  Failing one way is thus upward-closed: a smaller
            # failing subgraph lies inside some failing one-vertex deletion.
            if _kind(graph) == kind and all(
                _kind(graph.induced(rest)) != kind
                for rest in itertools.combinations(graph.vertices, n - 1)
            ):
                name = f"{predicate}-obstruction-{len(members) + 1}"
                members.append(DiGraph._from_rows(graph.vertices, graph._rows, name, graph._cols))
    return ObstructionSet(predicate, n_max, tuple(members))


# -- expansion oracles -------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_preorder_expansion(
    target: DiGraph, max_extra: int
) -> Optional[tuple[DiGraph, CompressionMap]]:
    """Brute-force search for a preordered expansion of ``target``.

    Candidates are parameterized exactly by the arrow-bijection condition:
    choose how many copies each target vertex gets (every vertex at least
    one, at most ``max_extra`` extras in total), then choose the single
    preimage pair of every non-loop target arrow; intra-fiber arrows are
    impossible, so nothing else varies.  The first candidate (in the fixed
    search order) that is preordered and verifies as a compression is
    returned; None means no expansion exists within the bound.
    """
    _require_reflexive(target)
    n = len(target.vertices)
    if max_extra < 0 or n + max_extra > 8:
        raise BoundExceeded(f"search size {n}+{max_extra} outside 1..8")
    target_arrows = target.sorted_arrows(include_loops=False)
    taken = set(target.vertices)

    for total in range(n, n + max_extra + 1):
        for sizes in _compositions(total, n):
            copies: dict[str, list[str]] = {}
            source_vertices: list[str] = []
            for v, k in zip(target.vertices, sizes):
                fiber = [v]
                for extra in range(2, k + 1):
                    label = f"{v}.{extra}"
                    while label in taken:
                        label += "."
                    fiber.append(label)
                copies[v] = fiber
                source_vertices.extend(fiber)
            assignment = {c: v for v, fiber in copies.items() for c in fiber}
            index = {name: i for i, name in enumerate(source_vertices)}
            loops = [1 << i for i in range(total)]
            option_lists = []
            for u, w in target_arrows:
                option_lists.append(
                    [
                        (index[cu], index[cw])
                        for cu in copies[u]
                        for cw in copies[w]
                    ]
                )
            for choice in itertools.product(*option_lists):
                rows = list(loops)
                for iu, iw in choice:
                    rows[iu] |= 1 << iw
                if _transitive_witness(rows) is not None:
                    continue
                candidate = DiGraph._from_rows(tuple(source_vertices), tuple(rows))
                cmap = CompressionMap(candidate, target, assignment)
                if verify_compression(cmap).valid:
                    return candidate, cmap
    return None


def _closure_expansion(target: DiGraph) -> CompressionMap | tuple[str, str, str]:
    """Decide exactly whether ``target`` is a compression of a preordered
    graph.  Returns the map of an expansion, or the first path (a, b, c)
    whose inequality (below) the closure breaks.

    An expansion gives each non-loop arrow ab one preimage, from a copy of a
    (the out-end of ab) to a copy of b (its in-end).  On a path a -> b -> c
    with a != b != c, lifting a transitive (a, b, c) forces in(ab) = out(bc),
    and for a != c also out(ab) = out(ac) and in(bc) = in(ac); without the
    arrow ac, transitivity of the source forbids in(ab) = out(bc).  Every
    expansion merges at least the closure of the equalities, so one exists
    iff that closure breaks no inequality, and then the closure, with one
    copy per class of ends and one of each vertex without ends, is one.
    """
    _require_reflexive(target)
    labels, rows, heads = target.vertices, target._rows, target._heads
    # arrow e, in vertex order, has its out-end at 2e and its in-end at 2e + 1
    arrow = {pair: e for e, pair in enumerate((a, b) for a, hs in enumerate(heads) for b in hs)}
    parent = list(range(2 * len(arrow)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    unequal = []
    for (a, b), ab in arrow.items():
        for c in heads[b]:
            bc = arrow[b, c]
            if not (rows[a] >> c) & 1:
                unequal.append((a, b, c, 2 * ab + 1, 2 * bc))
                continue
            parent[find(2 * ab + 1)] = find(2 * bc)
            if a != c:
                ac = arrow[a, c]
                parent[find(2 * ab)] = find(2 * ac)
                parent[find(2 * bc + 1)] = find(2 * ac + 1)
    for a, b, c, x, y in unequal:
        if find(x) == find(y):
            return labels[a], labels[b], labels[c]
    root = [find(x) for x in range(len(parent))]
    at = [v for pair in arrow for v in pair]  # the vertex of each end
    lone = set(range(len(labels))).difference(at)
    # one copy per (vertex, class root), keyed (v, -1) for a vertex without
    # ends; copy i is labelled v.i, which no other copy can repeat
    keys = sorted({(at[r], r) for r in root} | {(v, -1) for v in lone})
    copy = {r: i for i, (_, r) in enumerate(keys)}
    source_rows = [1 << i for i in range(len(keys))]
    for e in range(len(arrow)):
        source_rows[copy[root[2 * e]]] |= 1 << copy[root[2 * e + 1]]
    names = tuple(f"{labels[v]}.{i}" for i, (v, _) in enumerate(keys))
    source = DiGraph._from_rows(names, tuple(source_rows))
    return CompressionMap(source, target, {c: labels[v] for c, (v, _) in zip(names, keys)})


# -- theorem sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    instances: int
    counterexample: Optional[str] = None  # dg text of the offending graph
    detail: Optional[str] = None

    @property
    def status(self) -> str:
        """FAIL, else vacuous for a check that saw no instances, else pass."""
        if not self.passed:
            return "FAIL"
        return "pass" if self.instances else "vacuous"


@dataclass(frozen=True)
class ValidationReport:
    n_max: int
    classes_scanned: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "classes_scanned": list(self.classes_scanned),
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "status": c.status,
                    "instances": c.instances,
                    "counterexample": c.counterexample,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = [f"theorem validation up to n={self.n_max}"]
        lines.append(
            "iso classes scanned: "
            + ", ".join(str(c) for c in self.classes_scanned)
        )
        for c in self.checks:
            line = f"check {c.name}: {c.status} ({c.instances} instances)"
            if not c.passed and c.detail:
                line += f" -- {c.detail}"
            lines.append(line)
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


# Per pattern: where the soloist s sits in the transitive triple (p, q, r),
# what violation messages call the other two vertices, and the order of the
# biconditionals (0: on each d with r->d, 1: on each x with x->p), each with
# the name messages give its witness.  The other two vertices are distinct:
# in (a, s, a) the vertex a would pair with s.
_SOLOIST_PATTERNS = (
    ("1", 2, "ab", ((0, "c"), (1, "x"))),  # (a, b, s)
    ("2", 1, "ac", ((1, "x"), (0, "d"))),  # (a, s, c)
    ("3", 0, "bc", ((0, "d"), (1, "a"))),  # (s, b, c)
)


def _soloist_lemma_instances(graph: DiGraph) -> tuple[int, Optional[str]]:
    """Check the soloist lemma on every transitive triple (p, q, r) through a
    soloist: p and q agree on every d with r->d, and q and r agree on every
    x with x->p.  Returns (biconditionals checked, first violation)."""
    labels, rows, cols = graph.vertices, graph._rows, graph._cols
    solo = set(soloists(graph))
    checked = 0
    for s, label in enumerate(labels):
        if label not in solo:
            continue
        others = [v for v in range(len(labels)) if v != s]
        for pattern, at, names, order in _SOLOIST_PATTERNS:
            for u, w in itertools.permutations(others, 2):
                p, q, r = (u, w)[:at] + (s,) + (u, w)[at:]
                if not (rows[p] >> q) & (rows[q] >> r) & (rows[p] >> r) & 1:
                    continue
                # per biconditional: its witnesses, and where the two sides differ
                tests = ((rows[r], rows[p] ^ rows[q]), (cols[p], cols[q] ^ cols[r]))
                for tag, (k, name) in zip("ab", order):
                    scope, differ = tests[k]
                    bad = scope & differ
                    if bad:
                        low = bad & -bad
                        return checked + (scope & (low - 1)).bit_count() + 1, (
                            f"{pattern}({tag}) at s={label} {names[0]}={labels[u]} "
                            f"{names[1]}={labels[w]} {name}={labels[low.bit_length() - 1]}"
                        )
                    checked += scope.bit_count()
    return checked, None


def _transitive_inducing_holds(cmap: CompressionMap) -> bool:
    """No source path x -> y -> z without x -> z maps onto a transitive
    triple of the target."""
    t_rows, rows = cmap.target._rows, cmap.source._rows
    f = [cmap.target.index(cmap.assignment[v]) for v in cmap.source.vertices]
    for x, rx in enumerate(rows):
        tx = t_rows[f[x]]
        for y in bits(rx):
            if (tx >> f[y]) & 1:
                closing = t_rows[f[y]] & tx  # c with f(y) -> c and f(x) -> c
                for z in bits(rows[y] & ~rx):
                    if (closing >> f[z]) & 1:
                        return False
    return True


def _compression_theorem_holds(cmap: CompressionMap, memo: dict) -> Optional[str]:
    """Re-check the compression theorem on one map.  ``memo`` caches each graph's
    balanced, stable, preordered and locked-clasp verdicts across maps sharing graphs."""
    for graph in (cmap.source, cmap.target):
        if graph not in memo:
            kind = _kind(graph)
            stable = kind in (None, "locked")
            # the lock test below also reads an unstable target's clasps
            locked = kind == "locked" if stable else any(r.locked for r in clasps(graph))
            memo[graph] = (kind != "balance", stable, is_preordered(graph), locked)
    src, tgt = memo[cmap.source], memo[cmap.target]
    if tgt[0] and not src[0]:
        return "balanced not inherited"
    if tgt[1] and not src[1]:
        return "stable not inherited"
    if tgt[2] and not src[2]:
        return "preordered not inherited"
    if not _transitive_inducing_holds(cmap):
        return "transitive-inducing failed"
    if cmap.source.arrow_count(include_loops=False) != cmap.target.arrow_count(include_loops=False):
        return "non-loop arrow counts differ"
    if src[1] and src[3] != tgt[3]:
        return "locked-clasp existence not transferred"
    return None


def _replay_step_maps(outcome: ExpansionOutcome) -> list[CompressionMap]:
    maps = []
    graph = outcome.mapping.target
    for record in outcome.trace:
        expanded = record.apply(graph)
        assignment = {v: v for v in graph.vertices}
        assignment[record.new_vertex] = record.clasp
        maps.append(CompressionMap(expanded, graph, assignment))
        graph = expanded
    return maps


# A check's cases: (graph, instances seen, problem or None) per step.
_Cases = Iterable[tuple[DiGraph, int, Optional[str]]]


def _run_check(name: str, cases: _Cases) -> CheckResult:
    """Sum the instances of a check's cases up to its first problem, whose
    graph becomes the counterexample."""
    instances = 0
    for graph, seen, problem in cases:
        instances += seen
        if problem is not None:
            return CheckResult(name, False, instances, emit_digraph(graph), problem)
    return CheckResult(name, True, instances)


def _positive_cases(unlocked: list[DiGraph], outcomes: list) -> _Cases:
    """(a) Every stable all-unlocked class expands; each expansion that
    holds is left in ``outcomes`` for check (e)."""
    for graph in unlocked:
        try:
            outcome = expand_to_preorder(graph)
        except Exception as exc:  # any breach is a counterexample
            yield graph, 1, f"expansion raised: {exc}"
            return
        result = outcome.result
        arrows = graph.arrow_count(include_loops=False)
        problem = None
        if not is_preordered(result):
            problem = "result not preordered"
        elif not is_stable(result)[0]:
            problem = "result not stable"
        elif result.arrow_count(include_loops=False) != arrows:
            problem = "non-loop arrows not conserved"
        elif outcome.iterations > len(graph.vertices) + 2 * arrows:
            problem = "iteration cap exceeded"
        else:
            outcomes.append((graph, outcome))
        yield graph, 1, problem


def _negative_cases(locked: list[DiGraph]) -> _Cases:
    """(b) The exact decision finds no expansion, of any size, of a stable
    locked class (these start at five vertices)."""
    for graph in locked:
        found = isinstance(_closure_expansion(graph), CompressionMap)
        yield graph, 1, "exact decision found an expansion of a locked graph" if found else None


def _clasp_cases(stable: list[DiGraph]) -> _Cases:
    """(c) Every clasp of a stable graph is a soloist."""
    for graph in stable:
        ok = {r.vertex for r in clasps(graph)} <= set(soloists(graph))
        yield graph, 1, None if ok else "clasp that is not a soloist"


def _soloist_cases(stable: list[DiGraph]) -> _Cases:
    """(d) The soloist biconditionals, counted one by one."""
    for graph in stable:
        yield (graph, *_soloist_lemma_instances(graph))


def _all_splits(graph: DiGraph) -> Iterator[CompressionMap]:
    """The map of every valid split of every vertex back onto ``graph``."""
    def subsets(items: list[str]) -> list[tuple[str, ...]]:
        return [c for k in range(len(items) + 1) for c in itertools.combinations(items, k)]

    for vertex in graph.vertices:
        ins = subsets([u for u in graph.in_neighbors(vertex) if u != vertex])
        outs = subsets([u for u in graph.out_neighbors(vertex) if u != vertex])
        for moved_in, moved_out in itertools.product(ins, outs):
            try:
                yield split_vertex(graph, vertex, moved_in, moved_out, "t1")[1]
            except InvalidSplit:
                pass


def _compression_cases(outcomes: list, n_max: int) -> _Cases:
    """(e) The compression theorem and transitive-inducing on every step
    map and whole map of check (a)'s expansions, then on every valid split
    of every class up to three vertices."""
    for graph, outcome in outcomes:
        memo: dict[DiGraph, tuple[bool, bool, bool, bool]] = {}
        for cmap in _replay_step_maps(outcome) + [outcome.mapping]:
            yield graph, 1, _compression_theorem_holds(cmap, memo)
    for n in range(1, min(3, n_max) + 1):
        for mask in canonical_masks(n):
            graph = graph_from_mask(n, mask, name=f"c{n}-{mask}")
            memo = {}
            for cmap in _all_splits(graph):
                yield graph, 1, _compression_theorem_holds(cmap, memo)


def _corollary_cases(unlocked: list[DiGraph], locked: list[DiGraph], n_max: int) -> _Cases:
    """(f) A star-acyclic stable class contains none of the star-acyclic
    obstructions exactly when it is all-unlocked."""
    obstructions = [
        member
        for predicate, bound in (
            ("balanced", min(4, n_max)),
            ("stable-given-balanced", min(4, n_max)),
            ("unlocked-given-stable", min(5, n_max)),
        )
        for member in minimal_obstructions(predicate, bound).members
        if is_star_acyclic(member)
    ]
    for graph, expected in [(g, True) for g in unlocked] + [(g, False) for g in locked]:
        if is_star_acyclic(graph):
            free = not any(contains_induced(graph, h) for h in obstructions)
            problem = f"obstruction-free={free} but compression-of-preordered={expected}"
            yield graph, 1, None if free == expected else problem


def validate_theorems(n_max: int) -> ValidationReport:
    """Sweep the census and re-check every supported theorem.

    The negative direction of the main theorem is decided exactly: the
    union-find over arrow ends proves that no expansion of any size exists.
    """
    if not 1 <= n_max <= 5:
        raise BoundExceeded(f"validation bound {n_max} outside 1..5")
    counts = [len(canonical_masks(n)) for n in range(1, n_max + 1)]
    stable = [
        graph_from_mask(n, mask, name=f"c{n}-{mask}")
        for n in range(1, n_max + 1)
        for mask in _classes_by_witness(n)[None]
    ]
    # the stable classes have passed the balance and stability scans, so
    # only their clasps and locks are left to read
    locked, unlocked = [], []
    for graph in stable:
        (locked if any(r.locked for r in clasps(graph)) else unlocked).append(graph)
    outcomes: list[tuple[DiGraph, ExpansionOutcome]] = []
    checks = (  # in order: check (e) reads the outcomes check (a) leaves
        _run_check("main-theorem-positive", _positive_cases(unlocked, outcomes)),
        _run_check("main-theorem-negative-consistency", _negative_cases(locked)),
        _run_check("clasp-implies-soloist", _clasp_cases(stable)),
        _run_check("soloist-lemma", _soloist_cases(stable)),
        _run_check("compression-theorem", _compression_cases(outcomes, n_max)),
        _run_check("corollary-acyclic-star", _corollary_cases(unlocked, locked, n_max)),
    )
    return ValidationReport(n_max, tuple(counts), checks)
