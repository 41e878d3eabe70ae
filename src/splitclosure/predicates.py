"""Structural property checks, each returning a replayable witness on failure.

Balanced and stable are only defined for reflexive graphs; calling those
checks on a non-reflexive graph raises ``NotReflexive`` rather than
returning False.  Witness selection is lexicographic in the graph's vertex
order so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .digraph import DiGraph, _low, bits
from .errors import NotReflexive


def missing_loop(graph: DiGraph) -> Optional[str]:
    """First vertex (in order) without a loop, or None."""
    return graph._missing_loop


def is_reflexive(graph: DiGraph) -> bool:
    return graph.is_reflexive()


def _require_reflexive(graph: DiGraph) -> None:
    v = missing_loop(graph)
    if v is not None:
        raise NotReflexive(v)


def _transitive_witness(rows: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """First index triple (x, y, z) of bit rows with xy, yz arrows and xz
    missing, or None.  The heads y are walked inline, not through ``bits``,
    since the bounded oracle scans every candidate it builds."""
    for x, rx in enumerate(rows):
        probe = rx
        while probe:
            y = (probe & -probe).bit_length() - 1
            if missing := rows[y] & ~rx:
                return x, y, _low(missing)
            probe &= probe - 1
    return None


def transitive_witness(graph: DiGraph) -> Optional[tuple[str, str, str]]:
    """First triple (x, y, z) with xy, yz present but xz missing."""
    found = _transitive_witness(graph._rows)
    return None if found is None else tuple(graph.vertices[i] for i in found)


def is_transitive(graph: DiGraph) -> bool:
    return transitive_witness(graph) is None


def is_preordered(graph: DiGraph) -> bool:
    return is_reflexive(graph) and is_transitive(graph)


def trans_triples(graph: DiGraph) -> frozenset[tuple[str, str, str]]:
    """All ordered triples (a, b, c), repeats allowed, with ab, bc, ac arrows."""
    rows = graph._rows
    labels = graph.vertices
    out = set()
    for a in range(len(labels)):
        ra = rows[a]
        for b in bits(ra):
            both = rows[b] & ra
            for c in bits(both):
                out.add((labels[a], labels[b], labels[c]))
    return frozenset(out)


def _balance_witness(rows: tuple[int, ...]) -> Optional[tuple[int, int, int, int]]:
    """First index quadruple (w, x, y, z) of reflexive bit rows with wx,
    xy, yz, wz arrows whose chords wy and xz disagree, or None."""
    # x = w or y = x cannot fail: both chords are then arrows of the
    # quadruple itself (xy and wz, or wx and yz)
    for w, rw in enumerate(rows):
        for x in bits(rw & ~(1 << w)):
            rx = rows[x]
            for y in bits(rx & ~(1 << x)):
                # z ranges over the heads of both yz and wz; the chord xz
                # must be present exactly when wy is
                zmask = rows[y] & rw
                bad = zmask & ~rx if (rw >> y) & 1 else zmask & rx
                if bad:
                    return w, x, y, _low(bad)
    return None


def _stability_witness(rows: tuple[int, ...]) -> Optional[tuple[int, int, int, int]]:
    """First distinct index quadruple (a, b, c, d) of reflexive bit rows
    with ab, ac, bc, bd, cd arrows and ad missing, or None."""
    for a, ra in enumerate(rows):
        abit = 1 << a
        for b in bits(ra & ~abit):
            rb = rows[b]
            cmask = ra & rb & ~abit & ~(1 << b)
            for c in bits(cmask):
                # d distinct from a, b, c with the chord a -> d missing;
                # d = a is already impossible since the loop aa is present
                if dmask := rb & rows[c] & ~abit & ~(1 << b) & ~(1 << c) & ~ra:
                    return a, b, c, _low(dmask)
    return None


def is_balanced(graph: DiGraph) -> tuple[bool, Optional[tuple[str, str, str, str]]]:
    """Whenever wx, xy, yz, wz are arrows, the chords wy and xz must be
    present or absent together.  Quantified over all vertex quadruples,
    repeats allowed; loops count as arrows.
    """
    _require_reflexive(graph)
    quad = _balance_witness(graph._rows)
    if quad is None:
        return True, None
    return False, tuple(graph.vertices[i] for i in quad)


class StableWitness(NamedTuple):
    kind: str  # "balance" or "stability"
    quad: tuple[str, str, str, str]


def is_stable(graph: DiGraph) -> tuple[bool, Optional[StableWitness]]:
    """Balanced, plus: distinct a, b, c, d with ab, ac, bc, bd, cd force ad."""
    ok, quad = is_balanced(graph)
    if not ok:
        return False, StableWitness("balance", quad)
    found = _stability_witness(graph._rows)
    if found is None:
        return True, None
    return False, StableWitness("stability", tuple(graph.vertices[i] for i in found))


def _stable_witness_at(graph: DiGraph, p: int) -> Optional[StableWitness]:
    """A balance or stability witness with vertex ``p`` in some slot, or None.

    Assumes a reflexive graph.  Each slot is enumerated outward from p's
    own row and column, so the cost depends on p's neighbourhood, not on
    the size of the graph.
    """
    rows = graph._rows
    cols = graph._cols
    rp, cp = rows[p], cols[p]

    def found(kind, *quad):
        return StableWitness(kind, tuple(graph.vertices[q] for q in quad))

    # balance: wx, xy, yz, wz arrows force the chords wy and xz to agree;
    # the innermost slot is one mask of the choices where they disagree
    for x in bits(rp):  # w = p
        rx = rows[x]
        for y in bits(rx):
            if bad := rows[y] & rp & (~rx if (rp >> y) & 1 else rx):
                return found("balance", p, x, y, _low(bad))
    for w in bits(cp):  # x = p
        rw = rows[w]
        for y in bits(rp):
            if bad := rows[y] & rw & (~rp if (rw >> y) & 1 else rp):
                return found("balance", w, p, y, _low(bad))
    for x in bits(cp):  # y = p
        rx, cx = rows[x], cols[x]
        for z in bits(rp):
            if bad := cx & cols[z] & (~cp if (rx >> z) & 1 else cp):
                return found("balance", _low(bad), x, p, z)
    for y in bits(cp):  # z = p
        cy = cols[y]
        for x in bits(cy):
            if bad := cols[x] & cp & (~cy if (cp >> x) & 1 else cy):
                return found("balance", _low(bad), x, y, p)

    # stability: distinct a, b, c, d with ab, ac, bc, bd, cd force ad; a
    # mask of "a's row missing" already excludes a and every vertex a
    # points at, which is how distinctness is kept below
    pbit = 1 << p
    for b in bits(rp & ~pbit):  # a = p
        for c in bits(rp & rows[b] & ~pbit & ~(1 << b)):
            if dmask := rows[b] & rows[c] & ~rp:
                return found("stability", p, b, c, _low(dmask))
    for a in bits(cp & ~pbit):  # b = p
        for c in bits(rows[a] & rp & ~(1 << a) & ~pbit):
            if dmask := rp & rows[c] & ~rows[a]:
                return found("stability", a, p, c, _low(dmask))
    for a in bits(cp & ~pbit):  # c = p
        for b in bits(rows[a] & cp & ~(1 << a) & ~pbit):
            if dmask := rows[b] & rp & ~rows[a]:
                return found("stability", a, b, p, _low(dmask))
    for b in bits(cp & ~pbit):  # d = p
        for c in bits(cp & rows[b] & ~(1 << b) & ~pbit):
            if amask := cols[b] & cols[c] & ~cp:
                return found("stability", _low(amask), b, c, p)
    return None


class LockWitness(NamedTuple):
    u: str
    v: str
    w: str
    y: str


class LockStatus(NamedTuple):
    kind: str  # "not-a-clasp", "unlocked", or "locked"
    witness: Optional[LockWitness]


@dataclass(frozen=True)
class ClaspRecord:
    """A clasp vertex with its least witness and lock status.

    ``witness`` is the pair (w, y): w points at the vertex, the vertex
    points at y, and the chord w -> y is missing.
    """

    vertex: str
    witness: tuple[str, str]
    locked: bool
    lock_witness: Optional[LockWitness] = None

    @property
    def status(self) -> str:
        return "locked" if self.locked else "unlocked"


def _clasp_witness(graph: DiGraph, i: int) -> Optional[tuple[str, str]]:
    rows = graph._rows
    ibit = 1 << i
    ins = graph._cols[i] & ~ibit
    outs = rows[i] & ~ibit
    if not ins or not outs:
        return None
    for w in bits(ins):
        if missing := outs & ~rows[w]:
            return graph.vertices[w], graph.vertices[_low(missing)]
    return None


def _lock_witness(graph: DiGraph, i: int) -> Optional[LockWitness]:
    """Least lock witness at vertex ``i`` of a reflexive graph, or None."""
    rows = graph._rows
    cols = graph._cols
    labels = graph.vertices
    ibit = 1 << i
    ins = cols[i] & ~ibit
    outs = rows[i] & ~ibit
    for u in bits(ins):
        heads = outs & rows[u]  # y or v candidates: (u, x, *) is a transitive triple
        for v in bits(heads):
            for w in bits(ins & cols[v]):
                if broken := heads & ~rows[w]:
                    return LockWitness(labels[u], labels[v], labels[w], labels[_low(broken)])
    return None


def locked_status(graph: DiGraph, x: str) -> LockStatus:
    """Classify ``x``: not a clasp, an unlocked clasp, or locked.

    Locked means there are u, v, w, y (all different from x, repeats among
    themselves allowed) with (u,x,y), (u,x,v), (w,x,v) all transitive
    triples while the arrow w -> y is missing.
    """
    _require_reflexive(graph)
    i = graph.index(x)
    if _clasp_witness(graph, i) is None:
        return LockStatus("not-a-clasp", None)
    witness = _lock_witness(graph, i)
    if witness is None:
        return LockStatus("unlocked", None)
    return LockStatus("locked", witness)


def clasps(graph: DiGraph) -> tuple[ClaspRecord, ...]:
    """Every clasp in vertex order, each with its least witness and status."""
    _require_reflexive(graph)
    records = []
    for i, v in enumerate(graph.vertices):
        witness = _clasp_witness(graph, i)
        if witness is None:
            continue
        lock = _lock_witness(graph, i)
        records.append(ClaspRecord(v, witness, lock is not None, lock))
    return tuple(records)


def clasp_vertices(graph: DiGraph) -> tuple[str, ...]:
    return tuple(r.vertex for r in clasps(graph))


def soloists(graph: DiGraph) -> tuple[str, ...]:
    """Vertices paired with no other vertex, in vertex order."""
    _require_reflexive(graph)
    out = []
    for i, v in enumerate(graph.vertices):
        partners = graph._rows[i] & graph._cols[i] & ~(1 << i)
        if not partners:
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class PropertyReport:
    """Aggregate verdicts for one graph.

    ``balanced``/``stable`` (and the clasp and soloist listings) are None
    when the graph is not reflexive, since those notions are undefined
    there.
    """

    reflexive: bool
    missing_loop: Optional[str]
    transitive: bool
    transitive_witness: Optional[tuple[str, str, str]]
    preordered: bool
    balanced: Optional[bool]
    balanced_witness: Optional[tuple[str, str, str, str]]
    stable: Optional[bool]
    stable_witness: Optional[StableWitness]
    clasps: Optional[tuple[ClaspRecord, ...]]
    soloists: Optional[tuple[str, ...]]

    def to_json(self) -> dict:
        clasp_list = None
        if self.clasps is not None:
            clasp_list = [
                {
                    "vertex": r.vertex,
                    "witness": list(r.witness),
                    "status": r.status,
                    "lock_witness": list(r.lock_witness) if r.lock_witness else None,
                }
                for r in self.clasps
            ]
        stable_witness = None
        if self.stable_witness is not None:
            stable_witness = {
                "kind": self.stable_witness.kind,
                "witness": list(self.stable_witness.quad),
            }
        return {
            "reflexive": self.reflexive,
            "missing_loop": self.missing_loop,
            "transitive": self.transitive,
            "transitive_witness": (
                list(self.transitive_witness) if self.transitive_witness else None
            ),
            "preordered": self.preordered,
            "balanced": self.balanced,
            "balanced_witness": (
                list(self.balanced_witness) if self.balanced_witness else None
            ),
            "stable": self.stable,
            "stable_witness": stable_witness,
            "clasps": clasp_list,
            "soloists": list(self.soloists) if self.soloists is not None else None,
        }


def property_report(graph: DiGraph) -> PropertyReport:
    """Evaluate every predicate with witnesses."""
    loopless = missing_loop(graph)
    reflexive = loopless is None
    t_witness = transitive_witness(graph)
    transitive = t_witness is None
    if reflexive:
        # is_stable scans balance first, so its witness also settles balance
        stable, s_witness = is_stable(graph)
        balanced = stable or s_witness.kind != "balance"
        b_witness = None if balanced else s_witness.quad
        clasp_records = clasps(graph)
        solo = soloists(graph)
    else:
        balanced = b_witness = stable = s_witness = None
        clasp_records = solo = None
    return PropertyReport(
        reflexive=reflexive,
        missing_loop=loopless,
        transitive=transitive,
        transitive_witness=t_witness,
        preordered=reflexive and transitive,
        balanced=balanced,
        balanced_witness=b_witness,
        stable=stable,
        stable_witness=s_witness,
        clasps=clasp_records,
        soloists=solo,
    )
