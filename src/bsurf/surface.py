"""Branched surfaces, switch systems and carried surfaces.

A branched surface is stored combinatorially: sectors (the regular
strata, each a compact surface-with-corners whose Euler characteristic
and orientability are declared), branch arcs (the smooth pieces of the
singular locus, each with a single-sheet side and two merging sheets)
and triple points (transverse crossings of two branch arcs).

Weights are nonnegative integers per sector subject to the switch
equation at every branch arc: the single-sheet side carries the sum of
the two merging stacks.  A weight vector determines a carried surface:
``w[i]`` parallel copies of sector ``i``, glued stack-to-stack along
branch arcs.  ``carried_surface`` reads its components, Euler
characteristics and orientability off two passes over the arcs, one for
the corners and one for the faces, with union-finds on integer corner
and face ids, without building the cells.  Each arc glues two runs of
sheet copies, the upper and the lower stack against the merged one, so
a pass steps through ranges of ids and fixes a run's flip and corner
offsets once, not once per copy, and the face pass glues a run that
another arc repeats only once.  The components come back as maximal
runs of consecutive components of one type, so a surface of many alike
components, such as the parallel tori of a large weight, costs one
tuple per run rather than one object per component.
``carried_adjacency_graph`` cuts each sector's copies at the
same runs: between two cuts every copy has the same neighbour columns,
slices of the name lists, so the export's lines are joined from slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Optional, Sequence

RULE_SET = "branched_surface_core"


class Side(str, Enum):
    """Which side of a branch arc a sector boundary edge occupies."""

    MERGED = "merged"   # single-sheet side (positive side of the branch direction)
    UPPER = "upper"     # first merging sheet
    LOWER = "lower"     # second merging sheet


CLOSED = "closed"


@dataclass(frozen=True)
class CycleRef:
    """One boundary edge of a sector, lying along a branch arc.

    ``along`` is +1 if the boundary cycle traverses the arc from
    endpoint 0 to endpoint 1, -1 otherwise (irrelevant for closed arcs).
    """

    arc: int
    side: Side
    along: int = 1

    def __post_init__(self):
        if self.along not in (1, -1):
            raise RuleError("cycle-along", "along must be +1 or -1")


@dataclass(frozen=True)
class Sector:
    index: int
    euler_char: int
    boundary_cycles: tuple[tuple[CycleRef, ...], ...] = ()
    orientable: bool = True
    name: str = ""


@dataclass(frozen=True)
class BranchArc:
    """A smooth piece of the branch locus.

    ``merged_sector`` lies on the single-sheet side; ``upper_sector``
    and ``lower_sector`` are the two merging sheets (self-incidence is
    legal and kept per side).  ``endpoints`` is either ``CLOSED`` for an
    embedded circle or a pair of triple-point ids; a loop based at one
    triple point repeats the id.  ``reversed_upper``/``reversed_lower``
    record whether the transverse co-orientation flips when the upper
    (resp. lower) stack continues into the merged stack.
    """

    index: int
    merged_sector: int
    upper_sector: int
    lower_sector: int
    endpoints: object = CLOSED
    reversed_upper: bool = False
    reversed_lower: bool = False

    @property
    def is_closed(self) -> bool:
        return self.endpoints == CLOSED

    def endpoint(self, end: int) -> int:
        if self.is_closed:
            raise ValueError(f"arc {self.index} is closed and has no endpoints")
        return self.endpoints[end]


@dataclass(frozen=True)
class TriplePoint:
    index: int
    arcs: tuple[int, int]


@dataclass(frozen=True)
class BranchedSurface:
    sectors: tuple[Sector, ...]
    branch_arcs: tuple[BranchArc, ...]
    triple_points: tuple[TriplePoint, ...] = ()
    name: str = ""


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    detail: str

    def __str__(self):
        return f"[{self.rule}] at {self.location}: {self.detail}"


class RuleError(ValueError):
    """A value that breaks a named rule of its layer.  ``str`` is the bare
    detail; ``violation`` carries the rule for a caller that locates it."""

    def __init__(self, rule: str, detail: str):
        super().__init__(detail)
        self.rule = rule

    @property
    def violation(self) -> Violation:
        return Violation(self.rule, "", str(self))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self):
        return self.ok


def validate(b: BranchedSurface) -> ValidationReport:
    """Check the structural invariants; failures are reported, not raised."""
    bad: list[Violation] = []
    nsec = len(b.sectors)
    arc_ids = {a.index for a in b.branch_arcs}
    tp_ids = {t.index for t in b.triple_points}

    for i, sec in enumerate(b.sectors):
        if sec.index != i:
            bad.append(Violation("sector-index", f"sector {sec.index}", f"expected index {i}"))
    ends: list = []                         # per arc: its endpoints, or None if closed
    arcs_at: dict = {}                      # triple point -> the arcs that end there
    for i, arc in enumerate(b.branch_arcs):
        if arc.index != i:
            bad.append(Violation("arc-index", f"arc {arc.index}", f"expected index {i}"))
        for role, s in (("merged", arc.merged_sector), ("upper", arc.upper_sector),
                        ("lower", arc.lower_sector)):
            if not 0 <= s < nsec:
                bad.append(Violation("dangling sector reference", f"arc {arc.index}",
                                     f"{role} sector {s} does not exist"))
        if arc.is_closed:
            ends.append(None)
            continue
        ends.append(arc.endpoints)
        points = arc.endpoints if isinstance(arc.endpoints, (tuple, list)) else ()
        if len(points) != 2:
            bad.append(Violation("arc-endpoints", f"arc {arc.index}",
                                 "endpoints must be 'closed' or a pair of triple points"))
        for t in points:
            if len(points) == 2 and t not in tp_ids:
                bad.append(Violation("dangling triple-point reference",
                                     f"arc {arc.index}", f"triple point {t} does not exist"))
            arcs_at.setdefault(t, set()).add(arc.index)
    for tp in b.triple_points:
        incident = arcs_at.get(tp.index, set())
        if set(tp.arcs) != incident or len(set(tp.arcs)) != 2:
            bad.append(Violation("triple-point-arcs", f"triple point {tp.index}",
                                 f"must be an endpoint of exactly two distinct arcs, got {sorted(incident)}"))

    # Slot coverage: each arc side is occupied by exactly one boundary edge,
    # and it belongs to the sector the arc declares for that side.
    users: dict = {}                        # (arc, side) -> the sectors whose cycles use it
    for sec in b.sectors:
        for ci, cycle in enumerate(sec.boundary_cycles):
            for ref in cycle:
                if ref.arc not in arc_ids:
                    bad.append(Violation("dangling arc reference",
                                         f"sector {sec.index} cycle {ci}",
                                         f"arc {ref.arc} does not exist"))
                users.setdefault((ref.arc, ref.side), []).append(sec.index)
    if not bad:
        for arc in b.branch_arcs:
            for side, owner in ((Side.MERGED, arc.merged_sector),
                                (Side.UPPER, arc.upper_sector),
                                (Side.LOWER, arc.lower_sector)):
                found = users.get((arc.index, side), [])
                if len(found) != 1:
                    bad.append(Violation("arc-side-coverage", f"arc {arc.index} {side.value}",
                                         f"expected exactly one boundary edge, got {len(found)}"))
                elif found[0] != owner:
                    bad.append(Violation("arc-side-owner", f"arc {arc.index} {side.value}",
                                         f"occupied by sector {found[0]}, declared {owner}"))
        # Corner consistency: consecutive edges of a cycle must meet at a
        # common triple point (closed arcs cannot share a cycle with others).
        for sec in b.sectors:
            for ci, cycle in enumerate(sec.boundary_cycles):
                at = [ends[ref.arc] for ref in cycle]
                if None in at:
                    if len(cycle) != 1:
                        bad.append(Violation("cycle-closed-arc", f"sector {sec.index} cycle {ci}",
                                             "a closed arc must form a whole boundary cycle"))
                    continue
                for pos, ref in enumerate(cycle):
                    nxt = (pos + 1) % len(cycle)
                    leave = at[pos][1 if ref.along == 1 else 0]
                    enter = at[nxt][0 if cycle[nxt].along == 1 else 1]
                    if leave != enter:
                        bad.append(Violation("corner-mismatch",
                                             f"sector {sec.index} cycle {ci} position {pos}",
                                             f"arc {ref.arc} ends at {leave}, "
                                             f"arc {cycle[nxt].arc} starts at {enter}"))

    return ValidationReport(ok=not bad, violations=tuple(bad))


# ---------------------------------------------------------------------------
# Switch system


def switch_system(b: BranchedSurface):
    """Integer relation matrix of the switch equations, one row per arc.

    Row for an arc merging sectors j, k into i reads x_i - x_j - x_k = 0;
    a self-incident merging sheet contributes coefficient 2.
    """
    from .hilbert import ConeSystem

    report = validate(b)
    if not report.ok:
        raise ValueError("switch_system requires a valid branched surface: "
                         + "; ".join(str(v) for v in report.violations))
    rows = []
    for arc in b.branch_arcs:
        row = [0] * len(b.sectors)
        row[arc.merged_sector] += 1
        row[arc.upper_sector] -= 1
        row[arc.lower_sector] -= 1
        rows.append(tuple(row))
    return ConeSystem(dimension=len(b.sectors), relations=tuple(rows))


def switch_violation(b: BranchedSurface, x: Sequence) -> Optional[BranchArc]:
    """First branch arc whose merged entry of x is not the sum of its two
    merging entries, or None when x meets every switch equation.

    x holds one number per sector: integer weights or Fraction angle offsets.
    """
    for arc in b.branch_arcs:
        if x[arc.merged_sector] != x[arc.upper_sector] + x[arc.lower_sector]:
            return arc
    return None


def weight_fault(b: BranchedSurface, weights: Sequence[int]) -> Optional[Violation]:
    """The first rule an integer weight vector breaks, or None: its length,
    then its first negative entry, then the switch equations."""
    if len(weights) != len(b.sectors):
        return Violation("weight-length", "",
                         f"length {len(weights)} != sector count {len(b.sectors)}")
    for i, x in enumerate(weights):
        if x < 0:
            return Violation("nonnegative-entries", "", f"entry {x} on sector {i} is negative")
    if switch_violation(b, weights) is not None:
        return Violation("switch-equations", "", "entries violate a switch equation")
    return None


def satisfies_switch(b: BranchedSurface, weights: Sequence[int]) -> bool:
    return weight_fault(b, weights) is None


def fully_carried(b: BranchedSurface, weights: Sequence[int]) -> bool:
    """True iff the carried surface meets every fiber: all weights positive."""
    if (v := weight_fault(b, weights)) is not None:
        raise ValueError(f"{RULE_SET} rule {v.rule}: {v.detail}")
    return all(w > 0 for w in weights)


# ---------------------------------------------------------------------------
# Carried surface assembly


class Classification(str, Enum):
    TORUS = "torus"
    KLEIN_BOTTLE = "klein_bottle"
    OTHER = "other"


@dataclass(frozen=True)
class Component:
    index: int
    euler_char: int
    orientable: bool
    classification: Classification


@dataclass(frozen=True)
class CarriedSurface:
    """The surface carried at ``weight``, component by component.

    ``runs`` holds one (count, euler_char, orientable, classification) per
    maximal run of consecutive components of that type, in the order of
    ``carried_surface``.  Maximal runs are canonical, so two surfaces are
    equal iff their numbered components are.
    """

    source: BranchedSurface
    weight: tuple[int, ...]
    runs: tuple[tuple[int, int, bool, Classification], ...]

    @property
    def components(self) -> tuple[Component, ...]:
        """The runs expanded, one ``Component`` per component, numbered from 0."""
        out: list[Component] = []
        for count, *kind in self.runs:
            out += [Component(i, *kind) for i in range(len(out), len(out) + count)]
        return tuple(out)

    @property
    def euler_char(self) -> int:
        return sum(count * chi for count, chi, _, _ in self.runs)

    @property
    def connected(self) -> bool:
        return len(self.runs) == 1 and self.runs[0][0] == 1


def classify(euler_char: int, orientable: bool) -> Classification:
    if euler_char == 0 and orientable:
        return Classification.TORUS
    if euler_char == 0 and not orientable:
        return Classification.KLEIN_BOTTLE
    return Classification.OTHER


def _runs(arc: BranchArc, weights: Sequence[int]):
    """The two runs of sheet copies glued along an arc, as
    (other sector, side, merged start, count, reversed).

    The merged stack is the upper stack followed by the lower stack,
    innermost at the single-sheet side: merged copy ``start + j`` meets
    copy j of the other sector, or copy ``count - 1 - j`` where that
    continuation is reversed, which also flips the transverse
    co-orientation.
    """
    w_u = weights[arc.upper_sector]
    return ((arc.upper_sector, Side.UPPER, 0, w_u, arc.reversed_upper),
            (arc.lower_sector, Side.LOWER, w_u, weights[arc.lower_sector], arc.reversed_lower))


def _ids(base: int, count: int, step: int, rev: bool) -> range:
    """Ids ``base + step * c`` of copies c = 0 .. count - 1, last copy first if ``rev``."""
    if rev:
        return range(base + (count - 1) * step, base - step, -step)
    return range(base, base + count * step, step)


def _find(parent: list[int], parity: list[int], x: int) -> tuple[int, int]:
    """Root of x and the parity of x relative to it.

    ``parity[y]`` is the parity of y relative to ``parent[y]``.  The walk
    is iterative, and every node on the path is hung directly under the
    root with its parity updated, so a union ``parent[ry] = rx`` keeps
    the root choice and long chains cost no recursion.
    """
    path = []
    while parent[x] != x:
        path.append(x)
        x = parent[x]
    p = 0
    for y in reversed(path):
        p ^= parity[y]
        parity[y] = p
        parent[y] = x
    return x, p


def carried_surface(b: BranchedSurface, weights: Sequence[int]) -> CarriedSurface:
    """Assemble the surface carried at a weight vector.

    Face (sector s, copy c) is the integer ``off[s] + c``, so face ids
    sort like the (sector, copy) pairs.  Each boundary cycle of s that is
    not a closed arc gives every copy one corner between each two
    consecutive edges; corner j of face (s, c) is ``coff[s] + c *
    ncorner[s] + j``, so the edges of a cycle share corners with no union.

    Each arc glues two runs of sheet copies (``_runs``): a run pairs the
    range of merged face ids with the range of the other sector's face
    ids, ascending or, where the continuation is reversed, descending, so
    its flip and corner offsets are fixed once per run.

    Corners go first, in a pass of their own over the runs of the arcs
    with endpoints: the corners at both ends of each glued pair join in
    a union-find, and each merge that joins two classes is charged to
    the merged face, which is still its own root then.  The corner
    arrays are dropped before the face arrays are made.

    Faces then join in a union-find with parity: ``parity[f]`` is the
    co-orientation flip from f to ``parent[f]``, so a gluing whose flip
    disagrees with the parities of two faces already joined makes their
    component non-orientable, as a non-orientable sector does.  A run is
    keyed by (merged sector, other sector, merged start, count,
    reversed), and a run with a key already glued is skipped: it pairs
    the same faces with the same flip, and after the first gluing each
    such pair is in one component at relative parity equal to the flip,
    or that component is already non-orientable, so a repeat would link
    nothing, move no chi and set no flag.  Along theta's second circle
    both runs repeat, and so do the face runs of the second arc of the
    three-sheet model and of the wedges.  A root has parity 0, so a node
    that is a root or hangs directly under one is read off in place;
    ``_find`` walks the longer paths.

    chi is charged per face: chi of its sector plus its corners, minus
    one per arc with endpoints that the sector merges along (each merged
    copy is glued once there), minus one per corner merge.  A root holds
    the sum of its component's charges.  ``roots`` flags the faces not
    yet linked under another; components are numbered in root order, and
    one scan over the flagged roots cuts them into maximal runs of equal
    (chi, orientable).
    """
    weights = tuple(int(w) for w in weights)
    if (v := weight_fault(b, weights)) is not None:
        raise ValueError(f"{RULE_SET} rule {v.rule}: {v.detail}")
    if all(w == 0 for w in weights):
        raise ValueError("zero weight vector carries nothing")

    # (arc, side) -> corner of its face at arc endpoint 0 and at endpoint 1
    ends: dict[tuple[int, Side], tuple[int, int]] = {}
    segments = [0] * len(b.sectors)
    for arc in b.branch_arcs:
        segments[arc.merged_sector] += not arc.is_closed
    off, coff, ncorner = [], [], []
    chi: list[int] = []
    bad: list[bool] = []
    nc = 0
    for sec in b.sectors:
        n = 0
        for cycle in sec.boundary_cycles:
            if len(cycle) == 1 and b.branch_arcs[cycle[0].arc].is_closed:
                continue
            for pos, ref in enumerate(cycle):
                before, after = n + (pos - 1) % len(cycle), n + pos
                ends[ref.arc, ref.side] = (before, after) if ref.along == 1 else (after, before)
            n += len(cycle)
        w = weights[sec.index]
        off.append(len(chi))
        coff.append(nc)
        ncorner.append(n)
        nc += n * w
        chi += [sec.euler_char + n - segments[sec.index]] * w
        bad += [not sec.orientable] * w

    cparent, cparity = list(range(nc)), bytearray(nc)    # corners carry no flip
    for arc in b.branch_arcs:
        if arc.is_closed:
            continue
        m = arc.merged_sector
        cm0, cm1 = ends[arc.index, Side.MERGED]
        for o, side, start, count, flip in _runs(arc, weights):
            co0, co1 = ends[arc.index, side]
            xs = range(off[m] + start, off[m] + start + count)
            cxs = _ids(coff[m] + start * ncorner[m], count, ncorner[m], False)
            cys = _ids(coff[o], count, ncorner[o], flip)
            for x, cx, cy in zip(xs, cxs, cys):
                for ca, cb in ((cx + cm0, cy + co0), (cx + cm1, cy + co1)):
                    ra, rb = cparent[ca], cparent[cb]
                    if cparent[ra] != ra:
                        ra = _find(cparent, cparity, ca)[0]
                    if cparent[rb] != rb:
                        rb = _find(cparent, cparity, cb)[0]
                    if ra != rb:
                        cparent[rb] = ra
                        chi[x] -= 1
    del cparent, cparity

    nf = len(chi)
    parent, parity, roots = list(range(nf)), [0] * nf, bytearray(b"\1") * nf
    glued = set()
    for arc in b.branch_arcs:
        m = arc.merged_sector
        for o, _side, start, count, flip in _runs(arc, weights):
            if (key := (m, o, start, count, flip)) in glued:
                continue
            glued.add(key)
            xs = range(off[m] + start, off[m] + start + count)
            for x, y in zip(xs, _ids(off[o], count, 1, flip)):
                rx, px = parent[x], parity[x]
                if parent[rx] != rx:
                    rx, px = _find(parent, parity, x)
                ry, py = parent[y], parity[y]
                if parent[ry] != ry:
                    ry, py = _find(parent, parity, y)
                if rx != ry:
                    parent[ry] = rx
                    parity[ry] = px ^ py ^ flip
                    roots[ry] = 0
                    chi[rx] += chi[ry]
                    if bad[ry]:
                        bad[rx] = True
                elif px ^ py != flip:
                    bad[rx] = True

    runs = []
    count = last_chi = last_bad = None
    for f in compress(range(nf), roots):
        if chi[f] == last_chi and bad[f] == last_bad:
            count += 1
            continue
        if count:
            runs.append((count, last_chi, not last_bad, classify(last_chi, not last_bad)))
        count, last_chi, last_bad = 1, chi[f], bad[f]
    runs.append((count, last_chi, not last_bad, classify(last_chi, not last_bad)))
    return CarriedSurface(source=b, weight=weights, runs=tuple(runs))


def klein_double(b: BranchedSurface, w_klein: Sequence[int]) -> tuple[int, ...]:
    """Weight of the boundary torus of a tubular neighborhood: 2 * w.

    Rejects weights that do not carry a single Klein-bottle component.
    """
    w_klein = tuple(int(w) for w in w_klein)
    carried = carried_surface(b, w_klein)
    if not (carried.connected and carried.runs[0][3] is Classification.KLEIN_BOTTLE):
        raise ValueError("input weight does not carry a Klein bottle component")
    return tuple(2 * w for w in w_klein)


def adjacency_graph(b: BranchedSurface) -> list[tuple[str, list[str]]]:
    """Plain adjacency-list view of the branch locus (for exports).

    Each node lists each neighbour once: a sector's arcs in sorted order,
    an arc's merged, upper and lower sector and then its triple points in
    first-seen order.
    """
    out = []
    for sec in b.sectors:
        nbrs = sorted({f"arc{ref.arc}" for cycle in sec.boundary_cycles for ref in cycle})
        out.append((f"sector{sec.index}", nbrs))
    for arc in b.branch_arcs:
        nbrs = [f"sector{arc.merged_sector}", f"sector{arc.upper_sector}",
                f"sector{arc.lower_sector}"]
        if not arc.is_closed:
            nbrs += [f"tp{t}" for t in arc.endpoints]
        out.append((f"arc{arc.index}", list(dict.fromkeys(nbrs))))
    return out


def _merged_columns(taken: list[list[str]]) -> list[str]:
    """Distinct neighbour columns into one sector merged row by row, each
    row's distinct names in byte order: two columns by one comparison per
    row, three or more by a sort."""
    if len(taken) == 1:
        return taken[0]
    if len(taken) == 2:
        return [a if a == b else f"{a} {b}" if a < b else f"{b} {a}" for a, b in zip(*taken)]
    return [" ".join(sorted(set(row))) for row in zip(*taken)]


def carried_adjacency_graph(s: CarriedSurface) -> list[str]:
    """The sheet copies of a carried surface as graph lines ``s{i}c{c} nbr
    nbr ...``: one line per copy, its distinct neighbours in byte order,
    the lines in byte order.

    Along a run of ``_runs`` the neighbours of merged copies ``start ..
    start + count - 1`` are the other sector's names, reversed where the
    continuation is, and the other sector's neighbours are that slice of
    the merged names.  So each sector's copy range is cut at the run
    boundaries; inside an interval every copy has the same neighbour
    columns, which are list slices.  Names of distinct sectors differ
    before the copy number, so the columns go in the byte order of their
    target's prefix ``s{o}c``.  A column equal to one already taken for
    its target is dropped, and only distinct columns into one sector are
    merged copy by copy (``_merged_columns``).  A space sorts below every digit, so one sort of
    the whole lines puts them in the byte order of their node names.
    """
    weights = s.weight
    names = [[f"s{i}c{c}" for c in range(w)] for i, w in enumerate(weights)]
    # per sector: (first copy, end copy, target prefix, neighbour column)
    incident: list[list[tuple[int, int, str, list[str]]]] = [[] for _ in weights]
    for arc in s.source.branch_arcs:
        m = arc.merged_sector
        for o, _side, start, count, rev in _runs(arc, weights):
            here, there = names[o], names[m][start:start + count]
            if rev:
                here, there = here[::-1], there[::-1]
            incident[m].append((start, start + count, f"s{o}c", here))
            incident[o].append((0, count, f"s{m}c", there))
    lines: list[str] = []
    for own, runs in zip(names, incident):
        cuts = sorted({0, len(own), *(x for lo, hi, _, _ in runs for x in (lo, hi))})
        for lo, hi in zip(cuts, cuts[1:]):
            columns: dict[str, list[list[str]]] = {}
            for a, z, prefix, col in runs:
                if a <= lo and hi <= z:
                    taken = columns.setdefault(prefix, [])
                    col = col[lo - a:hi - a]
                    if col not in taken:
                        taken.append(col)
            cols = [_merged_columns(taken) for _, taken in sorted(columns.items())]
            lines += map(" ".join, zip(own[lo:hi], *cols))
    lines.sort()
    return lines
