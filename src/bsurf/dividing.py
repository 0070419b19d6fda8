"""Dividing multicurves on triangle faces, in hexagon normal form.

A face is modelled as a hexagon: three edges, each carrying an ordered
list of slots (the intersections of the dividing set with the edge away
from the corner safety triangles), and three slot-free corner triangles.
A dividing set is a perfect non-crossing matching of the slots; closed
components are unrepresentable by construction.

Bypass surgery comes in the two shapes used downstream: the interior
square rewrite (three parallel strands, coloring rotated by a quarter
turn) and the boundary half-disk excision, which removes a
boundary-parallel arc and raises the edge twisting number by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .surface import RuleError

RULE_SET = "dividing_set_calculus"


@dataclass(frozen=True)
class FaceModel:
    face: str
    edge_slots: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    oriented_ccw: bool = True

    def __post_init__(self):
        if len(self.edge_slots) != 3:
            raise RuleError("hexagon-edges", "three edges required")
        slots = self.slots
        if len(set(slots)) == len(slots):
            return
        seen = set()
        for s in slots:                   # name the first repeated slot
            if s in seen:
                raise RuleError("slot-order", f"slot {s} declared twice on face {self.face}")
            seen.add(s)

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.edge_slots))

    @cached_property
    def _slot_index(self) -> dict[int, tuple[int, int, int]]:
        """slot -> (edge, offset on the edge, position in boundary_items())."""
        index = {}
        start = 0
        for e, edge in enumerate(self.edge_slots):
            for i, s in enumerate(edge):
                index[s] = (e, i, start + i)
            start += len(edge) + 1
        return index

    def locate(self, slot: int) -> tuple[int, int, int]:
        """The edge of a slot, its offset on that edge and its boundary position."""
        try:
            return self._slot_index[slot]
        except KeyError:
            raise KeyError(f"slot {slot} not on face {self.face}") from None

    def edge_of(self, slot: int) -> int:
        return self.locate(slot)[0]

    def boundary_items(self) -> tuple[tuple[str, int], ...]:
        """Cyclic order around the hexagon: slots of edge k, then corner k."""
        items: list[tuple[str, int]] = []
        for e in range(3):
            items.extend(("slot", s) for s in self.edge_slots[e])
            items.append(("corner", e))
        return tuple(items)


def _first_crossing(arcs, slots):
    """The first pair of crossing arcs in ``itertools.combinations`` order.

    Cut the cyclic order open at the first slot.  An arc whose ends sit at
    ranks i < j crosses some arc iff a slot strictly between them is matched
    outside [i, j]: one range-min and one range-max query over the partner
    ranks, answered by sparse tables in O(n log n) (Bender and Farach-Colton,
    LATIN 2000).  The first arc that crosses any arc can only cross later
    ones, so it and its first crossing partner are the first such pair.
    """
    rank = {s: i for i, s in enumerate(slots)}
    partner = [0] * len(slots)
    for a, b in arcs:
        partner[rank[a]], partner[rank[b]] = rank[b], rank[a]
    lows, highs, k = [partner], [partner], 1     # level t holds windows of 2**t
    while 2 * k <= len(partner):
        lo, hi = lows[-1], highs[-1]
        lows.append([x if x < y else y for x, y in zip(lo, lo[k:])])
        highs.append([x if x > y else y for x, y in zip(hi, hi[k:])])
        k *= 2
    for n, (a, b) in enumerate(arcs):
        i, j = sorted((rank[a], rank[b]))
        if j - i < 2:
            continue
        t = (j - i - 1).bit_length() - 1
        last = j - (1 << t)                  # the window [last, j - 1] ends at j - 1
        if (min(lows[t][i + 1], lows[t][last]) < i
                or max(highs[t][i + 1], highs[t][last]) > j):
            for c, d in arcs[n + 1:]:
                if (i < rank[c] < j) != (i < rank[d] < j):
                    return (a, b), (c, d)


@dataclass(frozen=True)
class DividingSet:
    face: FaceModel
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # The arcs are a perfect matching of the slots: each arc joins two
        # distinct slots, and together they use each slot exactly once.
        used = []
        for a in self.arcs:
            if len(a) != 2 or a[0] == a[1]:
                raise RuleError("slot-matching", f"malformed arc {a}")
            used.extend(a)
        slots = self.face.slots
        if sorted(used) != sorted(slots):
            raise RuleError("slot-matching",
                            f"face {self.face.face}: every slot must be used by exactly one arc")
        # A matching is planar iff its arcs nest like brackets along the
        # boundary.  Both slots of an arc map to the same stored tuple.
        arc_at = self._arc_index
        open_arcs = []
        for s in slots:
            arc = arc_at[s]
            if open_arcs and open_arcs[-1] is arc:
                open_arcs.pop()
            else:
                open_arcs.append(arc)
        if open_arcs:
            first, second = _first_crossing(self.arcs, slots)
            raise RuleError("non-planar dividing set",
                            f"non-planar dividing set: arcs {first} and {second} cross")

    @cached_property
    def _arc_index(self) -> dict[int, tuple[int, int]]:
        return {s: arc for arc in self.arcs for s in arc}

    def arc_of(self, slot: int) -> tuple[int, int]:
        try:
            return self._arc_index[slot]
        except KeyError:
            raise KeyError(f"slot {slot} is not matched") from None

    def normal_form(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(tuple(sorted(a)) for a in self.arcs))


# ---------------------------------------------------------------------------
# Twisting numbers


def tb_from_intersections(count: int) -> Fraction:
    """Twisting of a boundary curve from its dividing-set crossings: -count/2."""
    if count < 0:
        raise ValueError("intersection count must be nonnegative")
    return Fraction(-count, 2)


def tb_edge(d: DividingSet, edge: int) -> Fraction:
    return tb_from_intersections(len(d.face.edge_slots[edge]))


def tb_face(d: DividingSet) -> Fraction:
    return tb_from_intersections(len(d.face.slots))


class InvalidFaceCertificate(ValueError):
    """A face whose boundary twisting violates the tightness constraint."""


def tb_triangulation(faces: Sequence[DividingSet]) -> int:
    """Total twisting number: sum over faces of half the crossing count.

    Every face must satisfy tb(boundary) <= -1, i.e. carry at least one
    arc; the total is then at least the number of faces.
    """
    total = Fraction(0)
    for d in faces:
        t = tb_face(d)
        if t > -1:
            raise InvalidFaceCertificate(
                f"face {d.face.face}: tb(boundary) = {t} > -1")
        total += -t
    return int(total)


# ---------------------------------------------------------------------------
# Boundary-parallel arcs


@dataclass(frozen=True)
class BoundaryParallelArc:
    arc: tuple[int, int]
    edge: int
    usable: bool


def boundary_parallel_arcs(d: DividingSet) -> tuple[BoundaryParallelArc, ...]:
    """Arcs cutting an empty half-disk off a single edge.

    Both endpoints lie on one edge with no slot between them.  On a disk
    with a connected dividing set (a single arc) the half-disk cannot be
    used to build a bypass, so that case is flagged non-usable.
    """
    f = d.face
    out = []
    single = len(d.arcs) == 1
    for arc in d.arcs:
        ea, ia, _ = f.locate(arc[0])
        eb, ib, _ = f.locate(arc[1])
        if ea == eb and abs(ia - ib) == 1:
            out.append(BoundaryParallelArc(arc=arc, edge=ea, usable=not single))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bypass surgery


class Side(str, Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"


@dataclass(frozen=True)
class SquareSite:
    """Interior site: three parallel strands crossing a square.

    Each strand is given by the slot at its designated top end; the
    strand's arc supplies the bottom end.  Strand 2 must separate
    strand 1 from strand 3.
    """

    top_slots: tuple[int, int, int]

    def __post_init__(self):
        if len(self.top_slots) != 3:
            raise RuleError("square-site", "strands site needs three top slots")


@dataclass(frozen=True)
class HalfDiskSite:
    """Boundary site at a boundary-parallel arc (half-disk excision)."""

    arc: tuple[int, int]

    def __post_init__(self):
        if len(self.arc) != 2:
            raise RuleError("halfdisk-site", "halfdisk site needs the two slots of the arc")


def _site_strands(d: DividingSet, site: SquareSite):
    strands = []
    for t in site.top_slots:
        arc = d.arc_of(t)
        b = arc[1] if arc[0] == t else arc[0]
        strands.append((arc, t, b))
    arcs = [s[0] for s in strands]
    if len({tuple(sorted(a)) for a in arcs}) != 3:
        raise ValueError("site strands must be three pairwise distinct arcs")
    return strands


def _check_square(d: DividingSet, strands) -> None:
    index = d.face._slot_index        # slot -> (edge, offset, position)
    (a1, t1, b1), (a2, t2, b2), (a3, t3, b3) = strands
    # parallel pattern t1 t2 t3 b3 b2 b1 up to rotation, others interspersed
    ring = sorted([t1, t2, t3, b3, b2, b1], key=lambda s: index[s][2])
    start = ring.index(t1)
    rotated = ring[start:] + ring[:start]
    if rotated != [t1, t2, t3, b3, b2, b1]:
        raise ValueError("malformed square: strand ends are not in parallel position")
    # No other arc may separate consecutive strands.  The arcs do not cross,
    # so both ends of a strand lie on one side of any other arc, and its top
    # end tells which.  Reading "inside" between the arc's sorted positions
    # flips every side or none.  An arc separating strands 1 and 2 is named
    # before one separating only strands 2 and 3.
    strand_slots = {t1, b1, t2, b2, t3, b3}
    p1, p2, p3 = index[t1][2], index[t2][2], index[t3][2]
    crossing = None
    for other in d.arcs:
        if other[0] in strand_slots:
            continue
        lo, hi = index[other[0]][2], index[other[1]][2]
        if lo > hi:
            lo, hi = hi, lo
        i1, i2, i3 = lo < p1 < hi, lo < p2 < hi, lo < p3 < hi
        if i1 != i2:
            crossing = other
            break
        if crossing is None and i2 != i3:
            crossing = other
    if crossing is not None:
        raise ValueError(f"malformed square: arc {crossing} crosses the square region")


def bypass_surgery(d: DividingSet, site, side: Side = Side.POSITIVE) -> DividingSet:
    """Rewrite the dividing set by a bypass attachment.

    Interior squares follow the quarter-turn rule: with strands
    (t1,b1), (t2,b2), (t3,b3), attachment from the positive side
    reconnects them as (t1,t2), (b1,t3), (b2,b3); from the negative side
    as (b1,b2), (t1,b3), (t2,t3).  A half-disk site deletes its
    boundary-parallel arc together with its two slots.
    """
    if isinstance(site, HalfDiskSite):
        return _halfdisk_surgery(d, site)
    strands = _site_strands(d, site)
    _check_square(d, strands)
    (a1, t1, b1), (a2, t2, b2), (a3, t3, b3) = strands
    if side is Side.POSITIVE:
        new = [(t1, t2), (b1, t3), (b2, b3)]
    else:
        new = [(b1, b2), (t1, b3), (t2, t3)]
    # the strand arcs are the stored tuples of d._arc_index, found by identity
    arcs = [a for a in d.arcs if a is not a1 and a is not a2 and a is not a3]
    arcs.extend(new)
    return DividingSet(face=d.face, arcs=tuple(arcs))


def _halfdisk_surgery(d: DividingSet, site: HalfDiskSite) -> DividingSet:
    wanted = tuple(sorted(site.arc))
    usable = {tuple(sorted(b.arc)): b.usable for b in boundary_parallel_arcs(d)}
    if wanted not in usable:
        raise ValueError(f"arc {site.arc} is not a boundary-parallel half-disk site")
    if not usable[wanted]:
        raise ValueError(f"arc {site.arc} is the only arc on face {d.face.face}: "
                         "its half-disk is not a usable bypass site")
    gone = set(wanted)
    f = d.face
    new_face = FaceModel(
        face=f.face,
        edge_slots=tuple(tuple(s for s in edge if s not in gone) for edge in f.edge_slots),
        oriented_ccw=f.oriented_ccw)
    arcs = tuple(a for a in d.arcs if tuple(sorted(a)) != wanted)
    return DividingSet(face=new_face, arcs=arcs)


def rotated_site(d: DividingSet, site: SquareSite) -> SquareSite:
    """The same square read after a positive surgery, for the reverse move.

    Feeding the result to a negative surgery undoes the positive one.
    """
    strands = _site_strands(d, site)
    (_, t1, b1), (_, t2, b2), (_, t3, b3) = strands
    return SquareSite(top_slots=(t2, t3, b3))


# ---------------------------------------------------------------------------
# Pieces


class PieceKind(str, Enum):
    ORDINARY = "ordinary"
    EXTRAORDINARY = "extraordinary"


class PieceRole(str, Enum):
    STACK = "stack"               # member of one of the three quadrilateral stacks
    HALF_DISK = "half_disk"       # extremal half-disk (one chord, empty interval)
    CORNER = "corner"             # touches a safety triangle
    CENTRAL = "central"           # bounded by three or more chords
    HEXAGON = "hexagon"           # empty dividing set
    STRAY = "stray"               # ordinary but outside the maximal stacks


@dataclass(frozen=True)
class Piece:
    index: int
    kind: PieceKind
    role: PieceRole
    chords: tuple[tuple[int, int], ...]
    corner_intervals: tuple[tuple[int, ...], ...]
    edges: Optional[tuple[int, int]] = None   # edge pair for ordinary pieces


@dataclass(frozen=True)
class PieceReport:
    """The pieces of one face, kept as ``classify_pieces`` computes them.

    ``regions`` holds each region's (chords, corner runs) in the post-order
    of ``_region_split``, ``pairs`` the edge pair of each ordinary region
    and None for the others, and ``stack_ranges`` each edge pair's stack as
    a range of piece indices, in first-seen pair order.  The ``Piece``
    views ``pieces``, ``stacks`` and ``outside`` are built on first read,
    once per report, and stay out of ``==``, ``hash`` and ``repr``.
    """

    regions: tuple
    pairs: tuple
    stack_ranges: tuple               # ((edge pair, range of piece indices), ...)

    @property
    def total(self) -> int:
        return len(self.regions)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        best = dict(self.stack_ranges)
        pieces = []
        for i, ((chords, corners), pair) in enumerate(zip(self.regions, self.pairs)):
            if pair is not None:
                role = PieceRole.STACK if i in best[pair] else PieceRole.STRAY
                pieces.append(Piece(i, PieceKind.ORDINARY, role, chords, corners, pair))
                continue
            if not chords:
                role = PieceRole.HEXAGON
            elif any(corners):
                role = PieceRole.CORNER
            else:
                role = PieceRole.HALF_DISK if len(chords) == 1 else PieceRole.CENTRAL
            pieces.append(Piece(i, PieceKind.EXTRAORDINARY, role, chords, corners))
        return tuple(pieces)

    @cached_property
    def stacks(self) -> dict[tuple[int, int], tuple[Piece, ...]]:
        return {pair: self.pieces[r.start:r.stop] for pair, r in self.stack_ranges}

    @cached_property
    def outside(self) -> tuple[Piece, ...]:
        return tuple(p for p in self.pieces if p.role is not PieceRole.STACK)


def _region_split(d: DividingSet):
    """Cut the hexagon along the chords; non-crossing makes this a tree.

    Returns (chords, corner intervals) per region: the bounding chords
    and, between consecutive chords, the tuple of corner ids.

    One walk around the boundary keeps the open regions on a stack.  An
    arc opens the region inside it at its first slot and closes it at its
    second; corner 2, the last item, lies outside every arc.  A region
    lists its own arc, then the arcs it directly encloses in boundary
    order.  Regions are emitted as they close, so they come out in
    post-order, each directly after its last child.  The root comes last,
    with its last and first corner runs joined.
    """
    arc_at = d._arc_index
    out = []
    stack = []                        # the enclosing open regions: (chords, closed runs)
    chords, runs, run = [], [], ()    # the open region on top and its current run
    for e, slots in enumerate(d.face.edge_slots):
        for x in slots:
            runs.append(run)
            run = ()
            arc = arc_at[x]
            # the root's first chord closes before the root is on top again
            if chords and chords[0] is arc:
                out.append((tuple(chords), tuple(runs)))
                chords, runs = stack.pop()
            else:
                chords.append(arc)
                stack.append((chords, runs))
                chords, runs = [arc], []
        run += (e,)
    wrap = run + (runs.pop(0) if runs else ())
    out.append((tuple(chords), tuple(runs) + (wrap,)))
    return out


def classify_pieces(d: DividingSet) -> PieceReport:
    """Partition the hexagon complement and identify the three stacks.

    An ordinary piece is a quadrilateral between two chords joining the
    same pair of edges.  The root region holds corner 2, so it is never
    ordinary, and an ordinary region has exactly one child, which
    post-order emits just before it.  So ordinary pieces sharing a chord
    are consecutive, and a chain of them is a maximal run of indices,
    innermost first.  Per edge pair the longest run is the stack, the
    first on a tie; other ordinary pieces are stray.  O(n) in the arcs;
    no ``Piece`` is built until a view of the report is read.
    """
    edge = d.face._slot_index         # slot -> (edge, offset, position)
    regions = tuple(_region_split(d))
    pairs = []                        # edge pair of each ordinary piece, else None
    for chords, corners in regions:
        pair = None
        if len(chords) == 2 and not any(corners):
            # corner-free intervals lie inside single edges, so the region is
            # a quadrilateral iff both chords join the same pair of edges
            (a, b), (c, e) = chords
            ea, eb, ec, ee = edge[a][0], edge[b][0], edge[c][0], edge[e][0]
            if ea != eb and (ea == ec and eb == ee or ea == ee and eb == ec):
                pair = (ea, eb) if ea < eb else (eb, ea)
        pairs.append(pair)

    best: dict[tuple[int, int], range] = {}
    for pair, run in itertools.groupby(range(len(regions)), pairs.__getitem__):
        if pair is not None:
            run = list(run)
            if pair not in best or len(run) > len(best[pair]):
                best[pair] = range(run[0], run[-1] + 1)
    return PieceReport(regions=regions, pairs=tuple(pairs), stack_ranges=tuple(best.items()))


# ---------------------------------------------------------------------------
# Extremal components


def extremal_components(d: DividingSet):
    """Per edge-end, the arc using the slot nearest that extremity.

    In hexagon normal form an endpoint can only be pushed past another
    crossing, never created or destroyed, so the outermost crossing of
    each edge end is the extremal one.  At most six in total.
    """
    f = d.face
    per_end: dict[tuple[int, int], tuple[int, int]] = {}
    arcs: set[tuple[int, int]] = set()
    for e in range(3):
        slots = f.edge_slots[e]
        if not slots:
            continue
        for end, slot in ((0, slots[0]), (1, slots[-1])):
            arc = d.arc_of(slot)
            per_end[(e, end)] = arc
            arcs.add(tuple(sorted(arc)))
    return per_end, tuple(sorted(arcs))


def edge_parallel_extremal_report(d: DividingSet):
    """Check that every boundary-parallel component hugs an edge end.

    Interior boundary-parallel arcs are certificates that the
    configuration is not minimal; the report lists them.
    """
    f = d.face
    _, extremal = extremal_components(d)
    violations = []
    for bp in boundary_parallel_arcs(d):
        if tuple(sorted(bp.arc)) not in extremal:
            violations.append(bp.arc)
    return tuple(violations)
