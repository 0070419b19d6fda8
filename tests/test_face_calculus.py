"""The linear face calculus against slow, obviously correct oracles.

The oracles are quadratic and plainly correct: a recursive region split
that slices tuples, the pairwise crossing check, and lookups by linear
scan.  They share no index with the library code.
"""

import collections
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import cli, dividing, fixtures, io, prisms
from bsurf.dividing import (DividingSet, FaceModel, Piece, PieceKind, PieceReport, PieceRole,
                            boundary_parallel_arcs, classify_pieces, extremal_components)
from bsurf.prisms import (Prism, PrismConfiguration, PrismSelection, VerticalFace,
                          admissible, coverage_report)


# ---------------------------------------------------------------------------
# oracles


def oracle_positions(f: FaceModel) -> dict:
    return {it[1]: i for i, it in enumerate(f.boundary_items()) if it[0] == "slot"}


def oracle_arc_of(d: DividingSet, slot):
    for arc in d.arcs:
        if slot in arc:
            return arc
    raise KeyError(f"slot {slot} is not matched")


def _between(a: int, b: int, x: int) -> bool:
    """x strictly between a and b going forward in the cyclic order."""
    if a < b:
        return a < x < b
    return x > a or x < b


def oracle_crossing_message(f: FaceModel, arcs):
    """The message DividingSet raises for these arcs, or None if it accepts."""
    used = []
    for a in arcs:
        if len(a) != 2 or a[0] == a[1]:
            return f"malformed arc {a}"
        used.extend(a)
    if sorted(used) != sorted(f.slots):
        return f"face {f.face}: every slot must be used by exactly one arc"
    pos = oracle_positions(f)
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        pa, pb = pos[a], pos[b]
        if _between(pa, pb, pos[c]) != _between(pa, pb, pos[d]):
            return f"non-planar dividing set: arcs {(a, b)} and {(c, d)} cross"
    return None


def oracle_region_split(d: DividingSet):
    f = d.face
    items = f.boundary_items()
    n = len(items)
    pos = oracle_positions(f)

    def split(circle: tuple, out: list):
        inner = None
        for i, el in enumerate(circle):
            if el[0] == "pos" and items[el[1]][0] == "slot":
                arc = oracle_arc_of(d, items[el[1]][1])
                q = pos[arc[0]] if pos[arc[1]] == el[1] else pos[arc[1]]
                j = circle.index(("pos", q))
                inner = (i, j, arc)
                break
        if inner is None:
            chords = tuple(el[1] for el in circle if el[0] == "chord")
            intervals = []
            if chords:
                starts = [i for i, el in enumerate(circle) if el[0] == "chord"]
                rot = circle[starts[0] + 1:] + circle[:starts[0] + 1]
                run: list = []
                for el in rot:
                    if el[0] == "chord":
                        intervals.append(tuple(items[p][1] for (_, p) in run
                                               if items[p][0] == "corner"))
                        run = []
                    else:
                        run.append(el)
            else:
                intervals.append(tuple(items[el[1]][1] for el in circle
                                       if el[0] == "pos" and items[el[1]][0] == "corner"))
            out.append((chords, tuple(intervals)))
            return
        i, j, arc = inner
        lo, hi = min(i, j), max(i, j)
        split(circle[lo + 1:hi] + (("chord", arc),), out)
        split(circle[hi + 1:] + circle[:lo] + (("chord", arc),), out)

    out: list = []
    split(tuple(("pos", p) for p in range(n)), out)
    return out


# The region split and piece classification as they were before the
# bracket scan, kept as references.  The linked-list split is iterative,
# so it also serves faces nested too deep for the recursive oracle.


def linked_list_region_split(d: DividingSet):
    """Cut the hexagon along the chords; non-crossing makes this a tree.

    Returns (chords, corner intervals) per region: the bounding chords
    and, between consecutive attachments, the tuple of corner ids.
    Slots never appear inside a final region since each one anchors a
    chord.

    A region is a cyclic linked list of boundary positions read from its
    head.  It is cut at the first slot after the head and at that slot's
    partner, which become chords: the partner closes the inside (the run
    between the two) and the first slot closes the outside, each as the
    last node of its region.  The inside is finished before the outside.
    """
    f = d.face
    items = f.boundary_items()
    n = len(items)
    nxt = [(p + 1) % n for p in range(n)]
    partner: list = [None] * n        # the other end of a slot not yet cut
    chord: list = [None] * n          # the arc of a cut slot
    for a, b in d.arcs:
        pa, pb = f.locate(a)[2], f.locate(b)[2]
        partner[pa], partner[pb] = pb, pa

    out = []
    heads = [0]
    while heads:
        head = i = heads.pop()
        while partner[i] is None and nxt[i] != head:
            i = nxt[i]
        if partner[i] is not None:
            j = partner[i]
            inside, outside = nxt[i], nxt[j]
            nxt[j], nxt[i] = inside, outside
            chord[i] = chord[j] = d.arc_of(items[i][1])
            partner[i] = partner[j] = None
            heads += (outside, inside)
            continue
        region = [head]
        while nxt[region[-1]] != head:
            region.append(nxt[region[-1]])
        cuts = [k for k, x in enumerate(region) if chord[x] is not None]
        if not cuts:
            out.append(((), (tuple(items[x][1] for x in region),)))
            continue
        intervals, run = [], []
        for x in region[cuts[0] + 1:] + region[:cuts[0] + 1]:
            if chord[x] is None:
                run.append(items[x][1])
            else:
                intervals.append(tuple(run))
                run = []
        out.append((tuple(chord[region[k]] for k in cuts), tuple(intervals)))
    return out


def reference_classify_pieces(d: DividingSet, split=oracle_region_split):
    """Partition the hexagon complement and identify the three stacks.

    Returns what a report's views must read: pieces, stacks and outside."""
    f = d.face
    raw = split(d)
    pieces: list[Piece] = []
    for idx, (chords, corners) in enumerate(raw):
        has_corner = any(iv for iv in corners)
        if len(chords) == 0:
            pieces.append(Piece(idx, PieceKind.EXTRAORDINARY, PieceRole.HEXAGON,
                                (), corners))
        elif len(chords) == 1:
            role = PieceRole.CORNER if has_corner else PieceRole.HALF_DISK
            pieces.append(Piece(idx, PieceKind.EXTRAORDINARY, role, chords, corners))
        elif len(chords) == 2 and not has_corner:
            # corner-free intervals lie inside single edges, so the region is
            # a quadrilateral iff both chords join the same pair of edges
            (a, b), (c, dd) = chords[0], chords[1]
            edges_1 = {f.edge_of(a), f.edge_of(b)}
            edges_2 = {f.edge_of(c), f.edge_of(dd)}
            if edges_1 == edges_2 and len(edges_1) == 2:
                ed = tuple(sorted(edges_1))
                pieces.append(Piece(idx, PieceKind.ORDINARY, PieceRole.STACK,
                                    chords, corners, edges=ed))
            else:
                pieces.append(Piece(idx, PieceKind.EXTRAORDINARY, PieceRole.CENTRAL,
                                    chords, corners))
        else:
            role = PieceRole.CORNER if has_corner else PieceRole.CENTRAL
            pieces.append(Piece(idx, PieceKind.EXTRAORDINARY, role, chords, corners))

    # maximal stacks per edge pair: longest chain of ordinary pieces; both
    # regions of a chord hold the same stored arc, so it keys the chain search
    by_chord: dict[tuple[int, int], list[Piece]] = {}
    ordinary = [p for p in pieces if p.kind is PieceKind.ORDINARY]
    for p in ordinary:
        for ch in p.chords:
            by_chord.setdefault(ch, []).append(p)
    chains: dict[int, list[Piece]] = {}
    seen: set[int] = set()
    for p in ordinary:
        if p.index in seen:
            continue
        chain = [p]
        seen.add(p.index)
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for ch in q.chords:
                for r in by_chord[ch]:
                    if r.index not in seen:
                        seen.add(r.index)
                        chain.append(r)
                        frontier.append(r)
        chains[p.index] = chain

    stacks: dict[tuple[int, int], tuple[Piece, ...]] = {}
    stray: set[int] = set()
    for chain in chains.values():
        pair = chain[0].edges
        if pair in stacks and len(stacks[pair]) >= len(chain):
            stray.update(p.index for p in chain)
        else:
            if pair in stacks:
                stray.update(p.index for p in stacks[pair])
            stacks[pair] = tuple(sorted(chain, key=lambda p: p.index))

    final = []
    for p in pieces:
        if p.kind is PieceKind.ORDINARY and p.index in stray:
            p = Piece(p.index, p.kind, PieceRole.STRAY, p.chords,
                      p.corner_intervals, p.edges)
        final.append(p)
    in_stack = {p.index for chain in stacks.values() for p in chain}
    outside = tuple(p for p in final if p.index not in in_stack)
    return tuple(final), stacks, outside


def oracle_random_noncrossing_face(rng: random.Random, max_arcs: int = 8,
                                   face: str = "R") -> DividingSet:
    """The draw random_noncrossing_face must reproduce, written recursively."""
    n_arcs = rng.randrange(1, max_arcs + 1)
    total = 2 * n_arcs
    cuts = sorted(rng.sample(range(total + 1), 2))
    sizes = [cuts[0], cuts[1] - cuts[0], total - cuts[1]]
    slot = 0
    edge_slots = []
    for size in sizes:
        edge_slots.append(tuple(range(slot, slot + size)))
        slot += size
    fm = FaceModel(face=face, edge_slots=tuple(edge_slots))

    def match(seq):
        if not seq:
            return []
        first = seq[0]
        k = rng.randrange(0, len(seq) // 2) * 2 + 1
        partner = seq[k]
        return [(first, partner)] + match(seq[1:k]) + match(seq[k + 1:])

    arcs = match(list(range(total)))
    return DividingSet(face=fm, arcs=tuple(tuple(a) for a in arcs))


def _separates(chord: tuple[int, int], x: int, y: int, pos) -> bool:
    inside_x = _between(pos[chord[0]], pos[chord[1]], pos[x])
    inside_y = _between(pos[chord[0]], pos[chord[1]], pos[y])
    return inside_x != inside_y


def reference_check_square(d: DividingSet, strands) -> None:
    """The square check with eight `_separates` per other arc."""
    pos = {s: d.face.locate(s)[2] for s in d.face.slots}
    (a1, t1, b1), (a2, t2, b2), (a3, t3, b3) = strands
    # parallel pattern t1 t2 t3 b3 b2 b1 up to rotation, others interspersed
    ring = sorted([t1, t2, t3, b3, b2, b1], key=lambda s: pos[s])
    start = ring.index(t1)
    rotated = ring[start:] + ring[:start]
    if rotated != [t1, t2, t3, b3, b2, b1]:
        raise ValueError("malformed square: strand ends are not in parallel position")
    # no other arc may separate consecutive strands
    strand_set = {tuple(sorted((t1, b1))), tuple(sorted((t2, b2))), tuple(sorted((t3, b3)))}
    for (x1, y1), (x2, y2) in (((t1, b1), (t2, b2)), ((t2, b2), (t3, b3))):
        for other in d.arcs:
            if tuple(sorted(other)) in strand_set:
                continue
            if (_separates(other, x1, x2, pos) or _separates(other, x1, y2, pos)
                    or _separates(other, y1, x2, pos) or _separates(other, y1, y2, pos)):
                raise ValueError(f"malformed square: arc {other} crosses the square region")


def positions_check_square(d: DividingSet, strands) -> None:
    """The square check as it read a fresh positions dict and sorted the two
    ends of every other arc."""
    pos = {s: d.face.locate(s)[2] for s in d.face.slots}
    (a1, t1, b1), (a2, t2, b2), (a3, t3, b3) = strands
    ring = sorted([t1, t2, t3, b3, b2, b1], key=lambda s: pos[s])
    start = ring.index(t1)
    rotated = ring[start:] + ring[:start]
    if rotated != [t1, t2, t3, b3, b2, b1]:
        raise ValueError("malformed square: strand ends are not in parallel position")
    strand_slots = {t1, b1, t2, b2, t3, b3}
    tops = [pos[t1], pos[t2], pos[t3]]
    crossing = None
    for other in d.arcs:
        if other[0] in strand_slots:
            continue
        lo, hi = sorted((pos[other[0]], pos[other[1]]))
        i1, i2, i3 = (lo < p < hi for p in tops)
        if i1 != i2:
            crossing = other
            break
        if crossing is None and i2 != i3:
            crossing = other
    if crossing is not None:
        raise ValueError(f"malformed square: arc {crossing} crosses the square region")


# ---------------------------------------------------------------------------
# random faces: shuffled slot labels, empty edges, arcs in any order and
# orientation


def _random_face(rng: random.Random, max_arcs: int):
    n = rng.randrange(0, max_arcs + 1)
    labels = rng.sample(range(10 * n + 10), 2 * n)
    cuts = sorted(rng.randrange(2 * n + 1) for _ in range(2))
    return FaceModel(face="X", edge_slots=(tuple(labels[:cuts[0]]),
                                           tuple(labels[cuts[0]:cuts[1]]),
                                           tuple(labels[cuts[1]:])))


def _noncrossing_arcs(rng: random.Random, order):
    arcs = []
    runs = [order]
    while runs:
        run = runs.pop()
        if not run:
            continue
        k = rng.randrange(len(run) // 2) * 2 + 1
        arcs.append((run[0], run[k]) if rng.random() < 0.5 else (run[k], run[0]))
        runs.extend((run[k + 1:], run[1:k]))
    rng.shuffle(arcs)
    return tuple(arcs)


def _any_arcs(rng: random.Random, order):
    slots = list(order)
    rng.shuffle(slots)
    return tuple((slots[i], slots[i + 1]) for i in range(0, len(slots), 2))


def _square_outcome(check, d: DividingSet, strands) -> str:
    try:
        check(d, strands)
    except ValueError as exc:
        return str(exc)
    return "ok"


def _square_sites(rng: random.Random, d: DividingSet):
    """Strands of three random distinct arcs, in every order and orientation."""
    for _ in range(3):
        for arcs in itertools.permutations(rng.sample(d.arcs, 3)):
            for turns in itertools.product((False, True), repeat=3):
                yield [(a, *(a[::-1] if turn else a)) for a, turn in zip(arcs, turns)]


def _same_report(got: PieceReport, want) -> bool:
    """The report's views equal the reference's, with the stacks in the same
    dict order."""
    pieces, stacks, outside = want
    return (got.pieces == pieces and got.stacks == stacks
            and list(got.stacks) == list(stacks) and got.outside == outside)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 14))
def test_classify_pieces_matches_recursive_oracle(rng, max_arcs):
    fm = _random_face(rng, max_arcs)
    d = DividingSet(face=fm, arcs=_noncrossing_arcs(rng, fm.slots))
    assert dividing._region_split(d) == oracle_region_split(d)
    rep = classify_pieces(d)
    assert _same_report(rep, reference_classify_pieces(d))
    assert rep.total == len(d.arcs) + 1


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 40))
def test_classify_pieces_matches_reference_on_random_faces(rng, max_arcs):
    d = fixtures.random_noncrossing_face(rng, max_arcs=max_arcs)
    assert _same_report(classify_pieces(d), reference_classify_pieces(d))


def _two_chains(inner: int, outer: int):
    """Two runs of parallel arcs between edges 0 and 1 around corner 0.

    Arc i of the inner run joins slots 300 + i and 400 + i, arc i of the
    outer run 100 + i and 200 + i, with arc 0 innermost.  A half-disk on
    edge 0 between the runs makes the region there central, so the runs
    are two chains of inner - 1 and outer - 1 pieces.  Returns the face
    and the innermost arc of each run.
    """
    a = list(range(100, 100 + outer))
    b = list(range(300, 300 + inner))
    fm = FaceModel(face="T", edge_slots=(tuple(a[::-1] + [0, 1] + b[::-1]),
                                         tuple(s + 100 for s in b + a), ()))
    d = DividingSet(face=fm, arcs=((0, 1),) + tuple((s, s + 100) for s in b + a))
    return d, (300, 400), (100, 200)


@pytest.mark.parametrize("inner, outer, winner", [(2, 3, "outer"), (3, 3, "inner"),
                                                  (4, 3, "inner")])
def test_stray_chain_and_the_first_longest_stack(inner, outer, winner):
    d, inner_arc, outer_arc = _two_chains(inner, outer)
    rep = classify_pieces(d)
    assert _same_report(rep, reference_classify_pieces(d))
    assert list(rep.stacks) == [(0, 1)]
    stack = rep.stacks[(0, 1)]
    # post-order puts the inner run first, so it wins a tie
    if winner == "inner":
        assert (len(stack), stack[0].chords[1]) == (inner - 1, inner_arc)
    else:
        assert (len(stack), stack[0].chords[1]) == (outer - 1, outer_arc)
    stray = [p for p in rep.pieces if p.role is PieceRole.STRAY]
    assert len(stray) == inner + outer - 2 - len(stack)
    assert [p for p in rep.pieces if p.role is not PieceRole.STACK] == list(rep.outside)


@pytest.mark.parametrize("d", [
    DividingSet(face=FaceModel(face="E", edge_slots=((), (), ())), arcs=()),
    fixtures.face_with_boundary_parallel(),
    fixtures.stack_face(3, 3, 3),
    fixtures.stack_face(48, 0, 7),
], ids=["empty", "boundary-parallel", "stacks-3-3-3", "stacks-48-0-7"])
def test_fixed_faces_match_the_reference(d):
    assert _same_report(classify_pieces(d), reference_classify_pieces(d))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 14), st.booleans())
def test_crossing_check_matches_pairwise_oracle(rng, max_arcs, planar):
    fm = _random_face(rng, max_arcs)
    arcs = (_noncrossing_arcs if planar else _any_arcs)(rng, fm.slots)
    want = oracle_crossing_message(fm, arcs)
    if planar:
        assert want is None
    if want is None:
        DividingSet(face=fm, arcs=arcs)
    else:
        with pytest.raises(ValueError) as exc:
            DividingSet(face=fm, arcs=arcs)
        assert str(exc.value) == want


def _rematched(rng: random.Random, arcs, k: int):
    """The arcs with the ends of k of them matched again at random."""
    arcs = list(arcs)
    picked = rng.sample(range(len(arcs)), min(k, len(arcs)))
    ends = [s for i in picked for s in arcs[i]]
    rng.shuffle(ends)
    for n, i in enumerate(picked):
        arcs[i] = (ends[2 * n], ends[2 * n + 1])
    return tuple(arcs)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 2000), st.integers(1, 4))
def test_crossing_pair_matches_pairwise_oracle_up_to_2000_arcs(rng, max_arcs, k):
    fm = _random_face(rng, max_arcs)
    arcs = _rematched(rng, _noncrossing_arcs(rng, fm.slots), k)
    want = oracle_crossing_message(fm, arcs)
    if want is None:
        DividingSet(face=fm, arcs=arcs)
    else:
        with pytest.raises(ValueError) as exc:
            DividingSet(face=fm, arcs=arcs)
        assert str(exc.value) == want


@pytest.mark.parametrize("n", [6, 600, 30_000])
def test_the_last_two_arcs_crossed_are_named(n):
    """Stacks whose last two arcs cross: the pair is the last in arc order,
    where the pairwise search is slowest."""
    d = fixtures.stack_face(n // 3, n // 3, n // 3)
    (a, b), (c, e) = d.arcs[-2:]
    arcs = d.arcs[:-2] + ((a, e), (c, b))
    with pytest.raises(ValueError) as exc:
        DividingSet(face=d.face, arcs=arcs)
    assert str(exc.value) == f"non-planar dividing set: arcs {(a, e)} and {(c, b)} cross"
    if n <= 600:
        assert str(exc.value) == oracle_crossing_message(d.face, arcs)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(3, 30))
def test_square_check_matches_the_pairwise_reference(rng, max_arcs):
    fm = _random_face(rng, max_arcs)
    d = DividingSet(face=fm, arcs=_noncrossing_arcs(rng, fm.slots))
    if len(d.arcs) < 3:
        return
    for strands in _square_sites(rng, d):
        assert (_square_outcome(dividing._check_square, d, strands)
                == _square_outcome(reference_check_square, d, strands))


def test_square_check_reference_draws_valid_and_crossing_squares():
    outcomes = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        d = fixtures.random_noncrossing_face(rng, max_arcs=12)
        if len(d.arcs) < 3:
            continue
        for strands in _square_sites(rng, d):
            got = _square_outcome(dividing._check_square, d, strands)
            assert got == _square_outcome(reference_check_square, d, strands)
            outcomes[got.split(": arc")[0]] += 1
    assert set(outcomes) == {"ok", "malformed square",
                             "malformed square: strand ends are not in parallel position"}
    assert min(outcomes.values()) >= 50


def test_square_check_names_the_arc_the_positions_check_named():
    outcomes = collections.Counter()
    for seed in range(120):
        rng = random.Random(seed)
        fm = _random_face(rng, 40)
        d = DividingSet(face=fm, arcs=_noncrossing_arcs(rng, fm.slots))
        if len(d.arcs) < 3:
            continue
        for strands in _square_sites(rng, d):
            got = _square_outcome(dividing._check_square, d, strands)
            assert got == _square_outcome(positions_check_square, d, strands)
            outcomes[got.split(": arc")[0]] += 1
    assert min(outcomes.values()) >= 50
    assert outcomes["malformed square"] > outcomes["ok"]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 14))
def test_slot_lookups_match_linear_scans(rng, max_arcs):
    fm = _random_face(rng, max_arcs)
    d = DividingSet(face=fm, arcs=_noncrossing_arcs(rng, fm.slots))
    assert {s: fm.locate(s)[2] for s in fm.slots} == oracle_positions(fm)
    for s in fm.slots:
        e = next(e for e, edge in enumerate(fm.edge_slots) if s in edge)
        assert fm.edge_of(s) == e
        assert fm.locate(s) == (e, fm.edge_slots[e].index(s), oracle_positions(fm)[s])
        assert d.arc_of(s) == oracle_arc_of(d, s)
    for slot in (-1, 10 ** 9):
        with pytest.raises(KeyError, match=f"slot {slot} not on face X"):
            fm.edge_of(slot)
        with pytest.raises(KeyError, match=f"slot {slot} is not matched"):
            d.arc_of(slot)
    want = []
    for arc in d.arcs:
        ea, eb = fm.edge_of(arc[0]), fm.edge_of(arc[1])
        slots = fm.edge_slots[ea]
        if ea == eb and abs(slots.index(arc[0]) - slots.index(arc[1])) == 1:
            want.append((arc, ea, len(d.arcs) > 1))
    assert [(b.arc, b.edge, b.usable) for b in boundary_parallel_arcs(d)] == want
    per_end, _ = extremal_components(d)
    for (e, end), arc in per_end.items():
        assert arc == oracle_arc_of(d, fm.edge_slots[e][-end])


def test_indexes_stay_out_of_equality_hash_and_repr():
    d = fixtures.stack_face(2, 2, 2)
    twin = fixtures.stack_face(2, 2, 2)
    before = (repr(d), hash(d))
    d.arc_of(0)
    d.face.edge_of(0)
    assert (repr(d), hash(d)) == before
    assert d == twin and hash(d) == hash(twin)


def test_equal_reports_hash_alike_and_views_stay_out_of_both():
    rep = classify_pieces(fixtures.stack_face(3, 3, 3))
    twin = classify_pieces(fixtures.stack_face(3, 3, 3))
    before = (repr(rep), hash(rep))
    assert rep.pieces and rep.stacks and rep.outside
    assert (repr(rep), hash(rep)) == before
    assert rep == twin and hash(rep) == hash(twin)
    assert {rep: "x"}[twin] == "x"
    assert rep != classify_pieces(fixtures.stack_face(3, 3, 2))


@pytest.mark.parametrize("n", [5000, 20000])
def test_nested_stack_past_the_recursion_limit(n):
    assert sys.getrecursionlimit() < n
    fm = FaceModel(face="P", edge_slots=(tuple(range(2 * n - 2, -1, -2)),
                                         tuple(range(1, 2 * n, 2)), ()))
    d = DividingSet(face=fm, arcs=tuple((2 * i, 2 * i + 1) for i in range(n)))
    assert dividing._region_split(d) == linked_list_region_split(d)
    rep = classify_pieces(d)
    assert _same_report(rep, reference_classify_pieces(d, split=linked_list_region_split))
    assert rep.total == n + 1


def test_random_noncrossing_face_draws_as_before():
    for seed in range(500):
        new = fixtures.random_noncrossing_face(random.Random(seed), max_arcs=40)
        old = oracle_random_noncrossing_face(random.Random(seed), max_arcs=40)
        assert new == old


def test_random_noncrossing_face_past_the_recursion_limit():
    rng = random.Random(11)
    sizes = [len(fixtures.random_noncrossing_face(rng, max_arcs=5000).arcs)
             for _ in range(5)]
    assert max(sizes) > sys.getrecursionlimit()


# ---------------------------------------------------------------------------
# one piece report per face per prism call


def _counting(monkeypatch):
    calls = []
    real = prisms.classify_pieces

    def counted(d):
        calls.append(d.face.face)
        return real(d)

    monkeypatch.setattr(prisms, "classify_pieces", counted)
    return calls


def _three_stack_config():
    (t1, t2), models = fixtures.two_tetrahedra(6)
    faces = {fid: fixtures.stack_face(3, 3, 3, face=fid) for fid in models}
    plist = {}
    for t in (t1, t2):
        vfs = []
        for fid in t.faces:
            for chain in classify_pieces(faces[fid]).stacks.values():
                chords = sorted({tuple(sorted(c)) for p in chain for c in p.chords})
                vfs.append(VerticalFace(face=fid, bottom=chords[0], top=chords[-1]))
        plist[t.index] = (Prism("corner:s1", tuple(vfs)),)
    sel = {tid: PrismSelection(frozenset({"s1"})) for tid in plist}
    return PrismConfiguration(selections=sel, prisms=plist), faces


def test_admissible_classifies_each_face_once(monkeypatch):
    cfg, faces = _three_stack_config()
    calls = _counting(monkeypatch)
    assert admissible(cfg, faces)
    referenced = {vf.face for _, p in cfg.all_prisms() for vf in p.vertical_faces}
    assert sorted(calls) == sorted(referenced)
    assert len(referenced) < sum(len(p.vertical_faces) for _, p in cfg.all_prisms())


def test_coverage_report_classifies_each_face_once(monkeypatch):
    cfg, faces = _three_stack_config()
    calls = _counting(monkeypatch)
    rep = coverage_report(cfg, faces, max_outside=100, min_pieces_per_face=1)
    assert sorted(calls) == sorted(faces)
    assert rep.within_bounds


def test_coverage_report_classifies_only_the_faces_vertical_faces_name(monkeypatch):
    cfg, faces = _three_stack_config()
    extra = fixtures.stack_face(4, 2, 1, face="Z")
    base = coverage_report(cfg, faces).outside_pieces
    calls = _counting(monkeypatch)
    rep = coverage_report(cfg, {**faces, "Z": extra})
    assert "Z" not in calls
    assert rep.outside_pieces == base + classify_pieces(extra).total


def test_validate_classifies_each_face_once_over_all_configurations(monkeypatch, tmp_path,
                                                                   capsys):
    full, faces = _three_stack_config()
    half = PrismConfiguration(selections={"G1": full.selections["G1"]},
                              prisms={"G1": full.prisms["G1"]})
    (t1, t2), _ = fixtures.two_tetrahedra(6)
    doc = io.ComplexDocument(faces={fid: d.face for fid, d in faces.items()},
                             dividing_sets=faces, tetrahedra={"G1": t1, "G2": t2},
                             prism_configs={"full": full, "half": half})
    path = tmp_path / "two_configurations.json"
    io.save(doc, path)
    assert prisms.admissible_each(doc.prism_configs, faces) == {
        "full": admissible(full, faces), "half": admissible(half, faces)}
    calls = _counting(monkeypatch)
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "prism configuration full: admissible", "prism configuration half: admissible"]
    named = {vf.face for _, p in full.all_prisms() for vf in p.vertical_faces}
    assert sorted(calls) == sorted(named)
    assert {vf.face for _, p in half.all_prisms() for vf in p.vertical_faces} < named


def test_hot_paths_build_no_piece(monkeypatch):
    cfg, faces = _three_stack_config()
    d = next(iter(faces.values()))

    class NoPiece:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a Piece was built")

    monkeypatch.setattr(dividing, "Piece", NoPiece)
    assert classify_pieces(d).total == len(d.arcs) + 1
    assert admissible(cfg, faces)
    assert coverage_report(cfg, faces, max_outside=100, min_pieces_per_face=1).within_bounds
    assert prisms.config_order(cfg, cfg, faces) == "equal"
    rep = classify_pieces(d)
    with pytest.raises(AssertionError, match="a Piece was built"):
        rep.pieces
    monkeypatch.undo()
    assert rep.pieces is rep.pieces


def test_coverage_report_names_a_missing_face():
    cfg, faces = _three_stack_config()
    first = next(vf.face for _, p in cfg.all_prisms() for vf in p.vertical_faces)
    del faces[first]
    with pytest.raises(KeyError) as err:
        coverage_report(cfg, faces)
    assert err.value.args == (first,)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 300))
def test_a_face_has_one_piece_per_arc_and_the_root(rng, max_arcs):
    # coverage_report counts the faces no vertical face names by this
    d = fixtures.random_noncrossing_face(rng, max_arcs=max_arcs)
    rep = classify_pieces(d)
    assert rep.total == len(d.arcs) + 1
    # admissible relies on this: a span of one stack holds only ordinary pieces
    assert all(p.kind is PieceKind.ORDINARY and p.role is PieceRole.STACK
               for chain in rep.stacks.values() for p in chain)


def test_vertical_face_holds_only_the_pieces_between_its_arcs():
    d = fixtures.stack_face(5, 0, 0, face="X")
    rep = classify_pieces(d)
    arcs = [tuple(sorted(oracle_arc_of(d, s))) for s in d.face.edge_slots[0][::-1]]
    assert arcs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    for lo, hi in ((1, 2), (0, 1), (1, 3), (0, 4), (2, 2)):
        for bottom, top in ((arcs[lo], arcs[hi]), (arcs[hi][::-1], arcs[lo])):
            between = prisms._stack_between(rep, bottom, top)
            assert between is not None
            pieces = [rep.pieces[i] for i in between]
            assert pieces == [p for p in rep.pieces if p.kind is PieceKind.ORDINARY
                              and arcs[lo] < tuple(sorted(p.chords[0])) <= arcs[hi]]
            assert len(pieces) == hi - lo
    cfg = PrismConfiguration(
        selections={"T": PrismSelection(frozenset({"s1"}))},
        prisms={"T": (Prism("corner:s1", (VerticalFace("X", arcs[1], arcs[2]),)),)})
    cov = coverage_report(cfg, {"X": d}, min_pieces_per_face=2)
    assert (rep.total, cov.outside_pieces, cov.thin_faces) == (6, 5, (("X", 1),))
