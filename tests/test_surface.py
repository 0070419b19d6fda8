import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import fixtures
from bsurf.hilbert import minimal_generators
from bsurf.surface import (BranchArc, BranchedSurface, CarriedSurface, Classification,
                           Component, CycleRef, Sector, Side, TriplePoint, _find,
                           _sector_refs, adjacency_graph, carried_adjacency_graph,
                           carried_surface, classify, fully_carried, klein_double,
                           satisfies_switch, switch_system, switch_violation, validate)


def combine(basis, coeffs):
    d = len(basis[0])
    out = [0] * d
    for n, u in zip(coeffs, basis):
        for i in range(d):
            out[i] += n * u[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_torus_sector_passes():
    assert validate(fixtures.torus_surface()).ok


def test_validate_dangling_sector_reference():
    b = BranchedSurface(
        sectors=(Sector(0, 0, ((CycleRef(0, Side.MERGED),),)),),
        branch_arcs=(BranchArc(0, 0, 0, 5),))
    report = validate(b)
    assert not report.ok
    assert any(v.rule == "dangling sector reference" for v in report.violations)


def test_validate_names_an_arc_with_one_endpoint():
    # a document's endpoints load as "closed" or a pair, so only a
    # hand-built arc breaks this rule
    b = fixtures.theta_surface()
    arc = dataclasses.replace(b.branch_arcs[0], endpoints=(0,))
    b = dataclasses.replace(b, branch_arcs=(arc, b.branch_arcs[1]))
    assert [(v.rule, v.location, v.detail) for v in validate(b).violations] == [
        ("arc-endpoints", "arc 0", "endpoints must be 'closed' or a pair of triple points")]


def test_validate_three_sheet_model():
    b = fixtures.three_sheets_surface()
    assert len(b.sectors) == 3
    assert len(b.branch_arcs) == 2
    assert len(b.triple_points) == 1
    assert validate(b).ok


def test_validate_reports_uncovered_arc_side():
    # lower side of the arc is never claimed by any boundary cycle
    b = BranchedSurface(
        sectors=(Sector(0, 0, ((CycleRef(0, Side.UPPER),),)),
                 Sector(1, 0, ((CycleRef(0, Side.MERGED),),)),
                 Sector(2, 0, ())),
        branch_arcs=(BranchArc(0, 1, 0, 2),))
    report = validate(b)
    assert not report.ok
    assert any(v.rule == "arc-side-coverage" for v in report.violations)


def two_vertex_wedge(consistent: bool) -> BranchedSurface:
    """Two segment arcs running between two triple points."""
    along = -1 if consistent else 1
    s0 = Sector(0, 1, ((CycleRef(0, Side.MERGED), CycleRef(1, Side.MERGED, along)),))
    s1 = Sector(1, 1, ((CycleRef(0, Side.UPPER), CycleRef(1, Side.UPPER, along)),))
    s2 = Sector(2, 1, ((CycleRef(0, Side.LOWER), CycleRef(1, Side.LOWER, along)),))
    arcs = (BranchArc(0, 0, 1, 2, endpoints=(0, 1)),
            BranchArc(1, 0, 1, 2, endpoints=(0, 1)))
    tps = (TriplePoint(0, (0, 1)), TriplePoint(1, (0, 1)))
    return BranchedSurface((s0, s1, s2), arcs, tps)


def test_validate_corner_mismatch():
    assert validate(two_vertex_wedge(consistent=True)).ok
    report = validate(two_vertex_wedge(consistent=False))
    assert not report.ok
    assert any(v.rule == "corner-mismatch" for v in report.violations)


# ---------------------------------------------------------------------------
# switch_system


def test_switch_system_no_arcs_is_empty():
    system = switch_system(fixtures.torus_surface())
    assert system.dimension == 1
    assert system.relations == ()


def test_switch_system_single_merge_row():
    # sectors 0 and 1 merge into 2 along one closed arc
    b = BranchedSurface(
        sectors=(Sector(0, 0, ((CycleRef(0, Side.UPPER),),)),
                 Sector(1, 0, ((CycleRef(0, Side.LOWER),),)),
                 Sector(2, 0, ((CycleRef(0, Side.MERGED),),))),
        branch_arcs=(BranchArc(0, 2, 0, 1),))
    assert switch_system(b).relations == ((-1, -1, 1),)


def self_merge_surface():
    """Sector 0 merges with itself into sector 1: x1 = 2 x0."""
    return BranchedSurface(
        sectors=(Sector(0, 0, ((CycleRef(0, Side.UPPER),), (CycleRef(0, Side.LOWER),))),
                 Sector(1, 0, ((CycleRef(0, Side.MERGED),),))),
        branch_arcs=(BranchArc(0, 1, 0, 0),))


def test_switch_system_self_incidence_coefficient_two():
    assert switch_system(self_merge_surface()).relations == ((-2, 1),)


def test_switch_system_rejects_invalid_surface():
    b = BranchedSurface(
        sectors=(Sector(0, 0, ((CycleRef(0, Side.MERGED),),)),),
        branch_arcs=(BranchArc(0, 0, 0, 7),))
    with pytest.raises(ValueError):
        switch_system(b)


def test_self_merge_two_sheeted_cover():
    # minimal weight (1, 2): one annulus running twice over the merged stack
    b = self_merge_surface()
    gens = minimal_generators(switch_system(b))
    assert gens.basis == ((1, 2),)
    carried = carried_surface(b, (1, 2))
    assert carried.connected
    assert carried.euler_char == 0


# ---------------------------------------------------------------------------
# carried_surface


def test_carried_torus_parallel_copies():
    b = fixtures.torus_surface()
    for n in (1, 2, 5):
        carried = carried_surface(b, (n,))
        assert len(carried.components) == n
        assert all(c.classification is Classification.TORUS for c in carried.components)


def test_carried_higher_genus_copies():
    b = fixtures.torus_surface(genus=2)
    carried = carried_surface(b, (3,))
    assert len(carried.components) == 3
    assert all(c.euler_char == -2 for c in carried.components)
    assert all(c.classification is Classification.OTHER for c in carried.components)


def test_carried_three_sheets_minimal_weights():
    b = fixtures.three_sheets_surface()
    gens = minimal_generators(switch_system(b))
    assert gens.basis == ((1, 0, 1), (1, 1, 0))
    for u in gens.basis:
        carried = carried_surface(b, u)
        assert carried.connected
        # chi from the weighted cell structure equals the component sum
        assert carried.euler_char == sum(c.euler_char for c in carried.components)
        assert carried.components[0].euler_char == 2


def test_carried_theta_minimal_weights_are_tori():
    b = fixtures.theta_surface()
    for u in ((0, 1, 1), (1, 0, 1)):
        carried = carried_surface(b, u)
        assert carried.connected
        assert carried.components[0].classification is Classification.TORUS


def test_carried_twisted_theta_gives_klein_bottle():
    b = fixtures.theta_surface(twist=True)
    carried = carried_surface(b, (1, 0, 1))
    assert carried.connected
    assert carried.components[0].classification is Classification.KLEIN_BOTTLE


def test_carried_rejects_zero_and_inadmissible():
    b = fixtures.theta_surface()
    with pytest.raises(ValueError):
        carried_surface(b, (0, 0, 0))
    with pytest.raises(ValueError):
        carried_surface(b, (1, 1, 1))


def test_carried_deterministic():
    b = fixtures.theta_surface(twist=True)
    a = carried_surface(b, (2, 1, 3))
    c = carried_surface(b, (2, 1, 3))
    assert a == c


# ---------------------------------------------------------------------------
# fully_carried


def test_fully_carried_iff_min_positive():
    b = fixtures.theta_surface()
    assert fully_carried(b, (1, 1, 2))
    assert not fully_carried(b, (0, 1, 1))
    with pytest.raises(ValueError):
        fully_carried(b, (1, 1, 3))
    # meets the switch equation, but a negative entry leaves the cone
    assert switch_violation(b, (-1, 1, 0)) is None
    with pytest.raises(ValueError):
        fully_carried(b, (-1, 1, 0))


@given(st.integers(1, 6), st.integers(1, 6))
def test_fully_carried_doubled_weights(a, c):
    b = fixtures.theta_surface()
    w = combine(((0, 1, 1), (1, 0, 1)), (2 * a, 2 * c))
    assert all(x >= 2 for x in w)
    assert fully_carried(b, w)


# ---------------------------------------------------------------------------
# klein_double


def test_klein_double_doubles_and_orients():
    b = fixtures.theta_surface(twist=True)
    doubled = klein_double(b, (1, 0, 1))
    assert doubled == (2, 0, 2)
    assert satisfies_switch(b, doubled)
    carried = carried_surface(b, doubled)
    assert carried.connected
    assert carried.components[0].classification is Classification.TORUS


def test_klein_double_rejects_zero_and_non_klein():
    twisted = fixtures.theta_surface(twist=True)
    with pytest.raises(ValueError):
        klein_double(twisted, (0, 0, 0))
    with pytest.raises(ValueError):
        klein_double(fixtures.theta_surface(), (1, 0, 1))


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_linearity_closure(a, b_, c, d):
    surf = fixtures.theta_surface()
    basis = ((0, 1, 1), (1, 0, 1))
    u = combine(basis, (a, b_))
    v = combine(basis, (c, d))
    w = tuple(2 * x + 3 * y for x, y in zip(u, v))
    assert satisfies_switch(surf, w)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_switch_violation_agrees_with_switch_system(seed):
    rng = random.Random(seed)
    surf = fixtures.random_branched_surface(rng)
    system = switch_system(surf)
    for _ in range(20):
        x = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in surf.sectors]
        if rng.random() < 0.5:
            x = [int(2 * v) for v in x]
        first_bad = next((arc for arc, r in zip(surf.branch_arcs, system.residual(x)) if r),
                         None)
        assert switch_violation(surf, x) is first_bad


@settings(max_examples=60)
@given(st.data())
def test_chi_additivity_on_fixture_family(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    surf = fixtures.random_branched_surface(rng)
    gens = minimal_generators(switch_system(surf)).basis
    if not gens:
        return
    cu = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    cv = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    u, v = combine(gens, cu), combine(gens, cv)
    if not any(u) or not any(v):
        return
    s = tuple(x + y for x, y in zip(u, v))
    chi = lambda w: carried_surface(surf, w).euler_char
    assert chi(s) == chi(u) + chi(v)


# ---------------------------------------------------------------------------
# carried_surface against the two-pass reference

# The dict-keyed union-finds, sign BFS and vertex-root scan that
# carried_surface replaced, the per-copy stack walk, and the string-keyed
# carried_adjacency_graph, kept as oracles.


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        p = parent.setdefault(x, x)
        if p == x:
            return x
        q = parent[p]
        if q == p:                    # x hangs directly under its root
            return p
        path = [x]
        while q != p:
            path.append(p)
            p, q = q, parent[q]
        for y in path:
            parent[y] = p
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _stack_pairs(arc: BranchArc, w_u: int, w_l: int):
    """Pairs (merged index k) -> ((role, copy), flip) along one arc.

    The merged stack is the upper stack followed by the lower stack,
    innermost at the single-sheet side; a reversed continuation enters
    in reversed copy order and flips the transverse co-orientation.
    """
    for k in range(w_u + w_l):
        if k < w_u:
            copy = w_u - 1 - k if arc.reversed_upper else k
            yield k, (Side.UPPER, copy), arc.reversed_upper
        else:
            j = k - w_u
            copy = w_l - 1 - j if arc.reversed_lower else j
            yield k, (Side.LOWER, copy), arc.reversed_lower


def _reference_carried_surface(b: BranchedSurface,
                               weights: Sequence[int]) -> tuple[Component, ...]:
    """Assemble the surface carried at a weight vector.

    Faces are (sector, copy); each branch arc glues the merged stack to
    the concatenated merging stacks.  chi is counted as interior cells
    (sum of w_i * chi_i) minus glued segment edges plus vertex classes
    over triple points; components come from a union-find over faces
    and orientability from co-orientation propagation.
    """
    weights = tuple(int(w) for w in weights)
    if not satisfies_switch(b, weights):
        raise ValueError("weight vector violates the switch system")
    if all(w == 0 for w in weights):
        raise ValueError("zero weight vector carries nothing")

    refs = _sector_refs(b)

    def ref_at(arc_id: int, side: Side) -> tuple[int, int, int]:
        return refs[(arc_id, side)][0]

    faces = _UnionFind()
    corners = _UnionFind()
    # gluing interfaces, with their co-orientation flip parity
    sign_edges: list[tuple[tuple[int, int], tuple[int, int], bool]] = []

    for sec in b.sectors:
        for c in range(weights[sec.index]):
            faces.find((sec.index, c))

    # Corner instances: (sector, copy, cycle, position, end) where end is the
    # arc endpoint index (0 or 1) of the edge at that cycle position.
    for sec in b.sectors:
        for ci, cycle in enumerate(sec.boundary_cycles):
            if len(cycle) == 1 and b.branch_arcs[cycle[0].arc].is_closed:
                continue
            for c in range(weights[sec.index]):
                for pos, ref in enumerate(cycle):
                    npos = (pos + 1) % len(cycle)
                    nref = cycle[npos]
                    leave_end = 1 if ref.along == 1 else 0
                    enter_end = 0 if nref.along == 1 else 1
                    corners.union((sec.index, c, ci, pos, leave_end),
                                  (sec.index, c, ci, npos, enter_end))

    for arc in b.branch_arcs:
        w_u = weights[arc.upper_sector]
        w_l = weights[arc.lower_sector]
        if w_u + w_l == 0:
            continue
        m_sec, m_ci, m_pos = ref_at(arc.index, Side.MERGED)
        side_ref = {Side.UPPER: ref_at(arc.index, Side.UPPER),
                    Side.LOWER: ref_at(arc.index, Side.LOWER)}
        for k, (side, copy), flip in _stack_pairs(arc, w_u, w_l):
            o_sec, o_ci, o_pos = side_ref[side]
            fm = (m_sec, k)
            fo = (o_sec, copy)
            faces.union(fm, fo)
            sign_edges.append((fm, fo, flip))
            if not arc.is_closed:
                for end in (0, 1):
                    corners.union((m_sec, k, m_ci, m_pos, end),
                                  (o_sec, copy, o_ci, o_pos, end))

    # Component membership per face copy.
    all_faces = [(s.index, c) for s in b.sectors for c in range(weights[s.index])]
    roots = sorted({faces.find(f) for f in all_faces})
    comp_of_root = {r: i for i, r in enumerate(roots)}
    comp_of_face = {f: comp_of_root[faces.find(f)] for f in all_faces}

    # chi bookkeeping per component.
    interior = [0] * len(roots)
    for s, c in all_faces:
        interior[comp_of_face[(s, c)]] += b.sectors[s].euler_char

    edges = [0] * len(roots)
    for arc in b.branch_arcs:
        if arc.is_closed:
            continue
        w_u = weights[arc.upper_sector]
        w_l = weights[arc.lower_sector]
        for k in range(w_u + w_l):
            edges[comp_of_face[(arc.merged_sector, k)]] += 1

    vertex_roots: dict = {}
    for key in list(corners.parent):
        root = corners.find(key)
        vertex_roots.setdefault(root, key)
    vertices = [0] * len(roots)
    for root in vertex_roots:
        s, c = root[0], root[1]
        vertices[comp_of_face[(s, c)]] += 1

    # Orientability: any non-orientable sector poisons its component, else
    # propagate co-orientation signs and look for a contradiction.
    nonorientable = [False] * len(roots)
    for s, c in all_faces:
        if not b.sectors[s].orientable:
            nonorientable[comp_of_face[(s, c)]] = True
    sign: dict[tuple[int, int], int] = {}
    adj: dict[tuple[int, int], list[tuple[tuple[int, int], bool]]] = {f: [] for f in all_faces}
    for fa, fb, flip in sign_edges:
        adj[fa].append((fb, flip))
        adj[fb].append((fa, flip))
    for f in all_faces:
        if f in sign:
            continue
        sign[f] = 1
        queue = [f]
        while queue:
            u = queue.pop()
            for v, flip in adj[u]:
                want = -sign[u] if flip else sign[u]
                if v not in sign:
                    sign[v] = want
                    queue.append(v)
                elif sign[v] != want:
                    nonorientable[comp_of_face[v]] = True

    components = []
    for i in range(len(roots)):
        chi = interior[i] - edges[i] + vertices[i]
        orient = not nonorientable[i]
        components.append(Component(i, chi, orient, classify(chi, orient)))
    return tuple(components)


def _reference_carried_adjacency_graph(s: CarriedSurface) -> list[tuple[str, list[str]]]:
    """Adjacency list of sheet copies of a carried surface."""
    b = s.source
    weights = s.weight
    edges: dict[str, set[str]] = {}
    for sec in b.sectors:
        for c in range(weights[sec.index]):
            edges.setdefault(f"s{sec.index}c{c}", set())
    for arc in b.branch_arcs:
        w_u = weights[arc.upper_sector]
        w_l = weights[arc.lower_sector]
        for k, (side, copy), _flip in _stack_pairs(arc, w_u, w_l):
            o_sec = arc.upper_sector if side is Side.UPPER else arc.lower_sector
            a = f"s{arc.merged_sector}c{k}"
            bb = f"s{o_sec}c{copy}"
            edges[a].add(bb)
            edges[bb].add(a)
    return [(k, sorted(v)) for k, v in sorted(edges.items())]


def _graph_lines(graph: list[tuple[str, list[str]]]) -> list[str]:
    """An adjacency list as the export's lines ``node nbr nbr ...``."""
    return [" ".join([node, *nbrs]) for node, nbrs in graph]


def _polygon_wedge(rng: random.Random, n: int, mixed: bool = False) -> BranchedSurface:
    """Three sheets along n segment arcs that close up through n triple points.

    Arc i runs from triple point i to triple point i + 1, so each sector
    has one boundary cycle of n edges and n corners.  Reversed
    continuations glue a merged copy to different copies along
    different arcs, which links the corners of many copies.  With
    ``mixed``, each arc draws which sector is merged, upper and lower, so
    a sector merged along one arc is a merging sheet along another and
    corner classes grow into chains, not only stars around a merged corner.
    """
    chis = [rng.randrange(-1, 2) for _ in range(3)]
    roles = [rng.sample(range(3), 3) if mixed else [0, 1, 2] for _ in range(n)]
    arcs = tuple(BranchArc(i, *roles[i], endpoints=(i, (i + 1) % n),
                           reversed_upper=rng.random() < 0.5,
                           reversed_lower=rng.random() < 0.5) for i in range(n))
    tps = tuple(TriplePoint(t, ((t - 1) % n, t)) for t in range(n))
    sides = (Side.MERGED, Side.UPPER, Side.LOWER)
    sectors = tuple(Sector(s, chis[s], (tuple(CycleRef(i, sides[roles[i].index(s)])
                                              for i in range(n)),))
                    for s in range(3))
    return BranchedSurface(sectors, arcs, tps, name=f"polygon-wedge-{n}")


def _crossed_loops(rng: random.Random) -> BranchedSurface:
    """Four sheets along two loops at one triple point, x0 = x1 + x2 and
    x3 = x0 + x1.

    Sector 0 is merged along loop 0 and the upper sheet along loop 1, and
    sector 1 is a merging sheet along both, so one corner class is joined
    by three unions in turn and its tree grows past depth one.
    """
    chis = [rng.randrange(-1, 2) for _ in range(4)]
    a, b = (BranchArc(i, m, u, lo, endpoints=(0, 0), reversed_upper=rng.random() < 0.5,
                      reversed_lower=rng.random() < 0.5)
            for i, (m, u, lo) in enumerate(((0, 1, 2), (3, 0, 1))))
    cycles = (((0, Side.MERGED), (1, Side.UPPER)), ((0, Side.UPPER), (1, Side.LOWER)),
              ((0, Side.LOWER),), ((1, Side.MERGED),))
    sectors = tuple(Sector(s, chis[s], (tuple(CycleRef(arc, side) for arc, side in cycle),))
                    for s, cycle in enumerate(cycles))
    return BranchedSurface(sectors, (a, b), (TriplePoint(0, (0, 1)),), name="crossed-loops")


def _self_incident(rng: random.Random) -> BranchedSurface:
    """Two sectors along one closed arc, one of them on two of its sides:
    sector 1 is both merging sheets (x0 = 2 x1), or sector 0 is the merged
    and the upper sheet, so that the lower sheet, sector 1, has weight 0."""
    roles = (0, 1, 1) if rng.random() < 0.5 else (0, 0, 1)
    arc = BranchArc(0, *roles, reversed_upper=rng.random() < 0.5,
                    reversed_lower=rng.random() < 0.5)
    sides = (Side.MERGED, Side.UPPER, Side.LOWER)
    sectors = tuple(Sector(s, rng.randrange(-1, 2), tuple(
        (CycleRef(0, side),) for side, owner in zip(sides, roles) if owner == s))
        for s in range(2))
    return BranchedSurface(sectors, (arc,), name="self-incident")


def _redrawn(sec: Sector, turn: bool, shift: int) -> Sector:
    """The same sector with each boundary cycle started `shift` edges later,
    and read the other way round when `turn` is set."""
    cycles = []
    for cycle in sec.boundary_cycles:
        k = shift % len(cycle)
        cycle = cycle[k:] + cycle[:k]
        if turn:
            cycle = tuple(CycleRef(r.arc, r.side, -r.along) for r in reversed(cycle))
        cycles.append(cycle)
    return dataclasses.replace(sec, boundary_cycles=tuple(cycles))


def _drawn_weight(data):
    """A random surface, with redrawn and possibly non-orientable sectors,
    and a nonzero weight on it, or None when the draw carries nothing."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    kind = data.draw(st.sampled_from(["fixture", "polygon", "loops", "self"]))
    if kind == "fixture":
        surf = fixtures.random_branched_surface(rng)
    elif kind == "polygon":
        surf = _polygon_wedge(rng, data.draw(st.integers(2, 5)), mixed=data.draw(st.booleans()))
    elif kind == "loops":
        surf = _crossed_loops(rng)
    else:
        surf = _self_incident(rng)
    # the random fixtures draw only orientable sectors, and give all three
    # sectors of a wedge the same cycle direction
    n = len(surf.sectors)
    flips, turns = (data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                    for _ in range(2))
    shifts = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    surf = dataclasses.replace(surf, sectors=tuple(
        dataclasses.replace(_redrawn(sec, turn, shift), orientable=not flip)
        for sec, flip, turn, shift in zip(surf.sectors, flips, turns, shifts)))
    assert validate(surf).ok
    gens = minimal_generators(switch_system(surf)).basis
    if not gens:
        return None
    coeffs = data.draw(st.lists(st.integers(0, 6), min_size=len(gens), max_size=len(gens)))
    w = combine(gens, coeffs)
    return (surf, w) if any(w) else None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_carried_surface_matches_reference(data):
    drawn = _drawn_weight(data)
    if drawn is None:
        return
    surf, w = drawn
    s = carried_surface(surf, w)
    assert s.components == _reference_carried_surface(surf, w)
    assert s.weight == w


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_carried_runs_are_maximal_and_agree_with_the_components(data):
    drawn = _drawn_weight(data)
    if drawn is None:
        return
    s = carried_surface(*drawn)
    comps = s.components
    assert [c.index for c in comps] == list(range(len(comps)))
    # groupby cuts maximal runs of positive length, so a run of count 0 or
    # two neighbouring runs of one type would not come back
    key = lambda c: (c.euler_char, c.orientable, c.classification)
    assert s.runs == tuple((len(list(run)), *k) for k, run in itertools.groupby(comps, key))
    assert s.euler_char == sum(c.euler_char for c in comps)
    assert s.connected == (len(comps) == 1)


@pytest.mark.parametrize("make", [fixtures.random_wedge_surface,
                                  fixtures.random_two_vertex_surface,
                                  lambda rng: _polygon_wedge(rng, 4)])
def test_carried_surface_matches_reference_on_large_wedges(make):
    # arcs between triple points: corner merges at every sheet copy
    rng = random.Random(1)
    surf = make(rng)
    a = rng.randint(2_000, 8_000)
    w = combine(((1, 1, 0), (1, 0, 1)), (a, 10_000 - a))
    assert sum(w) == 2 * 10 ** 4
    s = carried_surface(surf, w)
    assert s.components == _reference_carried_surface(surf, w)
    assert s.weight == w


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_carried_adjacency_graph_matches_reference(data):
    # reversed continuations, zero-weight sectors and self-incident arcs
    drawn = _drawn_weight(data)
    if drawn is None:
        return
    s = carried_surface(*drawn)
    assert carried_adjacency_graph(s) == _graph_lines(_reference_carried_adjacency_graph(s))


def test_carried_surface_and_graph_match_reference_on_a_large_two_vertex_wedge():
    # arcs between two triple points: corner unions at every copy, and the
    # reversed lower continuation of arc 1 glues its stack in reverse
    surf = fixtures.random_two_vertex_surface(random.Random(2))
    arc = dataclasses.replace(surf.branch_arcs[1], reversed_lower=True)
    surf = dataclasses.replace(surf, branch_arcs=(surf.branch_arcs[0], arc))
    w = combine(((1, 1, 0), (1, 0, 1)), (6_000, 4_000))
    assert sum(w) == 2 * 10 ** 4
    s = carried_surface(surf, w)
    assert s.components == _reference_carried_surface(surf, w)
    assert s.weight == w
    assert carried_adjacency_graph(s) == _graph_lines(_reference_carried_adjacency_graph(s))


@pytest.mark.parametrize("surf", [
    fixtures.theta_surface(twist=True),
    dataclasses.replace(fixtures.random_two_vertex_surface(random.Random(3)), branch_arcs=(
        BranchArc(0, 0, 1, 2, endpoints=(0, 1), reversed_upper=True),
        BranchArc(1, 0, 1, 2, endpoints=(0, 1), reversed_lower=True)))], ids=lambda b: b.name)
def test_carried_adjacency_graph_matches_reference_at_scale(surf):
    # the reversed continuations give two distinct columns into one sector
    a, b_ = 37_501, 62_499
    w = (a, b_, a + b_) if surf.name == "theta-twisted" else (a + b_, a, b_)
    assert sum(w) == 2 * 10 ** 5
    s = carried_surface(surf, w)
    assert carried_adjacency_graph(s) == _graph_lines(_reference_carried_adjacency_graph(s))


@pytest.mark.parametrize("seed, roles", [(1, (0, 1, 1)), (0, (0, 0, 1))])
def test_adjacency_graph_lists_each_neighbour_once(seed, roles):
    # one sector on two sides of the arc, as the carry export reads it
    b = _self_incident(random.Random(seed))
    arc = b.branch_arcs[0]
    assert (arc.merged_sector, arc.upper_sector, arc.lower_sector) == roles
    assert adjacency_graph(b) == [("sector0", ["arc0"]), ("sector1", ["arc0"]),
                                  ("arc0", ["sector0", "sector1"])]


def test_carried_theta_closed_forms_at_scale():
    a, b_ = 37_501, 62_499
    w = combine(((1, 0, 1), (0, 1, 1)), (a, b_))
    assert sum(w) == 2 * 10 ** 5
    kinds = lambda surf: Counter(c.classification for c in carried_surface(surf, w).components)
    assert kinds(fixtures.theta_surface()) == Counter({Classification.TORUS: a + b_})
    assert kinds(fixtures.theta_surface(twist=True)) == Counter(
        {Classification.TORUS: b_ + math.ceil(a / 2) - a % 2, Classification.KLEIN_BOTTLE: a % 2})


# ---------------------------------------------------------------------------
# union-find


def test_union_find_long_chain_keeps_root_choice():
    n = 100_000
    parent, parity = list(range(n + 1)), [0] * (n + 1)
    for i in range(n):
        rx, px = _find(parent, parity, i + 1)
        ry, py = _find(parent, parity, i)
        if rx != ry:
            parent[ry] = rx
            parity[ry] = px ^ py ^ 1
    # the union hangs y's root under x's root, so the last element is the root
    assert _find(parent, parity, 0) == (n, n % 2)
    assert all(parent[i] == n for i in range(n + 1))
    assert all(parity[i] == (n - i) % 2 for i in range(n + 1))
