import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import fixtures
from bsurf.hilbert import minimal_generators
from bsurf.surface import (BranchArc, BranchedSurface, Classification, CycleRef,
                           Sector, Side, TriplePoint, carried_surface, fully_carried,
                           klein_double, satisfies_switch, switch_system, switch_violation,
                           validate)


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
# union-find


def test_union_find_long_chain_keeps_root_choice():
    from bsurf.surface import _UnionFind
    uf = _UnionFind()
    n = 100_000
    for i in range(n):
        uf.union(i + 1, i)
    # union(x, y) hangs y's root under x's root, so the last element is the root
    assert uf.find(0) == n
    assert all(uf.parent[i] == n for i in range(n + 1))
