from fractions import Fraction

import pytest

from bsurf import fixtures
from bsurf.domain import (AdjustedStructure, FiberedDomain,
                          VerticalAnnulus, make_angles, prune, prune_to_closed,
                          quotient, structure_from_weight, validate_domain, weight_of)
from bsurf.surface import (BranchArc, BranchedSurface, CycleRef, Sector, Side,
                           satisfies_switch)


# ---------------------------------------------------------------------------
# quotient


def test_product_domain_quotient_is_unbranched():
    q = quotient(fixtures.product_domain())
    assert q.branch_arcs == ()
    assert len(q.sectors) == 1


def test_three_slab_quotient():
    q = quotient(fixtures.three_sheets_domain())
    assert len(q.sectors) == 3
    assert len(q.branch_arcs) == 2
    assert len(q.triple_points) == 1


def test_triply_covered_arc_rejected():
    fd = FiberedDomain(
        quotient=fixtures.theta_surface(),
        vertical_annuli=(VerticalAnnulus(0, arcs=(0,)), VerticalAnnulus(1, arcs=(0,)),
                         VerticalAnnulus(2, arcs=(0,)), VerticalAnnulus(3, arcs=(1,))))
    with pytest.raises(ValueError, match="at most twice"):
        quotient(fd)


def test_branch_arcs_need_concave_annuli():
    fd = FiberedDomain(quotient=fixtures.theta_surface(), vertical_annuli=())
    report = validate_domain(fd)
    assert not report.ok
    assert any(v.rule == "singular-locus" for v in report.violations)


def test_concavity_free_domain_has_no_singular_locus():
    # an annulus covering arcs must be concave on both boundary circles
    fd = FiberedDomain(
        quotient=fixtures.theta_surface(),
        vertical_annuli=(VerticalAnnulus(0, arcs=(0,), concave=(True, False)),
                         VerticalAnnulus(1, arcs=(1,))))
    report = validate_domain(fd)
    assert any(v.rule == "concavity" for v in report.violations)
    assert validate_domain(fixtures.product_domain()).ok


# ---------------------------------------------------------------------------
# angle functions and weights


def test_angles_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        make_angles([1, 0, 1])


def test_weight_of_base_is_zero():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    assert weight_of(base, base) == (0, 0, 0)


def test_weight_round_trips():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    for w in ((0, 1, 1), (2, 0, 2), (3, 1, 4)):
        x = structure_from_weight(base, w)
        assert weight_of(x, base) == w


def test_structure_from_weight_is_the_inverse_on_structures():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    x = structure_from_weight(base, (1, 2, 3), label="x")
    again = structure_from_weight(base, weight_of(x, base), label="x")
    assert again.angle == x.angle


def test_half_turn_difference_rejected():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    odd = AdjustedStructure(domain=fd,
                            angle=make_angles([base.angle[0] + 1,
                                               base.angle[1], base.angle[2]]))
    with pytest.raises(ValueError, match="full"):
        weight_of(odd, base)


def test_weight_violating_switch_rejected():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    with pytest.raises(ValueError, match="^weight violates the switch equation at arc 0$"):
        structure_from_weight(base, (1, 1, 1))


def test_angle_positivity_bound():
    fd = fixtures.product_domain()
    base = AdjustedStructure(domain=fd, angle=make_angles([Fraction(3, 2)]))
    with pytest.raises(ValueError, match="positive"):
        structure_from_weight(base, (-1,))
    ok = structure_from_weight(base, (5,))
    assert ok.angle[0] == Fraction(3, 2) + 10


def test_adjacency_coherence_checked():
    fd = fixtures.theta_domain()
    base = fixtures.base_structure(fd)
    bad = AdjustedStructure(domain=fd,
                            angle=make_angles([base.angle[0] + 2,
                                               base.angle[1], base.angle[2]]))
    with pytest.raises(ValueError,
                       match="^adjacency violated at arc 0: merged offset 0 != 2$"):
        weight_of(bad, base)


# ---------------------------------------------------------------------------
# pruning


def ensemble_on(fd, weights, base_value=Fraction(3, 2)):
    base = fixtures.base_structure(fd, value=base_value)
    xs = [base]
    for i, w in enumerate(weights):
        xs.append(structure_from_weight(base, w, label=f"x{i}"))
    return xs


def test_prune_removes_sector_closure_and_partitions():
    fd = fixtures.theta_domain(boundary=(0,))
    xs = ensemble_on(fd, [(1, 0, 1), (2, 0, 2), (0, 1, 1)])
    res = prune(fd, xs, at=[0], cap=Fraction(1000))
    assert res.removed_sectors == (0,)
    assert len(res.domain.quotient.sectors) == 2
    # both arcs referenced the removed sector, so they die with it
    assert res.domain.quotient.branch_arcs == ()
    keys = [cls.removed_angles for cls in res.classes]
    assert len(keys) == 3                      # weights 0, 1, 2 on the removed sector
    by_labels = sorted(tuple(x.label for x in cls.structures) for cls in res.classes)
    assert ("base", "x2") in by_labels         # same removed-sector weight 0


def test_prune_requires_the_cap():
    fd = fixtures.theta_domain(boundary=(0,))
    xs = ensemble_on(fd, [(3, 0, 3)])
    with pytest.raises(ValueError, match="cap"):
        prune(fd, xs, at=[0], cap=Fraction(2))


def test_prune_strictly_decreases_sector_count():
    fd = fixtures.theta_domain(boundary=(0,))
    xs = ensemble_on(fd, [(1, 0, 1)])
    res = prune(fd, xs, at=[0], cap=Fraction(1000))
    assert len(res.domain.quotient.sectors) < len(fd.quotient.sectors)


def isolated_boundary_domain():
    """Two closed sectors joined by a branch circle plus one isolated
    boundary sector; pruning the isolated sector leaves a closed quotient."""
    s0 = Sector(0, 1, (), True, "flap")
    s1 = Sector(1, 0, ((CycleRef(0, Side.UPPER),), (CycleRef(0, Side.LOWER),)), True, "a")
    s2 = Sector(2, 0, ((CycleRef(0, Side.MERGED),),), True, "b")
    b = BranchedSurface((s0, s1, s2), (BranchArc(0, 2, 1, 1),), (), "flapped")
    return FiberedDomain(quotient=b,
                         vertical_annuli=(VerticalAnnulus(0, arcs=(0,)),),
                         boundary_sectors=frozenset({0}), name="flapped")


def test_prune_single_step_to_boundaryless():
    fd = isolated_boundary_domain()
    xs = ensemble_on(fd, [(0, 1, 2)])
    res = prune(fd, xs, at=[0], cap=Fraction(1000))
    assert len(res.domain.quotient.sectors) == 2
    assert not res.domain.boundary_sectors
    assert len(res.domain.quotient.branch_arcs) == 1
    for cls in res.classes:
        for x in cls.structures:
            w = [a - b for a, b in zip(x.angle.values, cls.structures[0].angle.values)]
            assert satisfies_switch(res.domain.quotient, [int(v / 2) for v in w])


def test_prune_to_closed_terminates_and_strips_boundary():
    fd = fixtures.theta_domain(boundary=(0,))
    xs = ensemble_on(fd, [(1, 0, 1), (0, 1, 1), (0, 2, 2)])
    results = prune_to_closed(fd, xs)
    assert results
    for dom, structures in results:
        assert not dom.boundary_sectors or not dom.quotient.sectors
    total = sum(len(s) for _, s in results)
    assert total == len(xs)


def test_prune_to_closed_identity_on_closed_domain():
    fd = fixtures.theta_domain()
    xs = ensemble_on(fd, [(1, 0, 1)])
    results = prune_to_closed(fd, xs)
    assert len(results) == 1
    dom, structures = results[0]
    assert dom.quotient == fd.quotient
    assert len(structures) == 2


def test_prune_disk_sector_to_empty_domain():
    fd = FiberedDomain(quotient=BranchedSurface((Sector(0, 1, (), True, "disk"),), ()),
                       vertical_annuli=(), boundary_sectors=frozenset({0}))
    xs = ensemble_on(fd, [])
    results = prune_to_closed(fd, xs)
    assert len(results) == 1
    dom, structures = results[0]
    assert dom.quotient.sectors == ()
    assert len(structures) == 1


def test_prune_partition_groups_by_removed_weights():
    fd = fixtures.theta_domain(boundary=(0,))
    base = fixtures.base_structure(fd)
    same1 = structure_from_weight(base, (1, 0, 1), label="s1")
    same2 = structure_from_weight(base, (1, 1, 2), label="s2")
    diff = structure_from_weight(base, (2, 0, 2), label="d")
    res = prune(fd, [same1, same2, diff], at=[0], cap=Fraction(1000))
    groups = {tuple(x.label for x in cls.structures) for cls in res.classes}
    assert ("s1", "s2") in groups
    assert ("d",) in groups


def test_prune_single_class_when_weights_agree():
    fd = fixtures.theta_domain(boundary=(0,))
    base = fixtures.base_structure(fd)
    xs = [structure_from_weight(base, (1, 0, 1), label="p"),
          structure_from_weight(base, (1, 2, 3), label="q")]
    res = prune(fd, xs, at=[0], cap=Fraction(1000))
    assert len(res.classes) == 1
    assert tuple(x.label for x in res.classes[0].structures) == ("p", "q")
