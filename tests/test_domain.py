import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import domain, fixtures, io
from bsurf.domain import (AdjustedStructure, AngleFunction, FiberedDomain, PruneClass,
                          PruneResult, VerticalAnnulus, _restrict_surface, make_angles, prune,
                          prune_to_closed, quotient, structure_from_weight, validate_domain,
                          weight_of)
from bsurf.hilbert import minimal_generators
from bsurf.surface import (BranchArc, BranchedSurface, CycleRef, Sector, Side, TriplePoint,
                           satisfies_switch, switch_system, switch_violation)

DOCS = Path(__file__).resolve().parent.parent / "documents"


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


def test_angle_strings_in_the_integer_and_fraction_forms():
    assert make_angles(["3", "3/2", "+1/3", 2, Fraction(5, 2)]).values == (
        3, Fraction(3, 2), Fraction(1, 3), 2, Fraction(5, 2))


@pytest.mark.parametrize("text", ["1e1000000", "1.5", " 3/2", "3/2 ", "3_0", "3/", "/2",
                                  "3/-2", "+-3", "", "+", "\u0663"])
def test_other_angle_strings_rejected_before_fraction_reads_them(text):
    with pytest.raises(ValueError, match="is not an integer or p/q$"):
        make_angles(["3/2", text])


@pytest.mark.parametrize("values, sector", [((1.5, True, 2), 0), ((1, True), 1),
                                            ((Fraction(1, 2), "3"), 1), ((2, 0.5), 1),
                                            ((1, None), 1)])
def test_angle_tables_hold_only_ints_and_fractions(values, sector):
    with pytest.raises(ValueError,
                       match=f"^angle on sector {sector} must be an int or a Fraction, got "):
        AngleFunction(values)


@pytest.mark.parametrize("value", [0.1, 1.5, True, False, None, [1]])
def test_exact_angle_rejects_inexact_values(value):
    with pytest.raises(ValueError, match="is not an int, a Fraction or a str$"):
        make_angles([value])


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


def test_prune_to_closed_rejects_a_missing_boundary_sector():
    fd = fixtures.theta_domain(boundary=(7,))
    for xs in (ensemble_on(fixtures.theta_domain(), [(1, 0, 1)]), []):
        with pytest.raises(ValueError, match="^sector 7 does not exist$"):
            prune_to_closed(fd, xs)


# ---------------------------------------------------------------------------
# pruning against the one-class-at-a-time reference


def _reference_prune(fd: FiberedDomain, ensemble: Sequence[AdjustedStructure],
                     at: Sequence[int], cap: Fraction) -> PruneResult:
    """Delete the sector closures through a boundary point with angles below cap.

    The ensemble splits into classes by the angle values on the removed
    sectors; each class is re-based on the smaller domain.
    """
    removed = set(int(s) for s in at)
    if not removed:
        raise ValueError("prune requires at least one sector to remove")
    for s in removed:
        if not 0 <= s < len(fd.quotient.sectors):
            raise ValueError(f"sector {s} does not exist")
    cap = Fraction(cap)
    for x in ensemble:
        for s in removed:
            if not x.angle[s] < cap:
                raise ValueError(
                    f"structure {x.label!r}: angle {x.angle[s]} on sector {s} "
                    f"is not below the cap {cap}")

    new_surface, old_to_new, arc_to_new, freed = _restrict_surface(fd.quotient, removed)
    new_annuli = []
    for ann in fd.vertical_annuli:
        if all(a in arc_to_new for a in ann.arcs):
            new_annuli.append(replace(ann, index=len(new_annuli),
                                      arcs=tuple(arc_to_new[a] for a in ann.arcs)))
    new_boundary = {old_to_new[s] for s in fd.boundary_sectors
                    if s in old_to_new}
    new_boundary |= {old_to_new[s] for s in freed}
    new_domain = FiberedDomain(quotient=new_surface,
                               vertical_annuli=tuple(new_annuli),
                               boundary_sectors=frozenset(new_boundary),
                               name=fd.name)

    removed_sorted = tuple(sorted(removed))
    keep = [s.index for s in fd.quotient.sectors if s.index not in removed]
    buckets: dict[tuple, list[AdjustedStructure]] = {}
    for x in ensemble:
        key = tuple(x.angle[s] for s in removed_sorted)
        rebased = AdjustedStructure(
            domain=new_domain,
            angle=AngleFunction(tuple(x.angle[s] for s in keep)),
            label=x.label)
        buckets.setdefault(key, []).append(rebased)
    classes = tuple(PruneClass(removed_angles=key, structures=tuple(v))
                    for key, v in sorted(buckets.items()))
    return PruneResult(domain=new_domain, removed_sectors=removed_sorted, classes=classes)


def _reference_prune_to_closed(fd: FiberedDomain,
                               ensemble: Sequence[AdjustedStructure]) -> list[tuple[FiberedDomain, tuple[AdjustedStructure, ...]]]:
    """Iterate prune at boundary sectors until no boundary remains.

    Site choice: lowest-index boundary sector first.  The cap for each
    step is inferred from the (finite) ensemble, every boundary point
    having bounded angles.  The sector count strictly decreases, so at
    most as many steps run as there are sectors; the empty domain is a
    legal terminal state.
    """
    results: list[tuple[FiberedDomain, tuple[AdjustedStructure, ...]]] = []
    work = [(fd, tuple(ensemble))]
    while work:
        domain, structures = work.pop()
        if not domain.boundary_sectors or not domain.quotient.sectors:
            results.append((domain, structures))
            continue
        site = min(domain.boundary_sectors)
        if structures:
            cap = max(x.angle[site] for x in structures) + 1
        else:
            cap = Fraction(1)
        res = _reference_prune(domain, structures, at=[site], cap=cap)
        if res.classes:
            for cls in res.classes:
                work.append((res.domain, cls.structures))
        else:
            work.append((res.domain, ()))
    return sorted(results, key=lambda r: (r[0].name, len(r[1])))


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _random_domain(rng: random.Random, surface: BranchedSurface) -> FiberedDomain:
    """One concave annulus per arc and a random set of boundary sectors."""
    nsec = len(surface.sectors)
    boundary = frozenset(s for s in range(nsec) if rng.random() < 0.5)
    return FiberedDomain(
        quotient=surface,
        vertical_annuli=tuple(VerticalAnnulus(a.index, arcs=(a.index,))
                              for a in surface.branch_arcs),
        boundary_sectors=boundary, name=surface.name)


def _random_ensemble(rng: random.Random, fd: FiberedDomain, size: int):
    """0/1 combinations of the switch-cone generators over a base, shuffled,
    so that structures share angles and classes merge."""
    basis = minimal_generators(switch_system(fd.quotient)).basis
    base = fixtures.base_structure(fd, value=Fraction(rng.choice((1, 3, 5)), 2))
    xs = [base]
    for i in range(size - 1):
        w = [0] * len(fd.quotient.sectors)
        for u in basis:
            if rng.random() < 0.5:
                w = [a + b for a, b in zip(w, u)]
        xs.append(structure_from_weight(base, w, label=f"x{i}"))
    rng.shuffle(xs)
    return xs[:size]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 31), tracks=st.booleans())
def test_prune_matches_reference_on_random_domains(seed, size, tracks):
    rng = random.Random(seed)
    draw = fixtures.random_track_suspension if tracks else fixtures.random_branched_surface
    fd = _random_domain(rng, draw(rng))
    xs = _random_ensemble(rng, fd, size)
    assert prune_to_closed(fd, xs) == _reference_prune_to_closed(fd, xs)

    nsec = len(fd.quotient.sectors)
    at = [s for s in range(nsec) if rng.random() < 0.4] or [rng.randrange(nsec)]
    if rng.random() < 0.1:
        at.append(nsec)
    cap = Fraction(rng.randrange(1, 12), rng.choice((1, 2)))
    assert _outcome(prune, fd, xs, at, cap) == _outcome(_reference_prune, fd, xs, at, cap)


def _fixed_cases():
    three = replace(fixtures.three_sheets_domain(), boundary_sectors=frozenset({1, 2}))
    disk = FiberedDomain(quotient=BranchedSurface((Sector(0, 1, (), True, "disk"),), ()),
                         vertical_annuli=(), boundary_sectors=frozenset({0}))
    doc = io.load(DOCS / "complex.json")
    dname, structures = doc.ensembles["pipeline"]
    flapped = isolated_boundary_domain()
    two_flaps = replace(flapped, boundary_sectors=frozenset({0, 3}), quotient=replace(
        flapped.quotient, sectors=flapped.quotient.sectors + (Sector(3, 1, (), True, "flap2"),)))
    rng = random.Random(8)
    return [
        (flapped, _random_ensemble(rng, flapped, 12)),
        (two_flaps, _random_ensemble(rng, two_flaps, 12)),
        (disk, [AdjustedStructure(domain=disk, angle=make_angles([v]), label=f"y{i}")
                for i, v in enumerate((1, 3, 1, "1/2", 3))]),
        (three, _random_ensemble(rng, three, 12)),
        (doc.domains[dname], list(structures)),
    ]


@pytest.mark.parametrize("case", range(5))
def test_prune_matches_reference_on_fixed_domains(case):
    fd, xs = _fixed_cases()[case]
    rng = random.Random(case)
    for ensemble in (xs, xs[::-1], rng.sample(xs, len(xs)), xs[:1], []):
        assert prune_to_closed(fd, ensemble) == _reference_prune_to_closed(fd, ensemble)
        for s in range(len(fd.quotient.sectors)):
            for cap in (Fraction(3, 2), Fraction(100)):
                assert (_outcome(prune, fd, ensemble, [s], cap)
                        == _outcome(_reference_prune, fd, ensemble, [s], cap))


def looped_arcs_domain():
    """Two branch arcs looped at one triple point, plus a closed torus T.

    Arc 0 merges B and C into A, arc 1 merges A and D into B.  Pruning
    removes T first, which keeps and renumbers the triple point, then C,
    which kills arc 0 and, through their triple point, arc 1.
    """
    def cycle(arc, side):
        return (CycleRef(arc, side),)

    sectors = (Sector(0, 0, (), True, "T"),
               Sector(1, 0, (cycle(0, Side.MERGED), cycle(1, Side.UPPER)), True, "A"),
               Sector(2, 0, (cycle(0, Side.UPPER), cycle(1, Side.MERGED)), True, "B"),
               Sector(3, 1, (cycle(0, Side.LOWER),), True, "C"),
               Sector(4, 1, (cycle(1, Side.LOWER),), True, "D"))
    arcs = (BranchArc(0, 1, 2, 3, endpoints=(0, 0)), BranchArc(1, 2, 1, 4, endpoints=(0, 0)))
    b = BranchedSurface(sectors, arcs, (TriplePoint(0, (0, 1)),), "looped")
    return FiberedDomain(quotient=b,
                         vertical_annuli=(VerticalAnnulus(0, arcs=(0,)),
                                          VerticalAnnulus(1, arcs=(1,))),
                         boundary_sectors=frozenset({0, 3}), name="looped")


def test_prune_through_a_triple_point_matches_reference():
    fd = looped_arcs_domain()
    assert validate_domain(fd).ok
    kept, _, arc_to_new, _ = _restrict_surface(fd.quotient, {0})
    assert kept.triple_points == (TriplePoint(0, (0, 1)),)
    assert [a.endpoints for a in kept.branch_arcs] == [(0, 0), (0, 0)]
    assert arc_to_new == {0: 0, 1: 1}
    cut, _, arc_to_new, freed = _restrict_surface(fd.quotient, {3})
    assert (cut.branch_arcs, cut.triple_points, arc_to_new) == ((), (), {})
    assert freed == {1, 2, 4}
    xs = _random_ensemble(random.Random(3), fd, 12)
    for ensemble in (xs, xs[::-1], xs[:1], []):
        assert prune_to_closed(fd, ensemble) == _reference_prune_to_closed(fd, ensemble)


def test_prune_to_closed_restricts_each_sector_at_most_once(monkeypatch):
    rng = random.Random(8)
    b = fixtures.random_track_suspension(rng)
    while len(b.sectors) < 6:
        b = fixtures.random_track_suspension(rng)
    fd = replace(_random_domain(rng, b), boundary_sectors=frozenset({0}))
    basis = minimal_generators(switch_system(b)).basis
    base = fixtures.base_structure(fd)
    xs = [base]
    for i in range(639):
        coeffs = [rng.randrange(32) for _ in basis]
        w = [sum(n * u[j] for n, u in zip(coeffs, basis)) for j in range(len(b.sectors))]
        xs.append(structure_from_weight(base, w, label=f"x{i}"))
    expected = _reference_prune_to_closed(fd, xs)
    calls = []

    def counting(surface, removed):
        calls.append(removed)
        return _restrict_surface(surface, removed)

    monkeypatch.setattr(domain, "_restrict_surface", counting)
    assert prune_to_closed(fd, xs) == expected
    assert 1 <= len(calls) <= len(b.sectors)


# ---------------------------------------------------------------------------
# exact integer rows against the Fraction code they replaced


def _fraction_check_adjacency(base: AdjustedStructure, other: AdjustedStructure) -> None:
    """Angle differences must satisfy the switch relations across every arc."""
    b = base.domain.quotient
    diff = [o - a for o, a in zip(other.angle.values, base.angle.values)]
    arc = switch_violation(b, diff)
    if arc is not None:
        raise ValueError(
            f"adjacency violated at arc {arc.index}: merged offset {diff[arc.merged_sector]} "
            f"!= {diff[arc.upper_sector] + diff[arc.lower_sector]}")


def _fraction_partition(ensemble: Sequence[AdjustedStructure], removed: Sequence[int],
                        domain: FiberedDomain, kept: Sequence[int]) -> list[tuple[tuple, list]]:
    """(angles on ``removed``, structures re-based onto ``domain`` at ``kept``),
    in ascending key order, each class in ensemble order."""
    buckets: dict[tuple, list[AdjustedStructure]] = {}
    for x in ensemble:
        key = tuple(x.angle[s] for s in removed)
        angle = AngleFunction(tuple(x.angle[s] for s in kept))
        buckets.setdefault(key, []).append(AdjustedStructure(domain, angle, x.label))
    return sorted(buckets.items())


# Mixed small denominators and a few large primes (2**61 - 1 among them).
DENOMINATORS = (1, 2, 3, 4, 6, 1_000_003, 998_244_353, 2**61 - 1)


@st.composite
def exact_ensembles(draw):
    """A fibered domain and an ensemble on it: a base with numerators past
    2**64 and mixed denominators, plus t * w for a few rational t and a few
    weights w of the switch cone.  Draws repeat, so classes merge; with
    ``broken`` one structure has one angle moved off the switch relations."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = (fixtures.random_track_suspension if draw(st.booleans())
         else fixtures.random_branched_surface)(rng)
    fd = _random_domain(rng, b)
    dens = st.sampled_from(DENOMINATORS)
    base = tuple(Fraction(draw(st.integers(1, 2**70)), draw(dens)) for _ in b.sectors)
    ts = draw(st.lists(st.builds(Fraction, st.integers(0, 2**66), dens), min_size=1, max_size=3))
    basis = minimal_generators(switch_system(b)).basis
    ws = [[sum(u[j] for u in basis if rng.random() < 0.5) for j in range(len(b.sectors))]
          for _ in range(3)]
    xs = [AdjustedStructure(fd, AngleFunction(base), "base")]
    for i in range(draw(st.integers(0, 24))):
        t, w = rng.choice(ts), rng.choice(ws)
        xs.append(AdjustedStructure(fd, AngleFunction(tuple(a + t * wi for a, wi in zip(base, w))),
                                    f"x{i}"))
    if draw(st.booleans()) and len(xs) > 1:
        i, j = rng.randrange(1, len(xs)), rng.randrange(len(b.sectors))
        values = list(xs[i].angle.values)
        values[j] += Fraction(1, draw(dens))
        xs[i] = replace(xs[i], angle=AngleFunction(tuple(values)))
    rng.shuffle(xs)
    return fd, xs


@settings(max_examples=150, deadline=None)
@given(case=exact_ensembles(), data=st.data())
def test_integer_rows_match_the_fraction_code(case, data):
    fd, xs = case
    for x in xs:
        assert (_outcome(domain.check_adjacency, xs[0], x)
                == _outcome(_fraction_check_adjacency, xs[0], x))
    nsec = len(fd.quotient.sectors)
    at = data.draw(st.lists(st.integers(0, nsec - 1), min_size=1, max_size=nsec))
    values = sorted({x.angle[s] for x in xs for s in at})
    cap = data.draw(st.sampled_from(values + [values[-1] + 1] if values else [Fraction(1)]))
    removed, kept = sorted(set(at)), [s for s in range(nsec) if s not in at]
    smaller = domain._restrict(fd, set(at))
    assert (domain._partition(xs, removed, smaller, kept)
            == _fraction_partition(xs, removed, smaller, kept))
    got = _outcome(prune_to_closed, fd, xs), _outcome(prune, fd, xs, at, cap)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(domain, "_partition", _fraction_partition)
        assert got == (_outcome(prune_to_closed, fd, xs), _outcome(prune, fd, xs, at, cap))
