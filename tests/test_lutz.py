import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsurf import fixtures
from bsurf.hilbert import minimal_generators, n_combination
from bsurf.lutz import (LutzPlan, RebaseRequired, classify_generators, enumerate_structures,
                        plan_for, realize)
from bsurf.surface import Classification, satisfies_switch, switch_system


def theta_generators(twist=False):
    b = fixtures.theta_surface(twist=twist)
    gens = minimal_generators(switch_system(b))
    return b, classify_generators(b, gens)


def test_classify_torus_sector():
    b = fixtures.torus_surface()
    infos = classify_generators(b, minimal_generators(switch_system(b)))
    assert [i.classification for i in infos] == [Classification.TORUS]
    assert infos[0].effective == infos[0].weight


def test_classify_klein_generator_gets_doubled():
    b, infos = theta_generators(twist=True)
    by_weight = {i.weight: i for i in infos}
    klein = by_weight[(1, 0, 1)]
    assert klein.classification is Classification.KLEIN_BOTTLE
    assert klein.effective == (2, 0, 2)
    torus = by_weight[(0, 1, 1)]
    assert torus.classification is Classification.TORUS
    assert torus.effective == torus.weight


def test_classify_flags_other_without_rejecting():
    b = fixtures.three_sheets_surface()
    infos = classify_generators(b, minimal_generators(switch_system(b)))
    assert all(i.classification is Classification.OTHER for i in infos)


def test_realize_identity_at_zero_plan():
    b, infos = theta_generators()
    plan = LutzPlan(base="b", coefficients=(0, 0), generators=infos)
    assert realize(plan, (2, 3, 5)) == (2, 3, 5)


def test_realize_torus_coefficients():
    b, infos = theta_generators()
    idx = next(i for i, info in enumerate(infos) if info.weight == (1, 0, 1))
    coeffs = [0, 0]
    coeffs[idx] = 2
    plan = LutzPlan(base="zero", coefficients=tuple(coeffs), generators=infos)
    w = realize(plan, (0, 0, 0))
    assert w == (2, 0, 2)
    assert satisfies_switch(b, w)


def test_realize_klein_coefficient_doubles():
    b, infos = theta_generators(twist=True)
    idx = next(i for i, info in enumerate(infos)
               if info.classification is Classification.KLEIN_BOTTLE)
    coeffs = [0, 0]
    coeffs[idx] = 3
    plan = LutzPlan(base="zero", coefficients=tuple(coeffs), generators=infos)
    assert realize(plan, (0, 1, 1)) == (6, 1, 7)


def test_realize_rejects_other_generators():
    b = fixtures.three_sheets_surface()
    infos = classify_generators(b, minimal_generators(switch_system(b)))
    plan = LutzPlan(base="zero", coefficients=(1, 0), generators=infos)
    with pytest.raises(ValueError):
        realize(plan, (0, 0, 0))


def test_plan_for_examples():
    b, infos = theta_generators()
    base = (1, 1, 2)
    empty = plan_for(base, base, infos)
    assert empty.coefficients == (0, 0)
    plan = plan_for((3, 2, 5), (1, 1, 2), infos)
    assert realize(plan, (1, 1, 2)) == (3, 2, 5)
    with pytest.raises(RebaseRequired):
        plan_for((0, 1, 1), (1, 0, 1), infos)


def test_plan_for_large_target_does_not_recurse_per_unit():
    b, infos = theta_generators()
    plan = plan_for((10 ** 4, 10 ** 4, 2 * 10 ** 4), (0, 0, 0), infos)
    assert plan.coefficients == (10 ** 4, 10 ** 4)


def test_plan_for_odd_klein_multiple_requires_rebase():
    b, infos = theta_generators(twist=True)
    with pytest.raises(RebaseRequired):
        plan_for((1, 0, 1), (0, 0, 0), infos)
    plan = plan_for((2, 0, 2), (0, 0, 0), infos)
    assert realize(plan, (0, 0, 0)) == (2, 0, 2)


def test_enumerate_structures_bounds():
    b, infos = theta_generators()
    base = (0, 0, 0)
    assert list(enumerate_structures(infos, base, 0)) == [base]
    assert len(list(enumerate_structures(infos, base, 1))) <= 3
    got = set(enumerate_structures(infos, base, 2))
    assert got == {(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 0, 2), (1, 1, 2), (0, 2, 2)}


@pytest.mark.parametrize("call, err", [
    (lambda infos: plan_for((1, 1), (0, 0, 0), infos), "target length 2 != generator length 3"),
    (lambda infos: plan_for((1, 1, 2), (0, 0, 0, 0), infos),
     "base length 4 != generator length 3"),
    (lambda infos: list(enumerate_structures(infos, (1, 0), 1)),
     "base length 2 != generator length 3"),
], ids=["plan-short-target", "plan-long-base", "enumerate-short-base"])
def test_lutz_rejects_a_vector_of_another_length(call, err):
    b, infos = theta_generators()
    with pytest.raises(ValueError) as exc:
        call(infos)
    assert str(exc.value) == err


def test_enumerate_matches_direct_expansion():
    b, infos = theta_generators(twist=True)
    base = (1, 1, 2)
    atoms = [i.effective for i in infos if i.classification is not Classification.OTHER]
    expected = set()
    for n1 in range(4):
        for n2 in range(4):
            if n1 + n2 <= 3:
                expected.add(tuple(b0 + n1 * a + n2 * c
                                   for b0, a, c in zip(base, atoms[0], atoms[1])))
    assert set(enumerate_structures(infos, base, 3)) == expected


def test_parity_vector_invariant_under_even_shifts():
    b, infos = theta_generators()
    plan = LutzPlan(base="b", coefficients=(3, 4), generators=infos)
    bumped = LutzPlan(base="b", coefficients=(5, 4), generators=infos)
    assert plan.parity_vector == (1, 0)
    assert bumped.parity_vector == plan.parity_vector


@settings(max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.tuples(st.integers(0, 3),
                                                       st.integers(0, 3),
                                                       st.integers(0, 3)))
def test_realize_always_admissible(n1, n2, base_coeffs):
    b, infos = theta_generators(twist=True)
    base = realize(LutzPlan("z", (base_coeffs[0], base_coeffs[1]), infos), (0, 0, 0))
    plan = LutzPlan("z", (n1, n2), infos)
    w = realize(plan, base)
    assert satisfies_switch(b, w)


@settings(max_examples=40)
@given(st.integers(0, 4), st.integers(0, 4))
def test_round_trip_weight_equality(n1, n2):
    b, infos = theta_generators(twist=True)
    base = (2, 2, 4)
    w = realize(LutzPlan("b", (n1, n2), infos), base)
    plan = plan_for(w, base, infos)
    assert realize(plan, base) == w


def _brute_force_cover(delta, atoms):
    """Every count vector that fits, tried; the greatest solution in the
    atoms' sorted order, as ``n_combination`` promises, or None."""
    order = sorted(range(len(atoms)), key=lambda i: atoms[i])
    fits = [range(min(d // x for d, x in zip(delta, u) if x) + 1) for u in atoms]
    solutions = [c for c in itertools.product(*fits)
                 if all(sum(n * u[j] for n, u in zip(c, atoms)) == d
                        for j, d in enumerate(delta))]
    return max(solutions, key=lambda c: [c[i] for i in order], default=None)


def _reference_n_combination(w, atoms):
    """The full backtracking search: a miss steps down the count of every
    level in turn, the last level included."""
    order = sorted(range(len(atoms)), key=lambda i: atoms[i])
    n = len(order)
    counts = [0] * n
    rems = [tuple(w)] + [()] * n
    k = 0
    while True:
        if k < n:
            counts[k] = min((r // x for r, x in zip(rems[k], atoms[order[k]]) if x), default=0)
        elif not any(rems[n]):
            return tuple(c for _, c in sorted(zip(order, counts)))
        else:
            k = n - 1
            while k >= 0 and counts[k] == 0:
                k -= 1
            if k < 0:
                return None
            counts[k] -= 1
        rems[k + 1] = tuple(r - counts[k] * x for r, x in zip(rems[k], atoms[order[k]]))
        k += 1


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_n_combination_matches_the_full_backtracking_search(data):
    # a combination of the atoms is feasible; one entry more, or a free
    # draw, is mostly not, and then both searches run to the end
    d = data.draw(st.integers(1, 6))
    vectors = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    atoms = [tuple(u) for u in data.draw(st.lists(vectors, max_size=5))]
    kind = data.draw(st.sampled_from(["combination", "near-miss", "free"]))
    if kind == "free":
        w = data.draw(vectors)
    else:
        coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms)))
        w = [sum(c * u[i] for c, u in zip(coeffs, atoms)) for i in range(d)]
        if kind == "near-miss":
            w[data.draw(st.integers(0, d - 1))] += 1
    w = tuple(w)
    got = n_combination(w, atoms)
    assert got == _reference_n_combination(w, atoms), (w, atoms)
    if kind == "combination":
        assert got is not None


@pytest.mark.parametrize("w, atoms", [((1, 1), [(1, 0), (2, -1)]), ((-2, 1), [(1, 0), (0, 1)])],
                         ids=["atom", "target"])
def test_n_combination_rejects_a_negative_entry(w, atoms):
    # unchecked, the negative target would come back as the counts (-2, 1)
    with pytest.raises(ValueError, match="nonnegative entries"):
        n_combination(w, atoms)


def test_a_plan_that_must_fail_is_rejected_in_linear_time():
    # an odd Klein multiple on twisted theta: every count of the torus atom
    # leaves an odd first entry for the doubled Klein atom
    b, infos = theta_generators(twist=True)
    n = 10_000
    with pytest.raises(RebaseRequired):
        plan_for((n + 1, n, 2 * n + 1), (0, 0, 0), infos)
    assert n_combination((n + 1, n, 2 * n + 1), [(0, 1, 1), (2, 0, 2)]) is None


def test_exact_cover_backtracks_from_the_greedy_count():
    # the greedy count of the smaller atom leaves a remainder, so it is lowered
    assert n_combination((3,), [(2,), (3,)]) == (0, 1)
    assert n_combination((5, 5), [(2, 2), (3, 3)]) == (1, 1)
    assert n_combination((1,), [(2,), (3,)]) is None
    rng = random.Random(100)
    for _ in range(300):
        dim = rng.randint(1, 3)
        atoms = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        atoms = [u for u in atoms if any(u)] or [(1,) * dim]
        delta = tuple(rng.randint(0, 9) for _ in range(dim))
        assert n_combination(delta, atoms) == _brute_force_cover(delta, atoms), (delta, atoms)
