import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsurf
from bsurf.hilbert import (DEFAULT_BUDGET, ConeSystem, MinimalGenerators, NotGeneratedError,
                           _dominates, _extreme_rays, _hermite, _minimal_filter, _simplices,
                           brute_force_minimals, decompose, membership, minimal_generators,
                           solutions_up_to)

CONE_X3 = ConeSystem(dimension=3, relations=((-1, -1, 1),))   # x3 = x1 + x2
CONE_DOUBLE = ConeSystem(dimension=2, relations=((1, -2),))   # x1 = 2 x2


def random_switch_system(rng: random.Random, max_dim: int = 8,
                         max_relations: int = 6) -> ConeSystem:
    """Random system of switch-style rows: one +1 and two -1 entries.

    Doubling rows (both -1 on one coordinate) are kept out of the larger
    dimensions so that the oracle bound stays enumerable.
    """
    d = rng.randint(1, max_dim)
    rows = []
    for _ in range(rng.randint(0, max_relations)):
        m = rng.randrange(d)
        u = rng.randrange(d)
        if d <= 4 and rng.random() < 0.3:
            l = u
        else:
            l = rng.randrange(d)
        row = [0] * d
        row[m] += 1
        row[u] -= 1
        row[l] -= 1
        if any(row):
            rows.append(tuple(row))
    return ConeSystem(dimension=d, relations=tuple(rows))


def _reference_minimal_generators(s: ConeSystem) -> MinimalGenerators:
    """The plain Contejean-Devie loop: residual and scores recomputed for every candidate."""
    d = s.dimension
    cols = [tuple(row[i] for row in s.relations) for i in range(d)]

    sols: list[tuple[int, ...]] = []
    frontier = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        frontier.append(e)
    seen = set(frontier)

    while frontier:
        next_frontier = []
        for t in frontier:
            if any(_dominates(t, m) and t != m for m in sols):
                continue
            v = s.residual(t)
            if all(x == 0 for x in v):
                sols.append(t)
                continue
            for i in range(d):
                if sum(a * b for a, b in zip(v, cols[i])) < 0:
                    child = tuple(t[j] + (1 if j == i else 0) for j in range(d))
                    if child in seen:
                        continue
                    if any(_dominates(child, m) for m in sols):
                        continue
                    seen.add(child)
                    next_frontier.append(child)
        frontier = next_frontier

    basis = sorted(_minimal_filter(sols))
    return MinimalGenerators(basis=tuple(basis), system=s)


def _completion_minimal_generators(s: ConeSystem) -> MinimalGenerators:
    """Complete set of minimal nonzero solutions, in lexicographic order.

    Contejean-Devie completion.  Write A for the m x d relation matrix
    and G for its Gram matrix, G[i][j] = <A e_i, A e_j>.  Level n holds
    the candidates t with coordinate sum n; level 1 holds the unit
    vectors.  Each candidate carries v = A t and sc = A^T A t, so that
    sc[i] = <A t, A e_i>; its child t + e_i carries v + A e_i and
    sc + G[i], at O(m + d) per child instead of O(m d) per candidate.
    A candidate that dominates a known solution is dropped, one with
    v = 0 is a solution, and any other one is extended by e_i exactly
    where sc[i] < 0.

    Before a candidate is expanded it has been checked against every
    solution known by then: against all of them when it was pushed, and
    against those found later when its level comes.  Solutions are only
    added at the level being expanded, and candidates of one level have
    the same sum and are distinct, so no solution dominates another and
    the solutions need no final minimality filter.  As the candidate t
    dominates no solution, its child t + e_i can only dominate a solution
    m with m[i] > t[i].
    """
    d = s.dimension
    cols = [tuple(row[i] for row in s.relations) for i in range(d)]
    gram = [tuple(sum(map(mul, a, b)) for b in cols) for a in cols]

    sols: list[tuple[int, ...]] = []
    # (t, A t, A^T A t, number of solutions t was checked against)
    frontier = [((0,) * i + (1,) + (0,) * (d - 1 - i), cols[i], gram[i], 0)
                for i in range(d)]
    while frontier:
        next_frontier = []
        seen = set()                    # one level: every child has the same sum
        for t, v, sc, checked in frontier:
            if any(_dominates(t, m) for m in sols[checked:]):
                continue
            if not any(v):
                sols.append(t)
                continue
            known = len(sols)
            for i, c in enumerate(sc):
                if c < 0:
                    ti = t[i] + 1
                    child = t[:i] + (ti,) + t[i + 1:]
                    if child in seen:
                        continue
                    if any(m[i] >= ti and _dominates(child, m) for m in sols):
                        continue
                    seen.add(child)
                    next_frontier.append((child, tuple([a + b for a, b in zip(v, cols[i])]),
                                          tuple([a + b for a, b in zip(sc, gram[i])]), known))
        frontier = next_frontier

    return MinimalGenerators(basis=tuple(sorted(sols)), system=s)


def cone_system(d: int, rng: random.Random) -> ConeSystem:
    """x_j = x_(j+1) + x_(j+3) for j < 3d/4, indices mod d, sector labels shuffled."""
    perm = list(range(d))
    rng.shuffle(perm)
    rows = []
    for j in range(3 * d // 4):
        row = [0] * d
        row[perm[j]] += 1
        row[perm[(j + 1) % d]] -= 1
        row[perm[(j + 3) % d]] -= 1
        rows.append(tuple(row))
    return ConeSystem(dimension=d, relations=tuple(rows))


# ---------------------------------------------------------------------------
# minimal_generators


def test_dimension_one_no_relations():
    g = minimal_generators(ConeSystem(dimension=1))
    assert g.basis == ((1,),)


def test_unit_vectors_without_relations():
    g = minimal_generators(ConeSystem(dimension=2))
    assert g.basis == ((0, 1), (1, 0))


def test_sum_relation_basis():
    g = minimal_generators(CONE_X3)
    assert g.basis == ((0, 1, 1), (1, 0, 1))


def test_doubling_relation_basis():
    g = minimal_generators(CONE_DOUBLE)
    assert g.basis == ((2, 1),)


def test_inconsistent_system_returns_empty_basis():
    s = ConeSystem(dimension=2, relations=((1, 1),))    # x1 + x2 = 0
    assert minimal_generators(s).basis == ()


def test_determinism():
    s = ConeSystem(dimension=4, relations=((-1, -1, 1, 0), (0, -1, -1, 1)))
    assert minimal_generators(s).basis == minimal_generators(s).basis


def test_index_two_cone():
    # x1 + x2 = 2 x3: the rays span a sublattice of index 2, and (1, 1, 1)
    # is the one nonzero point of their half-open parallelepiped
    s = ConeSystem(dimension=3, relations=((1, 1, -2),))
    rays = _extreme_rays(s)
    assert rays == [(0, 2, 1), (2, 0, 1)]
    h = _hermite(rays)
    assert h[0][0] * h[1][1] == 2
    assert minimal_generators(s).basis == ((0, 2, 1), (1, 1, 1), (2, 0, 1))


@pytest.mark.parametrize("relation, rays, inner", [
    # x1 + x2 = x3 + x4: both simplices have index 1
    ((1, 1, -1, -1), [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)], []),
    # x1 + x2 = x3 + 3 x4: indices 1 and 3, two points inside one parallelepiped
    ((1, 1, -1, -3), [(0, 1, 1, 0), (0, 3, 0, 1), (1, 0, 1, 0), (3, 0, 0, 1)],
     [(1, 2, 0, 1), (2, 1, 0, 1)]),
])
def test_non_simplicial_cone(relation, rays, inner):
    # four rays in a 3-dimensional cone, two simplices
    s = ConeSystem(dimension=4, relations=(relation,))
    assert _extreme_rays(s) == rays
    assert len(_simplices(rays, 4)) == 2
    assert minimal_generators(s).basis == tuple(sorted(rays + inner))


def test_cone_of_lower_dimension_than_kernel():
    # x1 + x2 = 0 forces x1 = x2 = 0: ker A has dimension 2, the cone 1
    s = ConeSystem(dimension=3, relations=((1, 1, 0),))
    assert minimal_generators(s).basis == ((0, 0, 1),)


def test_zero_cone():
    s = ConeSystem(dimension=3, relations=((1, 1, 1),))    # ker A has dimension 2
    assert _extreme_rays(s) == []
    assert minimal_generators(s).basis == ()


def test_extreme_rays_need_the_adjacency_test():
    # x5 = 0, x6 = x0 + x7, x4 = x2 + x7: a simplicial cone on 5 rays.  On
    # the way, double description meets a pair that vanishes together on
    # enough constraints but is not adjacent; without the third-ray test
    # it would yield the non-extreme (1, 0, 1, 0, 1, 0, 1, 0) as a ray.
    s = ConeSystem(dimension=8, relations=(
        (0, 0, 0, 0, 0, -1, 0, 0), (-1, 0, 0, 0, 0, 0, 1, -1), (0, 0, -1, 0, 1, 0, 0, -1)))
    rays = [(0, 0, 0, 0, 1, 0, 1, 1), (0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 1, 0)]
    assert _extreme_rays(s) == rays
    assert minimal_generators(s).basis == tuple(rays)


def test_doubling_rows_found_case():
    # the completion ran for about 70 s on this d = 11 system with two
    # doubling rows; the basis below is its result
    s = random_switch_system(random.Random(576), max_dim=12, max_relations=9)
    start = time.perf_counter()
    g = minimal_generators(s)
    assert time.perf_counter() - start < 0.5
    assert g.basis == ((4, 1, 2, 0, 4, 3, 1, 4, 1, 4, 2), (5, 0, 3, 1, 6, 4, 1, 6, 1, 5, 3))


@pytest.mark.parametrize("c", [1.0, True, Fraction(1), "1"])
def test_relation_coefficients_must_be_ints(c):
    with pytest.raises(ValueError, match=r"relation \(1, -1, .*\) has coefficient .* expected int"):
        ConeSystem(dimension=3, relations=((1, 0, -1), (1, -1, c)))


# ---------------------------------------------------------------------------
# brute_force_minimals


def test_oracle_matches_on_canonical_cones():
    assert brute_force_minimals(CONE_X3, 3) == ((0, 1, 1), (1, 0, 1))
    assert brute_force_minimals(CONE_DOUBLE, 4) == ((2, 1),)


def test_oracle_bound_too_small_is_incomplete():
    assert brute_force_minimals(CONE_DOUBLE, 1) == ()


def test_oracle_unit_vectors():
    assert brute_force_minimals(ConeSystem(dimension=3), 1) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_oracle_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        brute_force_minimals(ConeSystem(dimension=8), 30)


def test_oracle_budget_counts_free_coordinates():
    # random_switch_system(Random(507834), 6, 5): a doubling chain with one
    # free coordinate, so 17^1 points are walked, not the 17^6 box
    s = ConeSystem(dimension=6, relations=(
        (0, 1, -2, 0, 0, 0), (0, 0, 1, -2, 0, 0), (1, 0, 0, 0, 0, -2),
        (0, 0, 0, 1, -2, 0), (0, 0, 0, 0, 1, -2)))
    assert (16 + 1) ** 6 > DEFAULT_BUDGET
    assert minimal_generators(s).basis == ((2, 16, 8, 4, 2, 1),)
    assert brute_force_minimals(s, 16) == ((2, 16, 8, 4, 2, 1),)


@pytest.mark.parametrize("d", [70, 5000])
def test_oracle_bound_zero_in_high_dimension(d):
    assert brute_force_minimals(ConeSystem(dimension=d), 0) == ()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_solutions_up_to_matches_plain_product_filter(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    rows = tuple(tuple(rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(d))
                 for _ in range(rng.randint(0, 3)))
    s = ConeSystem(dimension=d, relations=rows)
    bound = rng.randint(0, 3)
    expected = tuple(x for x in itertools.product(range(bound + 1), repeat=d)
                     if any(x) and s.holds(x))
    assert solutions_up_to(s, bound) == expected


def test_import_needs_no_numpy():
    code = "import sys, bsurf, bsurf.cli; print('numpy' in sys.modules)"
    src = str(Path(bsurf.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# membership


def test_membership_examples():
    assert membership((1, 0, 1), CONE_X3)
    assert not membership((1, 1, 1), CONE_X3)
    assert not membership((-1, 0, -1), CONE_X3)
    with pytest.raises(ValueError):
        membership((1, 0), CONE_X3)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_known_combination():
    g = minimal_generators(CONE_X3)
    dec = decompose((2, 1, 3), g)
    assert dec.coefficients == (1, 2)          # over ((0,1,1), (1,0,1))
    assert dec.recompose() == (2, 1, 3)


def test_decompose_single_generator():
    g = minimal_generators(CONE_X3)
    assert decompose((0, 1, 1), g).coefficients == (1, 0)


def test_decompose_relation_free():
    g = minimal_generators(ConeSystem(dimension=2))
    assert decompose((5, 0), g).coefficients == (0, 5)


def test_decompose_rejects_inadmissible_and_zero():
    g = minimal_generators(CONE_X3)
    with pytest.raises(ValueError):
        decompose((1, 1, 1), g)
    with pytest.raises(ValueError):
        decompose((0, 0, 0), g)


def test_decompose_truncated_basis_fails():
    g = minimal_generators(CONE_X3)
    truncated = MinimalGenerators(basis=g.basis[:1], system=g.system)
    removed = g.basis[1]
    with pytest.raises(NotGeneratedError):
        decompose(removed, truncated)


def _greedy_coefficients(w, basis):
    """``decompose`` as it subtracted greedily: as many copies of each
    generator as fit, in basis order; None if a remainder is left."""
    counts, rem = [], list(w)
    for u in basis:
        n = min((r // x for r, x in zip(rem, u) if x), default=0)
        counts.append(n)
        rem = [r - n * x for r, x in zip(rem, u)]
    return None if any(rem) else tuple(counts)


def _is_n_combination(w, atoms):
    """Exhaustive: every remainder that any counts of the atoms leave, one
    atom at a time; w is a combination iff the zero vector is among them."""
    rems = {tuple(w)}
    for u in atoms:
        rems = {tuple(r - k * x for r, x in zip(rem, u))
                for rem in rems
                for k in range(min(r // x for r, x in zip(rem, u) if x) + 1)}
    return tuple(0 for _ in w) in rems


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_decompose_matches_the_greedy_loop_and_an_exhaustive_search(seed):
    rng = random.Random(seed)
    s = random_switch_system(rng, max_dim=8, max_relations=6)
    g = minimal_generators(s)
    if not g.basis:
        return
    for _ in range(5):
        coeffs = [rng.randint(0, 3) for _ in g.basis]
        w = tuple(sum(n * u[i] for n, u in zip(coeffs, g.basis)) for i in range(s.dimension))
        if not any(w):
            continue
        assert decompose(w, g).coefficients == _greedy_coefficients(w, g.basis)
        # a truncated basis in shuffled order: decompose recomposes w or finds none
        kept = [u for u in g.basis if rng.random() < 0.6]
        rng.shuffle(kept)
        truncated = MinimalGenerators(basis=tuple(kept), system=s)
        try:
            dec = decompose(w, truncated)
        except NotGeneratedError:
            assert not _is_n_combination(w, kept)
        else:
            assert dec.recompose() == w
            assert all(n >= 0 for n in dec.coefficients)


# ---------------------------------------------------------------------------
# properties against the oracle


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_oracle_equivalence_random_systems(seed):
    rng = random.Random(seed)
    s = random_switch_system(rng, max_dim=6, max_relations=5)
    basis = minimal_generators(s).basis
    bound = max((max(u) for u in basis), default=1)
    assert brute_force_minimals(s, bound) == basis


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_generation_and_minimality(seed):
    rng = random.Random(seed)
    s = random_switch_system(rng, max_dim=4, max_relations=4)
    g = minimal_generators(s)
    for u, v in zip(g.basis, g.basis[1:]):
        assert u != v
    for u in g.basis:
        for v in g.basis:
            if u != v:
                assert not all(a >= b for a, b in zip(u, v))
    for w in solutions_up_to(s, 6):
        dec = decompose(w, g)
        assert dec.recompose() == w


# ---------------------------------------------------------------------------
# the incremental completion against the plain loop


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_completion_matches_reference_loop(seed):
    rng = random.Random(seed)
    s = random_switch_system(rng, max_dim=12, max_relations=6)
    assert minimal_generators(s) == _reference_minimal_generators(s)


@st.composite
def integer_systems(draw):
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=4))
    return ConeSystem(dimension=d, relations=tuple(rows))


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_matches_completion_on_integer_systems(s):
    g = minimal_generators(s)
    assert g == _completion_minimal_generators(s)
    # primitive extreme rays are irreducible, so a non-extreme one shows here
    assert set(_extreme_rays(s)) <= set(g.basis)


@pytest.mark.parametrize("d", [10, 12, 14])
def test_completion_matches_reference_on_cone_family(d):
    s = cone_system(d, random.Random(f"cone/{d}"))
    g = minimal_generators(s)
    assert g == _reference_minimal_generators(s)
    basis = g.basis
    assert _extreme_rays(s) == list(basis)      # simplicial, index 1
    assert basis and list(basis) == sorted(basis)
    assert not any(u != w and _dominates(u, w) for u in basis for w in basis)
    assert all(any(u) and membership(u, s) for u in basis)
