"""Minimal generators of the admissible-weight monoid.

The solution set of a switch system inside the nonnegative orthant is a
finitely generated monoid; its minimal elements under the componentwise
order form the unique generating set computed here.  The working
algorithm is the Contejean-Devie completion over exact integers, which
updates each candidate's residual and scores as it grows; an independent
brute-force enumerator doubles as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class ConeSystem:
    """Homogeneous integer equality system r . x = 0, x >= 0."""

    dimension: int
    relations: tuple[tuple[int, ...], ...] = ()
    provenance: object = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        for r in self.relations:
            if len(r) != self.dimension:
                raise ValueError(f"relation {r} has length {len(r)}, expected {self.dimension}")

    def residual(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(c * v for c, v in zip(row, x)) for row in self.relations)

    def holds(self, x: Sequence[int]) -> bool:
        return all(v == 0 for v in self.residual(x))


@dataclass(frozen=True)
class MinimalGenerators:
    basis: tuple[tuple[int, ...], ...]
    system: ConeSystem

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)


def membership(w: Sequence[int], s: ConeSystem) -> bool:
    """True iff w is a nonnegative integer solution of the system."""
    if len(w) != s.dimension:
        raise ValueError(f"vector has length {len(w)}, expected {s.dimension}")
    return all(v >= 0 for v in w) and s.holds(w)


def _dominates(x: Sequence[int], y: Sequence[int]) -> bool:
    """x >= y componentwise."""
    return all(a >= b for a, b in zip(x, y))


def _minimal_filter(vectors) -> list[tuple[int, ...]]:
    vecs = sorted(vectors, key=lambda v: (sum(v), v))
    out: list[tuple[int, ...]] = []
    for v in vecs:
        if not any(_dominates(v, m) for m in out):
            out.append(v)
    return out


def minimal_generators(s: ConeSystem) -> MinimalGenerators:
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


DEFAULT_BUDGET = 20_000_000


def _enumerate_solutions(s: ConeSystem, bound: int, budget: int):
    """Nonzero solutions with max entry <= bound, in lexicographic order.

    Walks {0..bound}^d with the last coordinate fastest.  Each relation
    is settled at the last coordinate it involves: the coordinates before
    it fix its partial sum, which leaves at most one value there.  The
    walk keeps an explicit stack, so no recursion grows with d.  Only the
    coordinates with no relation due range freely, so the walk visits at
    most (bound+1)^free points; that bound is checked against the budget
    before the walk starts.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    d = s.dimension
    due: list[list[tuple[int, ...]]] = [[] for _ in range(d)]   # by last nonzero column
    for row in s.relations:
        if any(row):
            due[max(i for i, c in enumerate(row) if c)].append(row)
    free = sum(1 for rows in due if not rows)
    total = (bound + 1) ** free
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {bound + 1}^{free} = {total} > {budget}"
                         f" ({free} of {d} coordinates free)")
    values = range(bound + 1)
    x = [0] * d

    def choices(j):
        """Values of x[j] meeting every relation due at j, given x[:j]."""
        if not due[j]:
            return values
        first, *rest = due[j]
        x[j] = 0
        v, r = divmod(-sum(map(mul, first, x)), first[j])
        x[j] = v
        if r or not 0 <= v <= bound or any(sum(map(mul, row, x)) for row in rest):
            return ()
        return (v,)

    stack = [iter(choices(0))]
    while stack:
        j = len(stack) - 1
        if j == d - 1:
            for x[j] in stack.pop():
                if any(x):
                    yield tuple(x)
        elif (v := next(stack[-1], None)) is None:
            stack.pop()
        else:
            x[j] = v
            stack.append(iter(choices(j + 1)))


def brute_force_minimals(s: ConeSystem, bound: int,
                         budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Oracle: enumerate all of {0..bound}^d, filter, take minimal nonzero.

    Complete whenever every true minimal element has max entry <= bound.
    """
    return tuple(sorted(_minimal_filter(_enumerate_solutions(s, bound, budget))))


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple[int, ...]       # aligned with generators.basis
    generators: MinimalGenerators

    def recompose(self) -> tuple[int, ...]:
        d = self.generators.system.dimension
        out = [0] * d
        for n, u in zip(self.coefficients, self.generators.basis):
            for i in range(d):
                out[i] += n * u[i]
        return tuple(out)


class NotGeneratedError(ValueError):
    """Raised when a vector is not an N-combination of the given basis."""


def decompose(w: Sequence[int], g: MinimalGenerators) -> Decomposition:
    """Greedy subtraction: as many copies of each generator as fit, in basis order.

    Subtracting never makes an earlier generator fit again, so this is
    repeated subtraction of the first generator that fits.  Always
    succeeds when g is the complete basis of its system; fails with
    NotGeneratedError only on user-truncated bases.
    """
    w = tuple(int(x) for x in w)
    if not membership(w, g.system):
        raise ValueError("vector is not an admissible element of the cone")
    if all(x == 0 for x in w):
        raise ValueError("decompose expects a nonzero vector")
    counts = []
    rem = list(w)
    for u in g.basis:
        n = min((r // x for r, x in zip(rem, u) if x), default=0)
        counts.append(n)
        rem = [r - n * x for r, x in zip(rem, u)]
    if any(rem):
        raise NotGeneratedError(f"remainder {tuple(rem)} not generated by the basis")
    return Decomposition(coefficients=tuple(counts), generators=g)


def solutions_up_to(s: ConeSystem, bound: int,
                    budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """All nonzero solutions with max entry <= bound (oracle-side helper)."""
    return tuple(_enumerate_solutions(s, bound, budget))
