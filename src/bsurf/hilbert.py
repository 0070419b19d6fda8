"""Minimal generators of the admissible-weight monoid.

The solution set of a switch system inside the nonnegative orthant is a
finitely generated monoid; its minimal elements under the componentwise
order form the unique generating set computed here.  The working
algorithm is the Contejean-Devie completion over exact integers; an
independent brute-force enumerator doubles as the test oracle.
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
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    out: list[tuple[int, ...]] = []
    for v in vecs:
        if not any(_dominates(v, m) for m in out):
            out.append(v)
    return out


def minimal_generators(s: ConeSystem) -> MinimalGenerators:
    """Complete set of minimal nonzero solutions, in lexicographic order.

    Contejean-Devie completion: grow candidates from the unit vectors,
    extending t by e_i only while <A t, A e_i> < 0, collecting the
    solutions and pruning anything dominating a known solution.
    """
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


DEFAULT_BUDGET = 20_000_000


def _enumerate_solutions(s: ConeSystem, bound: int, budget: int):
    """Nonzero solutions with max entry <= bound, in lexicographic order.

    Walks {0..bound}^d with the last coordinate fastest.  Each relation
    is settled at the last coordinate it involves: the coordinates before
    it fix its partial sum, which leaves at most one value there.  The
    walk keeps an explicit stack, so no recursion grows with d.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    d = s.dimension
    total = (bound + 1) ** d
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {bound + 1}^{d} = {total} > {budget}")
    due: list[list[tuple[int, ...]]] = [[] for _ in range(d)]   # by last nonzero column
    for row in s.relations:
        if any(row):
            due[max(i for i, c in enumerate(row) if c)].append(row)
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
