"""Minimal generators of the admissible-weight monoid.

The solution set of a switch system inside the nonnegative orthant is a
finitely generated monoid; its minimal elements under the componentwise
order form the unique generating set computed here, the Hilbert basis
of the cone {x : A x = 0, x >= 0}.  It is computed from the primal side
on exact integers: an integer basis of ker A by fraction-free
elimination, the extreme rays by double description (Fukuda-Prodon
1996), a placing triangulation of the rays, and the lattice points of
each simplicial cone's fundamental parallelepiped, counted by the
lattice index of its rays (Bruns-Ichim, J. Algebra 324, 2010).  The
cost follows the number of rays and the lattice index, not the size of
the generators.  An independent brute-force enumerator serves as the
oracle behind `bsurf hilbert --oracle-bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence


@dataclass(frozen=True)
class ConeSystem:
    """Homogeneous integer equality system r . x = 0, x >= 0."""

    dimension: int
    relations: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        for r in self.relations:
            if len(r) != self.dimension:
                raise ValueError(f"relation {r} has length {len(r)}, expected {self.dimension}")
            for c in r:
                if type(c) is not int:
                    raise ValueError(f"relation {r} has coefficient {c!r} of type "
                                     f"{type(c).__name__}, expected int")

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


def _primitive(v) -> tuple[int, ...]:
    """v divided by the gcd of its entries (the zero vector stays zero)."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


def _cancel(m, l, j: int) -> tuple[int, ...]:
    """l[j] m - m[j] l made primitive: entry j is 0, and for l[j] > 0 it lies along m + t l."""
    a, f = l[j], m[j]
    return _primitive([a * x - f * y for x, y in zip(m, l)])


def _echelon(rows, width: int):
    """Reduced echelon form over Z: (rows, pivot columns).

    Fraction-free Gauss-Jordan elimination.  Each row is primitive, has
    a positive pivot and is zero in the other rows' pivot columns; the
    number of rows is the rank.
    """
    todo = [_primitive(r) for r in rows if any(r)]
    out: list[tuple[int, ...]] = []
    cols: list[int] = []
    for c in range(width):
        p = next((r for r in todo if r[c]), None)
        if p is None:
            continue
        if p[c] < 0:
            p = tuple(-x for x in p)
        out = [_cancel(r, p, c) if r[c] else r for r in out]
        todo = [r for r in (_cancel(r, p, c) if r[c] else r for r in todo) if any(r)]
        out.append(p)
        cols.append(c)
    return out, cols


def _kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Primitive integer vectors, one per free column, spanning {x : r . x = 0 for all rows}."""
    ech, cols = _echelon(rows, width)
    lead = lcm(*(r[c] for r, c in zip(ech, cols)))
    basis = []
    for f in sorted(set(range(width)) - set(cols)):
        v = [0] * width
        v[f] = lead
        for r, c in zip(ech, cols):
            v[c] = -(lead // r[c]) * r[f]
        basis.append(_primitive(v))
    return basis


def _with_zeros(v) -> tuple[tuple[int, ...], int]:
    """v with the bitmask of its zero entries."""
    return v, sum(1 << i for i, x in enumerate(v) if not x)


def _extreme_rays(s: ConeSystem) -> list[tuple[int, ...]]:
    """Primitive extreme rays of {x : A x = 0, x >= 0}, by double description.

    Starts from ker A as a linear space and adds x_j >= 0 for j = 0, 1, ...
    If a lineality vector l has l[j] != 0, it is oriented to l[j] > 0 and
    becomes a ray; the other lineality vectors and the rays are moved
    along l to entry 0 at j.  Otherwise the rays with r[j] < 0 are
    dropped, and each pair p, n with p[j] > 0 > n[j] that spans a
    2-face gives the new ray p[j] n - n[j] p.  Adjacency is combinatorial
    on zero sets over the constraints added so far: p and n are adjacent
    iff no third ray vanishes wherever both do, and only if they vanish
    together on at least dim ker A - (lineality dimension) - 2 of them.
    """
    d = s.dimension
    lineality = _kernel(s.relations, d)
    full = len(lineality)
    rays: list[tuple[tuple[int, ...], int]] = []       # (ray, zero-set bitmask)
    done = 0
    for j in range(d):
        k = next((i for i, l in enumerate(lineality) if l[j]), None)
        if k is not None:
            l = lineality.pop(k)
            if l[j] < 0:
                l = tuple(-x for x in l)
            lineality = [_cancel(m, l, j) if m[j] else m for m in lineality]
            rays = [(r, z) if not r[j] else _with_zeros(_cancel(r, l, j)) for r, z in rays]
            rays.append(_with_zeros(l))
        elif any(r[j] < 0 for r, _ in rays):
            need = full - len(lineality) - 2
            pos = [(r, z) for r, z in rays if r[j] > 0]
            neg = [(r, z) for r, z in rays if r[j] < 0]
            new = [(r, z) for r, z in rays if r[j] >= 0]
            for p, zp in pos:
                for n, zn in neg:
                    common = zp & zn & done
                    if common.bit_count() < need:
                        continue
                    if any(z & common == common and r is not p and r is not n
                           for r, z in rays):
                        continue
                    new.append(_with_zeros(_cancel(n, p, j)))
            rays = new
        done |= 1 << j
    return sorted(r for r, _ in rays)


def _simplices(rays, d: int) -> list[list[tuple[int, ...]]]:
    """A placing triangulation of cone(rays) into cones on independent rays.

    Rays are projected onto the pivot columns of their echelon form,
    where the projection of span(rays) is injective.  A first simplex
    is chosen greedily; every other ray is then placed, forming a
    simplex with each boundary facet it strictly sees.  A facet's normal
    is the kernel of its rays, oriented toward the simplex's other ray.
    """
    cols = _echelon(rays, d)[1]
    k = len(cols)
    if k == len(rays):
        return [list(rays)]
    proj = [tuple(r[c] for c in cols) for r in rays]
    first: list[int] = []
    for i in range(len(rays)):
        if len(first) < k and len(_echelon([proj[t] for t in first + [i]], k)[1]) > len(first):
            first.append(i)
    boundary: dict[frozenset, tuple[int, ...]] = {}      # facet -> inward normal

    def place(simplex):
        for i in simplex:
            facet = frozenset(simplex) - {i}
            if boundary.pop(facet, None) is None:
                (nu,) = _kernel([proj[t] for t in facet], k)
                if sum(map(mul, nu, proj[i])) < 0:
                    nu = tuple(-x for x in nu)
                boundary[facet] = nu

    place(first)
    simplices = [first]
    for i in range(len(rays)):
        if i in first:
            continue
        seen = [f for f, nu in boundary.items() if sum(map(mul, nu, proj[i])) < 0]
        for f in seen:
            simplices.append([*f, i])
            place(simplices[-1])
    return [[rays[t] for t in simplex] for simplex in simplices]


def _hermite(rows) -> list[list[int]]:
    """Lower-triangular H, positive diagonal, with rows . U = [H | 0] for a unimodular U.

    The rows must be linearly independent.  Column operations clear each
    row right of the diagonal by Euclid's algorithm and then reduce its
    entries left of the diagonal modulo the pivot.
    """
    m = [list(r) for r in rows]
    k = len(m)
    for i in range(k):
        row = m[i]
        while True:
            nz = [c for c in range(i, len(row)) if row[c]]
            c0 = min(nz, key=lambda c: abs(row[c]))
            if len(nz) == 1:
                break
            for c in nz:
                if c != c0:
                    q = row[c] // row[c0]
                    for r in m[i:]:
                        r[c] -= q * r[c0]
        sign = 1 if row[c0] > 0 else -1
        for r in m[i:]:
            r[i], r[c0] = r[c0], r[i]
            r[i] *= sign
        for c in range(i):
            q = row[c] // row[i]
            if q:
                for r in m[i:]:
                    r[c] -= q * r[i]
    return [r[:k] for r in m]


def _parallelepiped(simplex) -> list[tuple[int, ...]]:
    """Nonzero lattice points of {sum lam_i r_i : 0 <= lam_i < 1} for independent rays r_i.

    With rays . U = [H | 0], the lattice span(rays) meets Z^d in the
    points z H^-1 . rays, z in Z^k, and the box 0 <= z_j < H[j][j] holds
    one z per class modulo the rays.  So the index is N = prod H[j][j],
    and each z gives mu = N z H^-1 by back substitution (exact, as N H^-1
    is integral) and the point sum (mu_i mod N) r_i / N.
    """
    h = _hermite(simplex)
    k = len(h)
    n = prod(h[j][j] for j in range(k))
    points = []
    for z in product(*(range(h[j][j]) for j in range(k))):
        mu = [0] * k
        for j in reversed(range(k)):
            mu[j] = (n * z[j] - sum(mu[i] * h[i][j] for i in range(j + 1, k))) // h[j][j]
        lam = [x % n for x in mu]
        p = tuple(sum(map(mul, lam, col)) // n for col in zip(*simplex))
        if any(p):
            points.append(p)
    return points


def minimal_generators(s: ConeSystem) -> MinimalGenerators:
    """Complete set of minimal nonzero solutions, in lexicographic order.

    Write C = {x : A x = 0, x >= 0}.  C lies in the orthant, so it is
    pointed, and a nonzero lattice point x of C is irreducible (not a sum
    of two nonzero ones) iff it dominates no other one: if x >= y, then
    x - y is in C too.  The minimal elements are the Hilbert basis.

    The extreme rays of C come from double description on an integer
    basis of ker A (`_extreme_rays`).  A placing triangulation splits C
    into simplicial cones, one if the rays are independent
    (`_simplices`).  In a simplicial cone on rays r_1..r_k every lattice
    point is p + sum n_i r_i with n_i in N and p in the half-open
    fundamental parallelepiped (`_parallelepiped`), whose number of
    lattice points is the index of Z r_1 + ... + Z r_k in span(r) ∩ Z^d,
    found as the product of the Hermite pivots; at index 1 only p = 0.
    So the rays and the parallelepiped points of all simplices generate
    the monoid of lattice points of C.  A generating set holds every
    irreducible element, each of them is minimal in it, and every other
    element dominates an irreducible one; so `_minimal_filter` of the
    union is the basis.  Where the rays are independent and of index 1,
    the basis is the sorted rays.

    Cost, with m relations, k = dim ker A and R the rays at a step: the
    kernel takes O(m^2 d) integer operations; each double description
    step tests |R+| |R-| pairs at O(|R|) bitmask operations each; each
    Hermite form takes O(k^2 d) integer operations per round of Euclid
    reduction; each simplex adds index-many points at O(k d) each; the
    filter is quadratic in the candidates.  None of this grows with the
    generators' coordinate sums, except as the length of the integers.
    """
    rays = _extreme_rays(s)
    candidates = set(rays)
    for simplex in _simplices(rays, s.dimension):
        candidates.update(_parallelepiped(simplex))
    return MinimalGenerators(basis=tuple(sorted(_minimal_filter(candidates))), system=s)


DEFAULT_BUDGET = 20_000_000


def _enumerate_solutions(s: ConeSystem, bound: int):
    """Nonzero solutions with max entry <= bound, in lexicographic order.

    Walks {0..bound}^d with the last coordinate fastest.  Each relation
    is settled at the last coordinate it involves: the coordinates before
    it fix its partial sum, which leaves at most one value there.  The
    walk keeps an explicit stack, so no recursion grows with d.  Only the
    coordinates with no relation due range freely, so the walk visits at
    most (bound+1)^free points; that bound is checked against
    ``DEFAULT_BUDGET`` before the walk starts.
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
    if total > DEFAULT_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {bound + 1}^{free} = {total}"
                         f" > {DEFAULT_BUDGET} ({free} of {d} coordinates free)")
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


def brute_force_minimals(s: ConeSystem, bound: int) -> tuple[tuple[int, ...], ...]:
    """Oracle: enumerate all of {0..bound}^d, filter, take minimal nonzero.

    Complete whenever every true minimal element has max entry <= bound.
    """
    return tuple(sorted(_minimal_filter(_enumerate_solutions(s, bound))))


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


def n_combination(w: Sequence[int], atoms: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Nonnegative integer counts of the atoms summing to w, or None.

    w and the atoms must have nonnegative entries; a negative entry
    raises ValueError.  Depth-first over the atoms in sorted order, each
    level trying its count from the most that fits down to zero, so the
    first path is the greedy one and the first hit the lexicographically
    greatest solution.  For w in the cone of a complete Hilbert basis
    greedy never fails: each remainder stays in the cone, so dominates a
    basis element unless zero, and subtracting never makes an earlier
    atom fit again.

    A miss backtracks from the last level but one.  The last atom has
    taken as many copies as fit, which leaves a remainder that is
    nonnegative wherever the atom is positive; fewer copies add a
    nonnegative multiple of the atom to it, so they leave a nonzero
    remainder too.  So a failing search costs the product of the counts
    of all levels but the last, linear in w for two atoms.
    """
    if any(x < 0 for u in (w, *atoms) for x in u):
        raise ValueError("n_combination expects nonnegative entries")
    order = sorted(range(len(atoms)), key=lambda i: atoms[i])
    n = len(order)
    counts = [0] * n
    rems = [tuple(w)] + [()] * n          # rems[k]: what levels k.. must cover
    k = 0
    while True:
        if k < n:
            counts[k] = min((r // x for r, x in zip(rems[k], atoms[order[k]]) if x), default=0)
        elif not any(rems[n]):
            return tuple(c for _, c in sorted(zip(order, counts)))
        else:
            k = n - 2
            while k >= 0 and counts[k] == 0:
                k -= 1
            if k < 0:
                return None
            counts[k] -= 1
        rems[k + 1] = tuple(r - counts[k] * x for r, x in zip(rems[k], atoms[order[k]]))
        k += 1


def decompose(w: Sequence[int], g: MinimalGenerators) -> Decomposition:
    """Coefficients of w over g's basis by `n_combination`: greedy subtraction
    on a complete basis; NotGeneratedError if a truncated basis has none."""
    w = tuple(int(x) for x in w)
    if not membership(w, g.system):
        raise ValueError("vector is not an admissible element of the cone")
    if all(x == 0 for x in w):
        raise ValueError("decompose expects a nonzero vector")
    counts = n_combination(w, g.basis)
    if counts is None:
        raise NotGeneratedError(f"{w} is not an N-combination of the basis")
    return Decomposition(coefficients=counts, generators=g)


def solutions_up_to(s: ConeSystem, bound: int) -> tuple[tuple[int, ...], ...]:
    """All nonzero solutions with max entry <= bound (oracle-side helper)."""
    return tuple(_enumerate_solutions(s, bound))
