"""Weight-level generation: base weight plus N-combinations of generators.

Each minimal generator carries a connected surface; torus generators
contribute their own weight, Klein-bottle generators contribute the
doubled weight of the boundary torus of a tubular neighborhood.  Odd
multiples of a Klein generator are not reachable from a given base and
signal that a different (half-twisted) base structure is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .surface import BranchedSurface, Classification, carried_surface

if TYPE_CHECKING:
    from .hilbert import MinimalGenerators


@dataclass(frozen=True)
class GeneratorInfo:
    index: int
    weight: tuple[int, ...]
    classification: Classification
    effective: tuple[int, ...]    # weight itself for tori, doubled for Klein bottles


def classify_generators(b: BranchedSurface, g: MinimalGenerators) -> tuple[GeneratorInfo, ...]:
    """Tag each generator torus / klein_bottle / other via its carried surface."""
    infos = []
    for i, u in enumerate(g.basis):
        carried = carried_surface(b, u)
        if carried.connected:
            cls = carried.runs[0][3]
        else:
            cls = Classification.OTHER
        eff = tuple(2 * x for x in u) if cls is Classification.KLEIN_BOTTLE else u
        infos.append(GeneratorInfo(i, u, cls, eff))
    return tuple(infos)


@dataclass(frozen=True)
class LutzPlan:
    base: str
    coefficients: tuple[int, ...]
    generators: tuple[GeneratorInfo, ...]

    @property
    def parity_vector(self) -> tuple[int, ...]:
        """Mod-2 shadow of the coefficients; the plane-field class only sees this."""
        return tuple(n % 2 for n in self.coefficients)

    @property
    def total(self) -> int:
        return sum(self.coefficients)


def realize(plan: LutzPlan, base_weight: Sequence[int]) -> tuple[int, ...]:
    """base + sum n_i * (u_i or 2 u_i); admissible by linearity."""
    out = [int(x) for x in base_weight]
    for n, info in zip(plan.coefficients, plan.generators):
        if n == 0:
            continue
        if info.classification is Classification.OTHER:
            raise ValueError(f"generator {info.index} carries neither a torus nor a "
                             "Klein bottle; it cannot enter a twisting plan")
        for i, x in enumerate(info.effective):
            out[i] += n * x
    return tuple(out)


class RebaseRequired(ValueError):
    """target - base leaves the cone: the chosen base structure is wrong."""


def _exact_cover(delta: tuple[int, ...],
                 atoms: Sequence[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """Nonnegative integer combination of atoms equal to delta, or None.

    Depth-first over the atoms in sorted order, one level per atom; each
    level tries its count from the most that fits down to zero.  The first
    count vector tried is the greedy path (always the first atom that
    fits), and the first hit is the lexicographically greatest solution.
    """
    order = sorted(range(len(atoms)), key=lambda i: atoms[i])
    n = len(order)
    counts = [0] * n
    rems = [tuple(delta)] + [()] * n      # rems[k]: what levels k.. must cover
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


def plan_for(target: Sequence[int], base: Sequence[int],
             generators: tuple[GeneratorInfo, ...],
             base_label: str = "base") -> LutzPlan:
    """Coefficient plan writing target as base plus generator twists."""
    target = tuple(int(x) for x in target)
    base = tuple(int(x) for x in base)
    delta = tuple(t - b for t, b in zip(target, base))
    if any(x < 0 for x in delta):
        raise RebaseRequired("target - base has a negative entry: re-base required")
    usable = [info for info in generators
              if info.classification is not Classification.OTHER]
    counts = _exact_cover(delta, [info.effective for info in usable])
    if counts is None:
        raise RebaseRequired("target - base is not an N-combination of the "
                             "generator weights: re-base required")
    full = [0] * len(generators)
    for info, n in zip(usable, counts):
        full[info.index] = n
    return LutzPlan(base=base_label, coefficients=tuple(full), generators=generators)


def enumerate_structures(generators: tuple[GeneratorInfo, ...],
                         base: Sequence[int], bound: int) -> Iterator[tuple[int, ...]]:
    """All weights base + sum n_i * atom_i with sum n_i <= bound, deduplicated.

    Deterministic stream: weights appear in sorted order; distinct
    coefficient plans that collide yield one weight.
    """
    base = tuple(int(x) for x in base)
    atoms = [info.effective for info in generators
             if info.classification is not Classification.OTHER]
    seen = {base}
    frontier = {base}
    for _ in range(bound):
        nxt = set()
        for w in frontier:
            for a in atoms:
                v = tuple(x + y for x, y in zip(w, a))
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    yield from sorted(seen)
