"""Weight-level generation: base weight plus N-combinations of generators.

Each minimal generator carries a connected surface; torus generators
contribute their own weight, Klein-bottle generators contribute the
doubled weight of the boundary torus of a tubular neighborhood.  Odd
multiples of a Klein generator are not reachable from a given base and
signal that a different (half-twisted) base structure is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .hilbert import MinimalGenerators, n_combination
from .surface import BranchedSurface, Classification, carried_surface


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


def _vector(name: str, v: Sequence[int], generators: tuple[GeneratorInfo, ...]):
    """``v`` as a tuple of ints, of the generators' length when there are any."""
    v = tuple(int(x) for x in v)
    if generators and len(v) != len(generators[0].weight):
        raise ValueError(f"{name} length {len(v)} != generator length "
                         f"{len(generators[0].weight)}")
    return v


def plan_for(target: Sequence[int], base: Sequence[int],
             generators: tuple[GeneratorInfo, ...],
             base_label: str = "base") -> LutzPlan:
    """Coefficient plan writing target as base plus generator twists.

    A target or base whose length differs from the generators' raises
    ValueError.  Whether they meet the switch equations is the caller's
    check (``surface.weight_fault``, as ``cli._weight`` runs it)."""
    target = _vector("target", target, generators)
    base = _vector("base", base, generators)
    delta = tuple(t - b for t, b in zip(target, base))
    if any(x < 0 for x in delta):
        raise RebaseRequired("target - base has a negative entry: re-base required")
    usable = [info for info in generators
              if info.classification is not Classification.OTHER]
    counts = n_combination(delta, [info.effective for info in usable])
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
    coefficient plans that collide yield one weight.  A base whose length
    differs from the generators' raises ValueError at the first step of the
    stream; whether it meets the switch equations is the caller's check
    (``surface.weight_fault``, as ``cli._weight`` runs it).
    """
    base = _vector("base", base, generators)
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
