"""Fibered domains, angle functions and the pruning procedure.

The domain is presented through its interval-fibration quotient: a
branched surface, per-sector boundary flags, and the vertical boundary
annuli with their concavity data.  Structures tangent to the fibration
are recorded by their total rotation angle per sector, in half-turn
units and exact rationals; integer-full-turn differences against a base
structure are the weight vectors of the surface module.

Pruning deletes the sector closures through a bounded-angle boundary
point and partitions a structure ensemble by the finitely many angle
values on the deleted sectors.  Iterating at boundary sectors shrinks
the quotient to a boundaryless branched surface or to nothing; that
chain of domains depends only on the domain, so the ensemble is split
once, by its angles on the removed sectors in removal order.

Angles are compared as exact integer rows: each value n/d of a set of
angle tables becomes the int n * (D // d), where D is the lcm of the
denominators that occur.  D > 0 keeps equality, order and the switch sums
exact.  An adjacency check then costs O(d) int operations for d sectors,
and a partition O(N·r) for N structures and r removed sectors plus a sort
of the distinct keys, where each step used to be a Fraction operation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .surface import (BranchedSurface, Sector, ValidationReport, Violation, switch_violation,
                      validate)


@dataclass(frozen=True)
class VerticalAnnulus:
    """One component of the vertical boundary: an annulus over branch arcs.

    ``arcs`` lists the branch arcs its quotient image covers; the two
    concavity flags are per boundary circle.  Fully concave annuli map
    onto the singular locus; any other annulus runs along the boundary
    of the quotient and covers no branch arc.
    """

    index: int
    arcs: tuple[int, ...] = ()
    concave: tuple[bool, bool] = (True, True)

    @property
    def fully_concave(self) -> bool:
        return all(self.concave)


@dataclass(frozen=True)
class FiberedDomain:
    quotient: BranchedSurface
    vertical_annuli: tuple[VerticalAnnulus, ...] = ()
    boundary_sectors: frozenset = frozenset()
    name: str = ""


def validate_domain(fd: FiberedDomain) -> ValidationReport:
    bad: list[Violation] = []
    base = validate(fd.quotient)
    bad.extend(base.violations)
    narcs = len(fd.quotient.branch_arcs)
    nsec = len(fd.quotient.sectors)
    coverage: dict[int, int] = {}
    covered_by_concave: set[int] = set()
    for ann in fd.vertical_annuli:
        for a in ann.arcs:
            if not 0 <= a < narcs:
                bad.append(Violation("dangling arc reference", f"annulus {ann.index}",
                                     f"arc {a} does not exist"))
                continue
            coverage[a] = coverage.get(a, 0) + 1
            if ann.fully_concave:
                covered_by_concave.add(a)
        if ann.arcs and not ann.fully_concave:
            bad.append(Violation("concavity", f"annulus {ann.index}",
                                 "an annulus covering branch arcs must be concave "
                                 "along both boundary circles"))
    for a, n in coverage.items():
        if n > 2:
            bad.append(Violation("fiber-crossing", f"arc {a}",
                                 f"covered by {n} vertical annuli; a fiber may cross "
                                 "the vertical boundary at most twice"))
    for a in range(narcs):
        if a not in covered_by_concave:
            bad.append(Violation("singular-locus", f"arc {a}",
                                 "branch arcs must be the image of a concave "
                                 "vertical component"))
    for s in fd.boundary_sectors:
        if not 0 <= s < nsec:
            bad.append(Violation("dangling sector reference", "boundary markers",
                                 f"sector {s} does not exist"))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def quotient(fd: FiberedDomain) -> BranchedSurface:
    """The branched surface underlying the domain, after checking the axioms."""
    report = validate_domain(fd)
    if not report.ok:
        raise ValueError("invalid fibered domain: "
                         + "; ".join(str(v) for v in report.violations))
    return fd.quotient


# ---------------------------------------------------------------------------
# Adjusted structures


@dataclass(frozen=True)
class AngleFunction:
    """Total rotation per sector, in half-turns (value a means a * pi)."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if type(v) is not Fraction and type(v) is not int:
                raise ValueError(f"angle on sector {i} must be an int or a Fraction, got {v!r}")
            if v.numerator <= 0:     # denominators are positive
                raise ValueError(f"angle on sector {i} must be positive, got {v}")

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self):
        return len(self.values)


def exact_angle(v) -> Fraction:
    """One angle as a Fraction, from an int, a Fraction or a string.  A string
    must have the integer or p/q form, with an optional sign, that ``str`` of
    a Fraction writes; any other string (an exponent, a decimal point, spaces,
    underscores) is rejected before ``Fraction`` parses it, so ``"1e1000000"``
    costs nothing.  Any other value is rejected, bools and inexact numbers included."""
    if type(v) is str:
        p, slash, q = (v[1:] if v[:1] in ("+", "-") else v).partition("/")
        if not (p.isascii() and p.isdigit() and (not slash or q.isascii() and q.isdigit())):
            raise ValueError(f"angle {v!r} is not an integer or p/q")
    elif type(v) is not int and type(v) is not Fraction:
        raise ValueError(f"angle {v!r} is not an int, a Fraction or a str")
    return Fraction(v)


def make_angles(values: Sequence) -> AngleFunction:
    return AngleFunction(values=tuple(exact_angle(v) for v in values))


@dataclass(frozen=True)
class AdjustedStructure:
    domain: FiberedDomain
    angle: AngleFunction
    label: str = ""

    def __post_init__(self):
        b = self.domain.quotient
        if len(self.angle) != len(b.sectors):
            raise ValueError("angle table length must match the sector count")


def _scaled(rows: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """Rows of exact values, given as (numerator, denominator) pairs, as ints
    over their lcm denominator D: n/d becomes n * (D // d) in every row, so
    rows compare and sum as the values do."""
    from math import lcm
    scale = {d: 0 for row in rows for _, d in row}
    D = lcm(*scale)
    for d in scale:
        scale[d] = D // d
    return [[n * scale[d] for n, d in row] for row in rows]


def check_adjacency(base: AdjustedStructure, other: AdjustedStructure) -> None:
    """Angle differences must satisfy the switch relations across every arc."""
    fault = first_incoherent((base, other))
    if fault is not None:
        raise ValueError(fault[1])


def first_incoherent(structures: Sequence[AdjustedStructure]) -> Optional[tuple[int, str]]:
    """The index of the first structure whose angle differences from
    ``structures[0]`` break a switch relation, with the reason, or None.

    All angle tables are scaled once, to exact integer rows over the lcm of
    the ensemble's denominators; a switch relation is linear, so one common
    scale changes no verdict, and each check costs O(d) int operations for d
    sectors.  The Fraction differences are built only to report a violation."""
    if not structures:
        return None
    base = structures[0]
    b = base.domain.quotient
    rows = _scaled([[v.as_integer_ratio() for v in x.angle.values] for x in structures])
    for i, row in enumerate(rows[1:], 1):
        arc = switch_violation(b, [y - x for x, y in zip(rows[0], row)])
        if arc is not None:
            diff = [o - a for o, a in zip(structures[i].angle.values, base.angle.values)]
            return i, (f"adjacency violated at arc {arc.index}: merged offset "
                       f"{diff[arc.merged_sector]} != "
                       f"{diff[arc.upper_sector] + diff[arc.lower_sector]}")
    return None


def weight_of(x: AdjustedStructure, base: AdjustedStructure) -> tuple[int, ...]:
    """Integer weight (x - base) / full turn; rejects fractional differences."""
    if x.domain is not base.domain and x.domain != base.domain:
        raise ValueError("structures live on different domains")
    weights = []
    for i, (ax, a0) in enumerate(zip(x.angle.values, base.angle.values)):
        diff = ax - a0
        w = diff / 2
        if w.denominator != 1:
            raise ValueError(
                f"sector {i}: angle difference {diff} half-turns is not a whole "
                "number of full turns; the structures are not adjusted to the same base")
        weights.append(int(w))
    check_adjacency(base, x)
    return tuple(weights)


def structure_from_weight(base: AdjustedStructure, w: Sequence[int],
                          label: str = "") -> AdjustedStructure:
    """Inverse of weight_of: angles base + full turn * w."""
    b = base.domain.quotient
    w = tuple(int(x) for x in w)
    if len(w) != len(b.sectors):
        raise ValueError("weight length must match the sector count")
    arc = switch_violation(b, w)
    if arc is not None:
        raise ValueError(f"weight violates the switch equation at arc {arc.index}")
    values = []
    for i, (a0, wi) in enumerate(zip(base.angle.values, w)):
        v = a0 + 2 * wi
        if v <= 0:
            raise ValueError(f"sector {i}: angle {v} half-turns would not be positive")
        values.append(v)
    return AdjustedStructure(domain=base.domain, angle=AngleFunction(tuple(values)),
                             label=label or f"{base.label}+w")


# ---------------------------------------------------------------------------
# Pruning


@dataclass(frozen=True)
class PruneClass:
    removed_angles: tuple[Fraction, ...]
    structures: tuple[AdjustedStructure, ...]


@dataclass(frozen=True)
class PruneResult:
    domain: FiberedDomain
    removed_sectors: tuple[int, ...]
    classes: tuple[PruneClass, ...]


def _restrict_surface(b: BranchedSurface, removed: set[int]):
    """Drop sector closures: the sectors, their arcs, orphaned triple points."""
    keep_sectors = [s for s in b.sectors if s.index not in removed]
    old_to_new = {s.index: i for i, s in enumerate(keep_sectors)}
    dead_arcs = {a.index for a in b.branch_arcs
                 if removed & {a.merged_sector, a.upper_sector, a.lower_sector}}
    # A triple point dies with either of its arcs, and an arc anchored at a
    # dead triple point dies with it (its closure met the removed closures).
    while True:
        dead_tps = {t.index for t in b.triple_points
                    if any(a in dead_arcs for a in t.arcs)}
        more = {a.index for a in b.branch_arcs
                if not a.is_closed and a.index not in dead_arcs
                and any(t in dead_tps for t in a.endpoints)}
        if not more:
            break
        dead_arcs |= more
    keep_arcs = [a for a in b.branch_arcs if a.index not in dead_arcs]
    arc_to_new = {a.index: i for i, a in enumerate(keep_arcs)}
    keep_tps = [t for t in b.triple_points
                if all(arc in arc_to_new for arc in t.arcs)]
    tp_to_new = {t.index: i for i, t in enumerate(keep_tps)}

    freed: set[int] = set()
    new_sectors = []
    for s in keep_sectors:
        cycles = []
        for cycle in s.boundary_cycles:
            kept = tuple(replace(r, arc=arc_to_new[r.arc])
                         for r in cycle if r.arc in arc_to_new)
            if len(kept) < len(cycle):
                freed.add(s.index)
            if kept:
                cycles.append(kept)
        new_sectors.append(Sector(index=old_to_new[s.index], euler_char=s.euler_char,
                                  boundary_cycles=tuple(cycles), orientable=s.orientable,
                                  name=s.name))
    new_arcs = tuple(
        replace(a, index=arc_to_new[a.index],
                merged_sector=old_to_new[a.merged_sector],
                upper_sector=old_to_new[a.upper_sector],
                lower_sector=old_to_new[a.lower_sector],
                endpoints=(a.endpoints if a.is_closed
                           else (tp_to_new[a.endpoints[0]], tp_to_new[a.endpoints[1]])))
        for a in keep_arcs)
    new_tps = tuple(
        replace(t, index=tp_to_new[t.index],
                arcs=(arc_to_new[t.arcs[0]], arc_to_new[t.arcs[1]]))
        for t in keep_tps)
    new_surface = BranchedSurface(sectors=tuple(new_sectors), branch_arcs=new_arcs,
                                  triple_points=new_tps, name=b.name)
    return new_surface, old_to_new, arc_to_new, freed


def _restrict(fd: FiberedDomain, removed: set[int]) -> FiberedDomain:
    """The smaller domain left after deleting the closures of ``removed``."""
    for s in removed:
        if not 0 <= s < len(fd.quotient.sectors):
            raise ValueError(f"sector {s} does not exist")
    new_surface, old_to_new, arc_to_new, freed = _restrict_surface(fd.quotient, removed)
    new_annuli = []
    for ann in fd.vertical_annuli:
        if all(a in arc_to_new for a in ann.arcs):
            new_annuli.append(replace(ann, index=len(new_annuli),
                                      arcs=tuple(arc_to_new[a] for a in ann.arcs)))
    new_boundary = {old_to_new[s] for s in fd.boundary_sectors | freed if s in old_to_new}
    return FiberedDomain(quotient=new_surface,
                         vertical_annuli=tuple(new_annuli),
                         boundary_sectors=frozenset(new_boundary),
                         name=fd.name)


def _partition(ensemble: Sequence[AdjustedStructure], removed: Sequence[int],
               domain: FiberedDomain, kept: Sequence[int]) -> list[tuple[tuple, list]]:
    """(angles on ``removed``, structures re-based onto ``domain`` at ``kept``),
    in ascending key order, each class in ensemble order.

    Structures are bucketed by their angles on ``removed`` as normalized
    (numerator, denominator) pairs, and the buckets are sorted by those
    angles as exact integer rows over the lcm denominator: O(N·r) int
    operations for N structures and r removed sectors, then a sort of the
    distinct rows."""
    buckets: dict[tuple, tuple[tuple, list[AdjustedStructure]]] = {}
    for x in ensemble:
        values = x.angle.values
        key = tuple(values[s] for s in removed)
        rebased = AdjustedStructure(domain, AngleFunction(tuple(values[s] for s in kept)), x.label)
        buckets.setdefault(tuple(v.as_integer_ratio() for v in key), (key, []))[1].append(rebased)
    # distinct keys scale to distinct rows, so the sort never compares buckets
    return [bucket for _, bucket in sorted(zip(_scaled(list(buckets)), buckets.values()))]


def prune(fd: FiberedDomain, ensemble: Sequence[AdjustedStructure],
          at: Sequence[int], cap: Fraction) -> PruneResult:
    """Delete the sector closures through a boundary point with angles below cap.

    The ensemble splits into classes by the angle values on the removed
    sectors; each class is re-based on the smaller domain.
    """
    removed = set(int(s) for s in at)
    if not removed:
        raise ValueError("prune requires at least one sector to remove")
    new_domain = _restrict(fd, removed)
    cap = Fraction(cap)
    for x in ensemble:
        for s in removed:
            if not x.angle[s] < cap:
                raise ValueError(
                    f"structure {x.label!r}: angle {x.angle[s]} on sector {s} "
                    f"is not below the cap {cap}")

    removed_sorted = tuple(sorted(removed))
    keep = [s.index for s in fd.quotient.sectors if s.index not in removed]
    classes = tuple(PruneClass(removed_angles=key, structures=tuple(v))
                    for key, v in _partition(ensemble, removed_sorted, new_domain, keep))
    return PruneResult(domain=new_domain, removed_sectors=removed_sorted, classes=classes)


def prune_to_closed(fd: FiberedDomain,
                    ensemble: Sequence[AdjustedStructure]) -> list[tuple[FiberedDomain, tuple[AdjustedStructure, ...]]]:
    """Prune at the lowest-index boundary sector until no boundary remains.

    The chain of domains depends only on the domain, so it is walked once,
    one restriction per step, down to a boundaryless or empty domain.  The
    ensemble splits once, keyed by its angles on the removed sectors in
    removal order: classes in descending key order, then stably by size.
    """
    terminal, kept, removed = fd, list(range(len(fd.quotient.sectors))), []
    while terminal.boundary_sectors and terminal.quotient.sectors:
        site = min(terminal.boundary_sectors)
        terminal = _restrict(terminal, {site})
        removed.append(kept.pop(site))
    if not removed:
        return [(fd, tuple(ensemble))]
    classes = [tuple(xs) for _, xs in reversed(_partition(ensemble, removed, terminal, kept))]
    return [(terminal, xs) for xs in sorted(classes, key=len)] or [(terminal, ())]
