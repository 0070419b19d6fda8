"""Hand-built models and random generators shared by tests and scripts."""

from __future__ import annotations

import random
from fractions import Fraction
from .dividing import DividingSet, FaceModel
from .domain import AdjustedStructure, FiberedDomain, VerticalAnnulus, make_angles
from .prisms import Crossing, EdgeData, HolonomyData, Tetrahedron
from .surface import BranchArc, BranchedSurface, CycleRef, Sector, Side, TriplePoint


def torus_surface(genus: int = 1) -> BranchedSurface:
    """A single closed sector of the given genus, no branching."""
    chi = 2 - 2 * genus
    return BranchedSurface((Sector(0, chi, (), True, f"genus{genus}"), ), (), (),
                           name=f"closed-genus-{genus}")


def theta_surface(twist: bool = False) -> BranchedSurface:
    """Suspension of the theta track: three annuli over two closed branch circles.

    Both circles merge sectors 0 and 1 into sector 2 (relations
    x2 = x0 + x1 twice); the twisted variant reverses the co-orientation
    of the upper continuation at the second circle, so minimal weights
    carry Klein bottles instead of tori.
    """
    sx = Sector(0, 0, ((CycleRef(0, Side.UPPER),), (CycleRef(1, Side.UPPER),)), True, "x")
    sy = Sector(1, 0, ((CycleRef(0, Side.LOWER),), (CycleRef(1, Side.LOWER),)), True, "y")
    sz = Sector(2, 0, ((CycleRef(0, Side.MERGED),), (CycleRef(1, Side.MERGED),)), True, "z")
    a = BranchArc(0, 2, 0, 1)
    b = BranchArc(1, 2, 0, 1, reversed_upper=twist)
    return BranchedSurface((sx, sy, sz), (a, b), (),
                           name="theta-twisted" if twist else "theta")


def three_sheets_surface() -> BranchedSurface:
    """Closed three-sheet model: one merged sheet, two tabs.

    Two branch arcs based at a single triple point, both merging sector
    1 over sector 2 into sector 0; the compact stand-in for the wedge of
    three planes along two crossing branch lines.
    """
    s0 = Sector(0, 1, ((CycleRef(0, Side.MERGED), CycleRef(1, Side.MERGED)),), True, "p0")
    s1 = Sector(1, 1, ((CycleRef(0, Side.UPPER), CycleRef(1, Side.UPPER)),), True, "p1")
    s2 = Sector(2, 1, ((CycleRef(0, Side.LOWER), CycleRef(1, Side.LOWER)),), True, "p2")
    a = BranchArc(0, 0, 1, 2, endpoints=(0, 0))
    b = BranchArc(1, 0, 1, 2, endpoints=(0, 0))
    return BranchedSurface((s0, s1, s2), (a, b), (TriplePoint(0, (0, 1)),),
                           name="three-sheets")


def three_sheets_domain() -> FiberedDomain:
    """The three-slab fibered domain over the three-sheet model."""
    return FiberedDomain(
        quotient=three_sheets_surface(),
        vertical_annuli=(VerticalAnnulus(0, arcs=(0,)), VerticalAnnulus(1, arcs=(1,))),
        boundary_sectors=frozenset(),
        name="three-slabs")


def theta_domain(twist: bool = False, boundary: tuple[int, ...] = ()) -> FiberedDomain:
    return FiberedDomain(
        quotient=theta_surface(twist),
        vertical_annuli=(VerticalAnnulus(0, arcs=(0,)), VerticalAnnulus(1, arcs=(1,))),
        boundary_sectors=frozenset(boundary),
        name="theta-domain")


def product_domain(genus: int = 1, boundary: tuple[int, ...] = ()) -> FiberedDomain:
    """Trivial interval bundle: unbranched quotient, no vertical concavity."""
    return FiberedDomain(quotient=torus_surface(genus), vertical_annuli=(),
                         boundary_sectors=frozenset(boundary), name="product")


def base_structure(fd: FiberedDomain, value=Fraction(3, 2), label: str = "base") -> AdjustedStructure:
    n = len(fd.quotient.sectors)
    return AdjustedStructure(domain=fd, angle=make_angles([value] * n), label=label)


# ---------------------------------------------------------------------------
# Hexagon fixtures


def stack_face(n_ab: int, n_bc: int = 0, n_ca: int = 0, face: str = "F"):
    """Hexagon with parallel stacks of arcs between the three edge pairs.

    Slot layout per edge: first the arcs to the previous edge, then the
    arcs to the next edge, matching a standard triangle picture with
    straight chords near the corners.
    """
    counts = {(0, 1): n_ab, (1, 2): n_bc, (0, 2): n_ca}
    slot = 0
    edge_slots: list[list[int]] = [[], [], []]
    arcs = []
    for e in range(3):
        prev_pair = tuple(sorted((e, (e - 1) % 3)))
        next_pair = tuple(sorted((e, (e + 1) % 3)))
        edge_slots[e] = [None] * (counts[prev_pair] + counts[next_pair])
    # chords hugging corner k join the end of edge k to the start of edge k+1
    for e in range(3):
        f2 = (e + 1) % 3
        pair = tuple(sorted((e, f2)))
        n = counts[pair]
        for i in range(n):
            a = slot
            slot += 1
            b = slot
            slot += 1
            # nested around corner e: innermost chord closest to the corner
            edge_slots[e][len(edge_slots[e]) - 1 - i] = a
            edge_slots[f2][i] = b
            arcs.append((a, b))
    fm = FaceModel(face=face, edge_slots=tuple(tuple(s) for s in edge_slots))
    return DividingSet(face=fm, arcs=tuple(arcs))


def parallel_face(n: int, face: str = "F") -> DividingSet:
    """n parallel arcs between edges 0 and 1 only."""
    return stack_face(n, 0, 0, face=face)


def face_with_boundary_parallel(face: str = "F") -> DividingSet:
    """Two edge-to-edge arcs plus one boundary-parallel arc on edge 0."""
    edge_slots = ((0, 1, 2, 3), (4, 5), ())
    fm = FaceModel(face=face, edge_slots=edge_slots)
    return DividingSet(face=fm, arcs=((0, 5), (1, 2), (3, 4)))


def single_arc_disk(face: str = "D") -> DividingSet:
    """A disk whose dividing set is one boundary-parallel arc."""
    fm = FaceModel(face=face, edge_slots=((0, 1), (), ()))
    return DividingSet(face=fm, arcs=((0, 1),))


# ---------------------------------------------------------------------------
# Tetrahedron fixture


def _tetrahedron_from(verts, tet: str, slots_per_edge: int, models: dict):
    """Tetrahedron over four vertices with stack faces, reusing shared models.

    Faces are labelled by their vertex triples ("F123" for s1 s2 s3);
    local edge convention: edge (i, i+1) of face (a, b, c) is local edge
    i, the long side (a, c) is local edge 2.
    """
    n = slots_per_edge
    if n % 2:
        raise ValueError("slots_per_edge must be even for three equal stacks")
    k = n // 2
    face_ids = {}
    tris = [tuple(sorted(tri)) for tri in
            ((verts[0], verts[1], verts[2]), (verts[0], verts[1], verts[3]),
             (verts[0], verts[2], verts[3]), (verts[1], verts[2], verts[3]))]
    for tri in tris:
        fid = "F" + "".join(v[1] for v in tri)
        face_ids[tri] = fid
        if fid not in models:
            models[fid] = stack_face(k, k, k, face=fid).face
    edge_list = []
    idx = 0
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        pair = (verts[i], verts[j])
        adjacent = []
        for tri, fid in face_ids.items():
            if pair[0] in tri and pair[1] in tri:
                i0, i1 = tri.index(pair[0]), tri.index(pair[1])
                local = min(i0, i1) if {i0, i1} != {0, 2} else 2
                adjacent.append((fid, local))
        edge_list.append(EdgeData(index=idx, vertices=pair,
                                  faces=(adjacent[0][0], adjacent[1][0]),
                                  face_edges=(adjacent[0][1], adjacent[1][1])))
        idx += 1
    return Tetrahedron(index=tet, vertices=tuple(verts),
                       faces=tuple(sorted(face_ids.values())),
                       edges=tuple(edge_list))


def simple_tetrahedron(slots_per_edge: int = 2, tet: str = "G"):
    """One tetrahedron with four stack faces and agreeing edge slot counts."""
    models: dict = {}
    t = _tetrahedron_from(("s1", "s2", "s3", "s4"), tet, slots_per_edge, models)
    return t, models


def two_tetrahedra(slots_per_edge: int = 4):
    """Two tetrahedra glued along the face F123; shared face model."""
    models: dict = {}
    t1 = _tetrahedron_from(("s1", "s2", "s3", "s4"), "G1", slots_per_edge, models)
    t2 = _tetrahedron_from(("s1", "s2", "s3", "s5"), "G2", slots_per_edge, models)
    return (t1, t2), models


def holonomy_all_minus_one(t: Tetrahedron) -> HolonomyData:
    """Shift data giving every corner circuit holonomy -1.

    Crossings inside the etale arc shift by 0; the crossing over the
    measuring edge shifts by -1 in either direction.
    """
    crossings = []
    for e in t.edges:
        f0, f1 = e.faces
        crossings.append(Crossing(edge=e.index, face_from=f0, face_to=f1, shift=0))
        crossings.append(Crossing(edge=e.index, face_from=f1, face_to=f0, shift=0))
    data = HolonomyData(tet=t.index, crossings=tuple(crossings))
    # bump the closing crossing of each canonical circuit to -1
    from .prisms import canonical_circuits
    shifts = {(c.edge, c.face_from, c.face_to): c.shift for c in data.crossings}
    for circ in canonical_circuits(t):
        face, edge = circ.corners[-1]
        first = circ.corners[0][0]
        shifts[(edge, face, first)] = -1
    return HolonomyData(tet=t.index, crossings=tuple(
        Crossing(edge=k[0], face_from=k[1], face_to=k[2], shift=v)
        for k, v in sorted(shifts.items())))


# ---------------------------------------------------------------------------
# Random generators


def random_track_suspension(rng: random.Random) -> BranchedSurface:
    """Random suspension of a trivalent switch graph: annuli over circles.

    Every sector end is consumed by exactly one switch role, so the
    incidence is automatically slot-perfect; retries until connected.
    """
    while True:
        n_switch = rng.choice((2, 4))
        n_edges = 3 * n_switch // 2
        ends = [(e, side) for e in range(n_edges) for side in (0, 1)]
        rng.shuffle(ends)
        arcs = []
        cycle_refs: dict[int, dict[int, CycleRef]] = {e: {} for e in range(n_edges)}
        ok = True
        for s in range(n_switch):
            trio = ends[3 * s:3 * s + 3]
            if len({e for e, _ in trio}) < 2:
                ok = False
                break
            (em, sm), (eu, su), (el, sl) = trio
            arcs.append(BranchArc(s, em, eu, el,
                                  reversed_upper=rng.random() < 0.3,
                                  reversed_lower=rng.random() < 0.3))
            cycle_refs[em][sm] = CycleRef(s, Side.MERGED)
            cycle_refs[eu][su] = CycleRef(s, Side.UPPER)
            cycle_refs[el][sl] = CycleRef(s, Side.LOWER)
        if not ok:
            continue
        sectors = tuple(
            Sector(e, rng.choice((-2, -1, 0, 0, 1)),
                   ((cycle_refs[e][0],), (cycle_refs[e][1],)),
                   orientable=True)
            for e in range(n_edges))
        b = BranchedSurface(sectors, tuple(arcs), (), name=f"track{n_switch}")
        from .surface import validate
        if validate(b).ok:
            return b


def random_wedge_surface(rng: random.Random) -> BranchedSurface:
    """Random coherent wedge: two branch loops at one triple point.

    Both loops carry the same role triple (merged, upper, lower), the
    coherence that keeps the sheet stacks aligned at the crossing.
    """
    chis = [rng.randrange(-1, 2) for _ in range(3)]
    s0 = Sector(0, chis[0], ((CycleRef(0, Side.MERGED), CycleRef(1, Side.MERGED)),),
                orientable=True, name="m")
    order = [CycleRef(0, Side.UPPER), CycleRef(1, Side.UPPER)]
    if rng.random() < 0.5:
        order.reverse()
    s1 = Sector(1, chis[1], (tuple(order),), orientable=True, name="u")
    order2 = [CycleRef(0, Side.LOWER), CycleRef(1, Side.LOWER)]
    if rng.random() < 0.5:
        order2.reverse()
    s2 = Sector(2, chis[2], (tuple(order2),), orientable=True, name="l")
    a = BranchArc(0, 0, 1, 2, endpoints=(0, 0))
    b = BranchArc(1, 0, 1, 2, endpoints=(0, 0))
    return BranchedSurface((s0, s1, s2), (a, b), (TriplePoint(0, (0, 1)),),
                           name="wedge")


def random_two_vertex_surface(rng: random.Random) -> BranchedSurface:
    """Same-role wedge with two triple points: arcs run between them."""
    chis = [rng.randrange(-1, 2) for _ in range(3)]
    s0 = Sector(0, chis[0], ((CycleRef(0, Side.MERGED), CycleRef(1, Side.MERGED, -1)),))
    s1 = Sector(1, chis[1], ((CycleRef(0, Side.UPPER), CycleRef(1, Side.UPPER, -1)),))
    s2 = Sector(2, chis[2], ((CycleRef(0, Side.LOWER), CycleRef(1, Side.LOWER, -1)),))
    arcs = (BranchArc(0, 0, 1, 2, endpoints=(0, 1)),
            BranchArc(1, 0, 1, 2, endpoints=(0, 1)))
    tps = (TriplePoint(0, (0, 1)), TriplePoint(1, (0, 1)))
    return BranchedSurface((s0, s1, s2), arcs, tps, name="two-vertex-wedge")


def random_branched_surface(rng: random.Random) -> BranchedSurface:
    roll = rng.random()
    if roll < 0.45:
        return random_track_suspension(rng)
    if roll < 0.85:
        return random_wedge_surface(rng)
    return random_two_vertex_surface(rng)


def random_noncrossing_face(rng: random.Random, max_arcs: int = 8,
                            face: str = "R") -> DividingSet:
    """Random hexagon with a random non-crossing perfect matching."""
    n_arcs = rng.randrange(1, max_arcs + 1)
    total = 2 * n_arcs
    cuts = sorted(rng.sample(range(total + 1), 2))
    sizes = [cuts[0], cuts[1] - cuts[0], total - cuts[1]]
    slot = 0
    edge_slots = []
    for size in sizes:
        edge_slots.append(tuple(range(slot, slot + size)))
        slot += size
    fm = FaceModel(face=face, edge_slots=tuple(edge_slots))

    # random non-crossing matching of 0..total-1 in circular order: match
    # the first slot of a run, then the run inside that arc, then the rest
    arcs = []
    runs = [(0, total)]               # half-open slot ranges still to match
    while runs:
        lo, hi = runs.pop()
        if lo == hi:
            continue
        partner = lo + rng.randrange(0, (hi - lo) // 2) * 2 + 1
        arcs.append((lo, partner))
        runs.append((partner + 1, hi))
        runs.append((lo + 1, partner))
    return DividingSet(face=fm, arcs=tuple(arcs))
