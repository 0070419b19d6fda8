"""Seeded input generators: branched surfaces, face complexes, domains.

Everything here builds plain JSON-ready dicts in the canonical document
layout (the one ``bsurf.io.dumps`` writes), so a generated document is
already in normal form and ``dumps(loads(text)) == text`` is a property
the benchmark can check.  Nothing here calls the program.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction


def canonical(surfaces=(), weights=(), domains=(), faces=(), dividing_sets=(),
              tetrahedra=(), holonomy=(), ensembles=(), prism_configs=()) -> str:
    """Document text in the canonical layout: sorted entities, indent 1."""
    raw = {
        "format_version": 1,
        "branched_surfaces": sorted(surfaces, key=lambda s: s["name"]),
        "weights": sorted(weights, key=lambda w: w["name"]),
        "fibered_domains": sorted(domains, key=lambda d: d["name"]),
        "faces": sorted(faces, key=lambda f: f["face"]),
        "dividing_sets": sorted(dividing_sets, key=lambda d: d["face"]),
        "tetrahedra": sorted(tetrahedra, key=lambda t: t["index"]),
        "holonomy": sorted(holonomy, key=lambda h: h["tet"]),
        "ensembles": sorted(ensembles, key=lambda e: e["name"]),
        "prism_configurations": sorted(prism_configs, key=lambda p: p["name"]),
    }
    return json.dumps(raw, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Branched surfaces


def _ref(arc, side, along=1):
    return {"arc": arc, "side": side, "along": along}


def _sector(index, chi, cycles, name="", orientable=True):
    return {"index": index, "euler_char": chi, "orientable": orientable, "name": name,
            "boundary_cycles": cycles}


def _arc(index, merged, upper, lower, endpoints="closed", rev_u=False, rev_l=False):
    return {"index": index, "merged_sector": merged, "upper_sector": upper,
            "lower_sector": lower, "endpoints": endpoints,
            "reversed_upper": rev_u, "reversed_lower": rev_l}


def _surface(name, sectors, arcs, tps=()):
    return {"name": name, "sectors": list(sectors), "branch_arcs": list(arcs),
            "triple_points": [{"index": i, "arcs": list(a)} for i, a in tps]}


def theta(twist=False):
    """Three annuli over two closed branch circles; relations x2 = x0 + x1."""
    sectors = [_sector(i, 0, [[_ref(0, side)], [_ref(1, side)]], n)
               for i, (side, n) in enumerate((("upper", "x"), ("lower", "y"), ("merged", "z")))]
    arcs = [_arc(0, 2, 0, 1), _arc(1, 2, 0, 1, rev_u=twist)]
    return _surface("theta-twisted" if twist else "theta", sectors, arcs)


def three_sheets(name="three-sheets"):
    sectors = [_sector(i, 1, [[_ref(0, side), _ref(1, side)]], f"p{i}")
               for i, side in enumerate(("merged", "upper", "lower"))]
    arcs = [_arc(0, 0, 1, 2, [0, 0]), _arc(1, 0, 1, 2, [0, 0])]
    return _surface(name, sectors, arcs, [(0, (0, 1))])


def wedge(rng: random.Random, name="wedge"):
    """Two branch loops at one triple point, random chi and cycle orders."""
    sectors = []
    for i, side in enumerate(("merged", "upper", "lower")):
        cycle = [_ref(0, side), _ref(1, side)]
        if i and rng.random() < 0.5:
            cycle.reverse()
        sectors.append(_sector(i, rng.randrange(-1, 2), [cycle], "mul"[i]))
    arcs = [_arc(0, 0, 1, 2, [0, 0]), _arc(1, 0, 1, 2, [0, 0])]
    return _surface(name, sectors, arcs, [(0, (0, 1))])


def two_vertex_wedge(rng: random.Random, name="two-vertex-wedge"):
    sectors = [_sector(i, rng.randrange(-1, 2), [[_ref(0, side), _ref(1, side, -1)]])
               for i, side in enumerate(("merged", "upper", "lower"))]
    arcs = [_arc(0, 0, 1, 2, [0, 1]), _arc(1, 0, 1, 2, [0, 1])]
    return _surface(name, sectors, arcs, [(0, (0, 1)), (1, (0, 1))])


def switch_surface(name, d, rows, rng: random.Random, flip=0.3):
    """Surface whose switch system is ``rows``: one closed circle per row.

    Row j = (m, u, l) merges sectors u and l into m.  Each sector gets one
    boundary cycle per circle it meets, so a sector met by r circles is a
    planar surface with r holes (chi = 2 - r); the co-orientation flips
    are drawn from ``rng``.
    """
    cycles = [[] for _ in range(d)]
    arcs = []
    for j, (m, u, l) in enumerate(rows):
        arcs.append(_arc(j, m, u, l, rev_u=rng.random() < flip, rev_l=rng.random() < flip))
        for s, side in ((m, "merged"), (u, "upper"), (l, "lower")):
            cycles[s].append([_ref(j, side)])
    sectors = [_sector(i, 2 - len(c), c, f"s{i}") for i, c in enumerate(cycles)]
    return _surface(name, sectors, arcs)


def track_rows(rng: random.Random, n_switch: int):
    """Switches of a random trivalent graph: each edge end at one switch.

    The suspension has one annulus (chi 0) per edge, so every sector is
    met by exactly two circles.
    """
    n_edges = 3 * n_switch // 2
    while True:
        ends = [e for e in range(n_edges) for _ in (0, 1)]
        rng.shuffle(ends)
        rows = [tuple(ends[3 * s:3 * s + 3]) for s in range(n_switch)]
        if all(len(set(r)) == 3 for r in rows):
            return n_edges, rows


def track_surface(rng: random.Random, n_switch: int, name: str):
    d, rows = track_rows(rng, n_switch)
    return switch_surface(name, d, rows, rng), d, rows


def cone_rows(d: int, m: int, rng: random.Random):
    """Switch-style pattern x_j = x_(j+1) + x_(j+3), j < m, sectors relabelled.

    How hard the cone is for Contejean-Devie depends on the pattern and,
    by up to a factor of two, on the labelling drawn from ``rng``.
    """
    perm = list(range(d))
    rng.shuffle(perm)
    return [(perm[j % d], perm[(j + 1) % d], perm[(j + 3) % d]) for j in range(m)]


def relations(d, rows):
    out = []
    for m, u, l in rows:
        r = [0] * d
        r[m] += 1
        r[u] -= 1
        r[l] -= 1
        out.append(tuple(r))
    return out


def holds(rels, w) -> bool:
    return all(sum(c * x for c, x in zip(r, w)) == 0 for r in rels)


def minimal_solutions(rels, d: int, bound: int):
    """Pure-Python oracle: minimal nonzero solutions with entries <= bound."""
    sols = [w for w in itertools.product(range(bound + 1), repeat=d)
            if any(w) and holds(rels, w)]
    sols.sort(key=sum)
    out = []
    for w in sols:
        if not any(all(a >= b for a, b in zip(w, m)) for m in out):
            out.append(w)
    return sorted(out)


# ---------------------------------------------------------------------------
# Fibered domains and ensembles


def domain(name, surface, boundary):
    n_arcs = len(surface["branch_arcs"])
    return {"name": name, "surface": surface["name"],
            "vertical_annuli": [{"index": a, "arcs": [a], "concave": [True, True]}
                                for a in range(n_arcs)],
            "boundary_sectors": sorted(boundary)}


BASE_ANGLE = Fraction(3, 2)


def ensemble(name, domain_name, weights):
    """Base structure plus one structure per weight: angle = base + 2 w."""
    d = len(weights[0])
    structures = [{"label": "base", "angles": [str(BASE_ANGLE)] * d}]
    for i, w in enumerate(weights):
        structures.append({"label": f"x{i}",
                           "angles": [str(BASE_ANGLE + 2 * x) for x in w]})
    return {"name": name, "domain": domain_name, "structures": structures}


def combinations_of(basis, count: int, rng: random.Random, max_coeff=3):
    """``count`` distinct nonzero N-combinations of ``basis``.

    The coefficient range doubles whenever draws keep repeating, so a
    small basis still yields ``count`` distinct weights.
    """
    seen = set()
    out = []
    d = len(basis[0])
    misses = 0
    while len(out) < count:
        coeffs = [rng.randrange(max_coeff + 1) for _ in basis]
        w = tuple(sum(n * u[i] for n, u in zip(coeffs, basis)) for i in range(d))
        if any(coeffs) and w not in seen:
            seen.add(w)
            out.append(w)
            continue
        misses += 1
        if misses > 4 * count:
            max_coeff *= 2
            misses = 0
    return out


# ---------------------------------------------------------------------------
# Faces, complexes and prism data


def stack_layout(k: int):
    """Edge slots and nested arcs of a face with k arcs at each corner.

    Arc i at corner e joins slot a on edge e (position len-1-i, so arc 0
    hugs the corner) to slot b on edge e+1 (position i).  Returns the
    edge slot lists and ``corner[e][i] = (a, b)``.
    """
    edges = [[None] * (2 * k) for _ in range(3)]
    corner = [[None] * k for _ in range(3)]
    slot = 0
    for e in range(3):
        for i in range(k):
            a, b = slot, slot + 1
            slot += 2
            edges[e][2 * k - 1 - i] = a
            edges[(e + 1) % 3][i] = b
            corner[e][i] = (a, b)
    return edges, corner


def random_matching(order, rng: random.Random):
    """Random non-crossing perfect matching of slots in cyclic order."""
    n = len(order) // 2
    opens_left, depth, stack, arcs = n, 0, [], []
    for pos, s in enumerate(order):
        remaining = len(order) - pos
        must_close = depth == remaining
        if opens_left and not must_close and (depth == 0 or rng.random() < 0.5):
            stack.append(s)
            opens_left -= 1
            depth += 1
        else:
            arcs.append((stack.pop(), s))
            depth -= 1
    return arcs


def face_entry(fid, edges):
    return {"face": fid, "edge_slots": [list(e) for e in edges], "oriented_ccw": True}


def dividing_entry(fid, arcs):
    return {"face": fid, "arcs": [list(a) for a in arcs]}


def stack_arcs(corner):
    return [a for e in range(3) for a in corner[e]]


def boundary_order(edges):
    return [s for e in edges for s in e]


def noncrossing(edges, arcs) -> bool:
    """Linear stack scan: a matching is planar iff it nests like brackets."""
    arc_of = {}
    for a, b in arcs:
        arc_of[a] = arc_of[b] = (a, b)
    order = boundary_order(edges)
    if sorted(order) != sorted(arc_of):
        return False
    stack = []
    for s in order:
        arc = arc_of[s]
        if stack and stack[-1] == arc:
            stack.pop()
        else:
            stack.append(arc)
    return not stack


def face_id(tri):
    return "F" + "".join(v[1:] for v in tri)


def tetrahedron(tid, verts):
    """Tetrahedron over four vertex names; faces are sorted vertex triples."""
    order = {v: i for i, v in enumerate(verts)}
    tris = [tuple(sorted(t, key=order.get)) for t in itertools.combinations(verts, 3)]
    edges = []
    for idx, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        pair = (verts[i], verts[j])
        faces, locs = [], []
        for tri in tris:
            if pair[0] in tri and pair[1] in tri:
                p = sorted((tri.index(pair[0]), tri.index(pair[1])))
                faces.append(face_id(tri))
                locs.append({(0, 1): 0, (1, 2): 1, (0, 2): 2}[tuple(p)])
        edges.append({"index": idx, "vertices": list(pair), "faces": faces,
                      "face_edges": locs})
    tet = {"index": tid, "vertices": list(verts),
           "faces": sorted(face_id(t) for t in tris), "edges": edges}
    return tet, tris


def holonomy_minus_one(tet):
    """Symmetric shifts: -1 on a perfect matching of the tetrahedron's edges.

    Every vertex lies on exactly one matched edge, so each corner circuit
    composes to -1 whichever way it is walked.
    """
    v = tet["vertices"]
    matched = {(v[0], v[1]), (v[2], v[3])}
    crossings = []
    for e in tet["edges"]:
        shift = -1 if tuple(e["vertices"]) in matched else 0
        f0, f1 = e["faces"]
        crossings.append({"edge": e["index"], "face_from": f0, "face_to": f1, "shift": shift})
        crossings.append({"edge": e["index"], "face_from": f1, "face_to": f0, "shift": shift})
    return {"tet": tet["index"], "crossings": crossings}


def corner_of(tri, vertex):
    """Stack (corner) index of ``vertex`` in face ``tri`` = (a, b, c)."""
    return {1: 0, 2: 1, 0: 2}[tri.index(vertex)]
