"""The three workloads: seeded inputs, one round of operations, checks.

A workload is a list of ``Op``; a run repeats the whole list, so every
round attempts the same operations.  ``call`` is one call of a public
entry point (``bsurf.cli.main`` or a library function) on inputs built
before timing; ``check`` inspects its result against computations made
here, not against stored program output, and returns a message or None.
"""

from __future__ import annotations

import contextlib
import io as pyio
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import gen

# Faults that make an operation fail every time, on seed-independent input.
FAULTS = {
    "lutz-exact-cover-recursion":
        "bsurf lutz plan at theta target 1000,1000,2000: lutz._exact_cover recurses "
        "once per unit of coefficient and cli.main lets the RecursionError through",
    "region-split-recursion":
        "classify_pieces on a nested stack of 2,000 arcs: the recursive "
        "dividing._region_split raises RecursionError",
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    rung: Optional[int] = None       # ladder rung; top_rung_ms uses the largest
    fault: Optional[str] = None      # key of FAULTS if the op fails every time


class CliOut(NamedTuple):
    code: int
    out: str
    err: str


def cli(argv) -> CliOut:
    from bsurf import cli as bcli
    out, err = pyio.StringIO(), pyio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bcli.main(argv)
    return CliOut(code, out.getvalue(), err.getvalue())


def _vec(text):
    return tuple(int(x) for x in text.split(","))


def _fmt(w):
    return ",".join(str(x) for x in w)


def _expect_code(r: CliOut, code=0):
    if r.code != code:
        return f"exit code {r.code}, expected {code}: {r.err.strip()[:200]}"
    return None


def _antichain(vectors) -> bool:
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            if i != j and all(a >= b for a, b in zip(u, v)):
                return False
    return True


def _combine(coeffs, basis):
    d = len(basis[0]) if basis else 0
    return tuple(sum(n * u[i] for n, u in zip(coeffs, basis)) for i in range(d))


# ---------------------------------------------------------------------------
# weights: Hilbert bases, decompositions, twisting plans, pruning


def _check_hilbert(rels, d, oracle, oracle_flag):
    def check(r: CliOut):
        lines = r.out.splitlines()
        m = re.fullmatch(r"surface \S+: (\d+) minimal generators", lines[0] if lines else "")
        if not m:
            return f"unexpected header {lines[:1]}"
        n = int(m[1])
        gens = [_vec(line.strip()) for line in lines[1:1 + n]]
        for u in gens:
            if len(u) != d or min(u) < 0 or not any(u) or not gen.holds(rels, u):
                return f"generator {u} is not a nonzero solution"
        if gens != sorted(gens) or not _antichain(gens):
            return "generators are not a sorted antichain"
        if oracle is not None and {u for u in gens if max(u) <= 2} != set(oracle):
            return "basis differs from the brute-force minimal solutions with entries <= 2"
        tail = lines[1 + n:]
        if oracle_flag:
            ok = set(gens) == set(oracle)
            want = f"oracle check at bound 2: {'pass' if ok else 'FAIL'}"
            if tail != [want]:
                return f"oracle line {tail}, expected {want!r}"
            return _expect_code(r, 0 if ok else 2)
        return _expect_code(r) or (f"unexpected lines {tail[:2]}" if tail else None)
    return check


def _check_decompose(w, basis):
    def check(dec):
        c = dec.coefficients
        if len(c) != len(basis) or min(c) < 0:
            return f"coefficients {c} are not a nonnegative vector over the basis"
        if _combine(c, basis) != tuple(w):
            return f"recomposition of {c} is not {w}"
        return None
    return check


def _parse_generators(lines):
    gens = []
    for line in lines:
        m = re.fullmatch(r"generator (\d+) ([\d,]+): (\w+)", line)
        if not m:
            break
        gens.append((_vec(m[2]), m[3]))
    return gens


def _check_generator_classes(gens, classes):
    if classes is not None and [c for _, c in gens] != classes:
        return f"generator classes {[c for _, c in gens]}, expected {classes}"
    return None


def _check_plan(target, classes):
    def check(r: CliOut):
        lines = r.out.splitlines()
        gens = _parse_generators(lines)
        bad = _check_generator_classes(gens, classes) or _expect_code(r)
        if bad:
            return bad
        # chi-0 sectors and closed arcs: every minimal weight carries a torus
        # or a Klein bottle
        if any(c not in ("torus", "klein_bottle") for _, c in gens):
            return f"generator classes {[c for _, c in gens]} are not all tori or Klein bottles"
        rest = lines[len(gens):]
        m = re.fullmatch(r"plan: coefficients ([\d,]+) over base zero", rest[0] if rest else "")
        if not m or len(rest) != 2:
            return f"unexpected plan lines {rest[:2]}"
        coeffs = _vec(m[1])
        eff = [u if c == "torus" else tuple(2 * x for x in u) for u, c in gens]
        if min(coeffs) < 0 or _combine(coeffs, eff) != tuple(target):
            return f"plan {coeffs} does not realize {target}"
        if rest[1] != f"parity vector: {_fmt(n % 2 for n in coeffs)}":
            return f"parity line {rest[1]!r} does not match {coeffs}"
        return None
    return check


def _check_enumerate(rels, bound, count, classes):
    def check(r: CliOut):
        lines = r.out.splitlines()
        gens = _parse_generators(lines)
        bad = _check_generator_classes(gens, classes) or _expect_code(r)
        if bad:
            return bad
        body = lines[len(gens):-1]
        weights = [_vec(line.strip()) for line in body]
        if lines[-1] != f"enumerated {len(weights)} weights at bound {bound}":
            return f"count line {lines[-1]!r} does not match {len(weights)} weight lines"
        if count is not None and len(weights) != count:
            return f"{len(weights)} weights, expected C({bound}+2, 2) = {count}"
        if weights != sorted(set(weights)):
            return "enumerated weights are not distinct and sorted"
        if any(min(w) < 0 or not gen.holds(rels, w) for w in weights):
            return "an enumerated weight violates the switch relations"
        return None
    return check


def _check_prune(labels):
    def check(r: CliOut):
        lines = r.out.splitlines()
        m = re.fullmatch(r"ensemble \S+ on domain \S+: (\d+) terminal classes",
                         lines[0] if lines else "")
        if not m or len(lines) != 1 + int(m[1]) or int(m[1]) < 1:
            return f"unexpected prune header {lines[:1]}"
        seen = Counter()
        for line in lines[1:]:
            c = re.fullmatch(r"  class \d+: \d+ sectors, boundaryless: (\w+), structures: (\S+)",
                             line)
            if not c or c[1] != "True":
                return f"terminal class is not boundaryless: {line!r}"
            if c[2] != "-":
                seen.update(c[2].split(","))
        if seen != Counter(labels):
            return "terminal classes do not partition the ensemble"
        return _expect_code(r)
    return check


def weights(seed: int, work: Path):
    """Switch cones from d = 3 to 16, their decompositions, plans, pruning."""
    from bsurf import domain, hilbert, io, surface
    rng = random.Random(f"weights/{seed}")
    ops: list[Op] = []
    systems = []          # program bases, for decompose inputs

    def write(name, text):
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def program_basis(text, name):
        b = io.loads(text).surfaces[name]
        return hilbert.minimal_generators(surface.switch_system(b))

    # Ladder of switch systems: trivalent-graph suspensions, then cones.
    tracks = {}
    ladder = [("track", n, 3 * n // 2, 1) for n in (2, 4, 6, 8, 10)]
    ladder += [("cone", d, d, count) for d, count in ((10, 1), (12, 2), (14, 2), (16, 7))]
    for kind, size, d, count in ladder:
        for j in range(count):
            name = f"{kind}{size}-{j}"
            while True:                  # a system whose cone is {0} has nothing to decompose
                if kind == "track":
                    s, d, rows = gen.track_surface(rng, size, name)
                else:
                    # labelling fixed per instance, so each rung is as hard on
                    # every seed; the seed still draws the co-orientation flips
                    rows = gen.cone_rows(d, 3 * d // 4, random.Random(f"cone/{d}/{j}"))
                    s = gen.switch_surface(name, d, rows, rng)
                text = gen.canonical(surfaces=[s])
                g = program_basis(text, name)
                if g.basis:
                    break
            rels = gen.relations(d, rows)
            path = write(f"{name}.json", text)
            oracle = gen.minimal_solutions(rels, d, 2) if d <= 9 else None
            argv = ["hilbert", path] + (["--oracle-bound", "2"] if d <= 6 else [])
            ops.append(Op(f"hilbert {name} d={d}", lambda a=argv: cli(a),
                          _check_hilbert(rels, d, oracle, d <= 6), rung=d))
            systems.append(g)
            if kind == "track":
                tracks[size] = (s, rels, path, g)

    # Decompositions: every theta weight with a + b <= 3, then one random
    # N-combination per system (pooled, so the count never depends on the seed).
    thetas = [gen.theta(), gen.theta(twist=True)]
    theta_text = gen.canonical(surfaces=thetas)
    theta_path = write("theta.json", theta_text)
    g_theta = program_basis(theta_text, "theta")
    theta_weights = [(a, s - a, s) for s in range(1, 4) for a in range(s + 1)]
    inputs = [(w, g_theta) for w in theta_weights]
    for j in range(len(ladder)):
        g = systems[j % len(systems)]
        inputs.append((gen.combinations_of(g.basis, 1, rng)[0], g))
    for w, g in inputs:
        ops.append(Op(f"decompose d={len(w)}", lambda w=w, g=g: hilbert.decompose(w, g),
                      _check_decompose(w, g.basis)))

    # Twisting plans.  The last target's coefficient sum is 2,000.
    theta_rels = gen.relations(3, [(2, 0, 1), (2, 0, 1)])
    classes = {"theta": ["torus", "torus"], "theta-twisted": ["torus", "klein_bottle"]}
    plans = []
    for _ in range(2):
        a, b = rng.randint(20, 300), rng.randint(20, 300)
        plans.append((theta_path, "theta", (a, b, a + b)))
        a = 2 * rng.randint(10, 150)
        plans.append((theta_path, "theta-twisted", (a, b, a + b)))
    for n in (4, 6):
        s, rels, path, g = tracks[n]
        coeffs = [rng.randint(0, 2) for _ in g.basis]
        coeffs[0] = max(coeffs[0], 1)
        plans.append((path, s["name"], tuple(2 * x for x in _combine(coeffs, g.basis))))
    for path, sname, target in plans:
        argv = ["lutz", "plan", path, "--surface", sname, "--target", _fmt(target)]
        ops.append(Op(f"lutz plan {sname}", lambda a=argv: cli(a),
                      _check_plan(target, classes.get(sname))))
    argv = ["lutz", "plan", theta_path, "--surface", "theta", "--target", "1000,1000,2000"]
    ops.append(Op("lutz plan theta 1000,1000,2000", lambda a=argv: cli(a),
                  _check_plan((1000, 1000, 2000), classes["theta"]),
                  fault="lutz-exact-cover-recursion"))

    # Enumeration: C(bound + 2, 2) weights on both thetas.
    enum = [(theta_path, "theta", theta_rels, 20), (theta_path, "theta-twisted", theta_rels, 12),
            (tracks[4][2], tracks[4][0]["name"], tracks[4][1], 6),
            (tracks[6][2], tracks[6][0]["name"], tracks[6][1], 4)]
    for path, sname, rels, bound in enum:
        count = math.comb(bound + 2, 2) if sname in classes else None
        argv = ["lutz", "enumerate", path, "--surface", sname, "--bound", str(bound)]
        ops.append(Op(f"lutz enumerate {sname} bound={bound}", lambda a=argv: cli(a),
                      _check_enumerate(rels, bound, count, classes.get(sname))))

    # Pruning: fibered domains over a suspension, ensembles of 40..640.
    s, rels, _, g = tracks[6]
    d = len(s["sectors"])
    ensembles = []
    for size in (40, 160, 640):
        ws = gen.combinations_of(g.basis, size, rng)
        fd = gen.domain("slab", s, rng.sample(range(d), 2))
        text = gen.canonical(surfaces=[s], domains=[fd], ensembles=[gen.ensemble("adj", "slab", ws)])
        path = write(f"prune{size}.json", text)
        labels = ["base"] + [f"x{i}" for i in range(size)]
        ops.append(Op(f"prune ensemble={size}", lambda a=["prune", path]: cli(a),
                      _check_prune(labels)))
        ensembles.append((text, ws))

    # weight_of(structure_from_weight(base, w)) == w on the smallest ensemble.
    text, ws = ensembles[0]
    base = io.loads(text).ensembles["adj"][1][0]
    for w in ws[:5]:
        x = domain.structure_from_weight(base, w)
        ops.append(Op("weight_of", lambda x=x: domain.weight_of(x, base),
                      lambda r, w=w: None if r == tuple(w) else f"weight_of gave {r}, not {w}"))
    return ops


# ---------------------------------------------------------------------------
# carried: carried surfaces from 10^2 to 10^5 sheet copies

SHEET_LADDER = (100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 100_000)
# Two families per rung.  The second one writes --export-graph on the
# middle rungs only: file writes at the bottom rungs would sit at the
# median, and at the top rung both samples should time the same command.
FAMILIES = (("track", "wedge"), ("two-vertex-wedge", "three-sheets"),
            ("wedge", "theta-twisted"), ("three-sheets", "theta"),
            ("track", "two-vertex-wedge"), ("theta-twisted", "wedge"),
            ("track", "three-sheets"), ("two-vertex-wedge", "theta"),
            ("theta", "theta-twisted"))
EXPORT_RUNGS = range(3, len(SHEET_LADDER) - 1)


def _check_carry(w, chi, family, graph):
    a = w[0] if family.startswith("theta") else w[1]
    b = w[1] if family.startswith("theta") else w[2]

    def check(r: CliOut):
        bad = _expect_code(r)
        if bad:
            return bad
        lines = r.out.splitlines()
        m = re.fullmatch(r"surface \S+ weight ([\d,]+): (\d+) components, chi (-?\d+), "
                         r"fully carried: (True|False)", lines[0] if lines else "")
        if not m or _vec(m[1]) != tuple(w):
            return f"unexpected carry header {lines[:1]}"
        n, total = int(m[2]), int(m[3])
        comps = [re.fullmatch(r"  component \d+: chi (-?\d+), (orientable|non-orientable), (\w+)",
                              line) for line in lines[1:]]
        if len(comps) != n or not all(comps):
            return "component lines do not match the component count"
        if total != chi or sum(int(c[1]) for c in comps) != total:
            return f"chi {total}, expected {chi} from the generator decomposition"
        if (m[4] == "True") != all(x > 0 for x in w):
            return "fully-carried flag is wrong"
        kinds = Counter()
        for c in comps:
            want = ("other" if int(c[1]) else
                    "torus" if c[2] == "orientable" else "klein_bottle")
            if c[3] != want:
                return f"component classified {c[3]}, expected {want}"
            kinds[want] += 1
        if family == "theta" and kinds != Counter(torus=a + b):
            return f"theta {w} carries {dict(kinds)}, expected {a + b} tori"
        if family == "theta-twisted":
            klein = a % 2
            want = Counter(torus=b + math.ceil(a / 2) - klein, klein_bottle=klein)
            if +kinds != +want:
                return f"twisted theta {w} carries {dict(kinds)}, expected {dict(want)}"
        if graph:
            nodes = Path(graph).read_text(encoding="utf-8").splitlines()
            if len(nodes) != sum(w) or not all(re.match(r"s\d+c\d+( |$)", x) for x in nodes):
                return f"graph has {len(nodes)} nodes, expected {sum(w)} sheet copies"
        return None
    return check


def carried(seed: int, work: Path):
    """bsurf carry over a ladder of total weight, plus fully_carried/klein_double."""
    from bsurf import hilbert, io, surface
    rng = random.Random(f"carried/{seed}")
    track, _, _ = gen.track_surface(rng, 4, "track")
    surfaces = [gen.theta(), gen.theta(twist=True), gen.three_sheets(), gen.wedge(rng),
                gen.two_vertex_wedge(rng), track]
    text = gen.canonical(surfaces=surfaces)
    path = work / "surfaces.json"
    path.write_text(text, encoding="utf-8")
    objs = io.loads(text).surfaces
    pair = ((1, 1, 0), (1, 0, 1))
    basis = {"theta": ((1, 0, 1), (0, 1, 1)), "theta-twisted": ((1, 0, 1), (0, 1, 1)),
             "three-sheets": pair, "wedge": pair, "two-vertex-wedge": pair,
             "track": hilbert.minimal_generators(surface.switch_system(objs["track"])).basis}
    chis = {f: [surface.carried_surface(objs[f], u).euler_char for u in us]
            for f, us in basis.items()}

    def weight(family, total):
        if family == "track":
            us = basis["track"]
            p = [rng.randint(1, 3) for _ in us]
            scale = total / sum(pi * sum(u) for pi, u in zip(p, us))
            coeffs = [max(1, round(pi * scale)) for pi in p]
        else:
            a = rng.randint(total // 8, 3 * total // 8)
            coeffs = [a, total // 2 - a]
        return _combine(coeffs, basis[family]), sum(c * x for c, x in zip(coeffs, chis[family]))

    ops: list[Op] = []
    for r, (total, fams) in enumerate(zip(SHEET_LADDER, FAMILIES)):
        for family, export in zip(fams, (False, r in EXPORT_RUNGS)):
            w, chi = weight(family, total)
            argv = ["carry", str(path), "--surface", family, "--weight", _fmt(w)]
            graph = str(work / f"graph{r}.txt") if export else None
            if graph:
                argv += ["--export-graph", graph]
            ops.append(Op(f"carry {family} sheets={sum(w)}{' export' if export else ''}",
                          lambda a=argv: cli(a), _check_carry(w, chi, family, graph), rung=r))
        # fully_carried at this rung: a positive weight, or one with a zero entry
        w, _ = weight(fams[0], total)
        b, v = (objs[fams[0]], w) if r % 2 else (objs["theta"], (w[0], 0, w[0]))
        ops.append(Op("fully_carried", lambda b=b, v=v: surface.fully_carried(b, v),
                      lambda res, v=v: None if res == all(x > 0 for x in v)
                      else f"fully_carried{v} gave {res}", rung=r))

    # klein_double on every Klein-bottle generator available, four per round.
    kleins = [(objs["theta-twisted"], (1, 0, 1))]
    for u in basis["track"]:
        c = surface.carried_surface(objs["track"], u)
        if c.connected and c.components[0].classification.value == "klein_bottle":
            kleins.append((objs["track"], u))

    def check_double(b, u):
        def check(res):
            if res != tuple(2 * x for x in u):
                return f"klein_double{u} gave {res}"
            c = surface.carried_surface(b, res)
            if not (c.connected and c.components[0].orientable
                    and c.components[0].classification.value == "torus"):
                return f"doubled weight {res} does not carry one orientable torus"
            return None
        return check

    for j in range(4):
        b, u = kleins[j % len(kleins)]
        ops.append(Op("klein_double", lambda b=b, u=u: surface.klein_double(b, u),
                      check_double(b, u)))
    return ops


# ---------------------------------------------------------------------------
# faces: dividing sets, bypass surgery, prisms on glued tetrahedra

ARC_LADDER = (6, 12, 24, 48, 96, 144)    # arcs per corner stack: 3k arcs per face
RANDOM_MAX_K = 96                        # random faces stay below 300 arcs


def _surgery(arcs, slots, side):
    """Quarter-turn table on strands (t_i, b_i); returns the new arc list."""
    t, b = slots
    old = {tuple(sorted((t[i], b[i]))) for i in range(3)}
    new = ([(t[0], t[1]), (b[0], t[2]), (b[1], b[2])] if side == "pos"
           else [(b[0], b[1]), (t[0], b[2]), (t[1], t[2])])
    return [a for a in arcs if tuple(sorted(a)) not in old] + new


def _normal(arcs):
    return sorted(tuple(sorted(a)) for a in arcs)


def _check_bypass(edges, arcs, new_edges, new_arcs, face):
    def tb(es):
        return [Fraction(-len(e), 2) for e in es]

    want = [f"face {face}: {len(arcs)} arcs -> {len(new_arcs)} arcs"]
    want += [f"  {a},{b}" for a, b in _normal(new_arcs)]
    want += [f"edge {e}: tb {x} -> {y}" for e, (x, y) in enumerate(zip(tb(edges), tb(new_edges)))]

    def check(r: CliOut):
        bad = _expect_code(r)
        if bad:
            return bad
        lines = r.out.splitlines()
        if not gen.noncrossing(new_edges, [_vec(x.strip()) for x in lines[1:-3]]):
            return "bypass result is not non-crossing"
        if lines != want:
            return "bypass output differs from the quarter-turn / half-disk rewrite"
        return None
    return check


def _check_surgery(edges, new_arcs):
    want = _normal(new_arcs)

    def check(d):
        got = _normal(d.arcs)
        if got != want:
            return "surgery result differs from the quarter-turn table"
        if not gen.noncrossing(edges, got):
            return "surgery result is not non-crossing"
        return None
    return check


def faces(seed: int, work: Path):
    """Glued tetrahedra with k-arc stack faces, surgery, pieces, prisms."""
    from bsurf import dividing, io, prisms
    rng = random.Random(f"faces/{seed}")
    ops: list[Op] = []
    verts = ["v1", "v2", "v3", "v4", "v5"]
    tets = {"T1": verts[0:4], "T2": verts[1:5]}
    corners = {"T1": ("v1", "v3"), "T2": ("v3", "v5")}

    for r, k in enumerate(ARC_LADDER):
        first = len(ops)
        edges, corner = gen.stack_layout(k)
        arcs_stack = gen.stack_arcs(corner)

        # Complex: two tetrahedra glued along F234; one random face if small.
        tet_entries, tris = [], {}
        for tid, vs in tets.items():
            t, ts = gen.tetrahedron(tid, vs)
            tet_entries.append(t)
            tris.update({gen.face_id(x): x for x in ts})
        random_face = "F134" if k <= RANDOM_MAX_K else None
        arcs = {f: (gen.random_matching(gen.boundary_order(edges), rng) if f == random_face
                    else arcs_stack) for f in tris}
        vfs, prism_full = {}, {}
        for tid, vs in corners.items():
            plist = []
            for v in vs:
                fids = [f for f in sorted(tris) if v in tris[f] and f != random_face][:2]
                vf = []
                for f in fids:
                    e = gen.corner_of(tris[f], v)
                    vf.append({"face": f, "bottom": list(corner[e][0]),
                               "top": list(corner[e][k - 1])})
                    vfs.setdefault(tid, []).append((f, e))
                plist.append({"kind": f"corner:{v}", "vertical_faces": vf})
            prism_full[tid] = {"corners": sorted(vs), "diagonal": None, "prisms": plist}
        prism_half = {"T1": {"corners": ["v1"], "diagonal": None,
                             "prisms": prism_full["T1"]["prisms"][:1]}}
        text = gen.canonical(
            faces=[gen.face_entry(f, edges) for f in tris],
            dividing_sets=[gen.dividing_entry(f, a) for f, a in arcs.items()],
            tetrahedra=tet_entries, holonomy=[gen.holonomy_minus_one(t) for t in tet_entries],
            prism_configs=[{"name": "full", "tets": prism_full},
                           {"name": "half", "tets": prism_half}])
        path = work / f"complex{k}.json"
        path.write_text(text, encoding="utf-8")
        doc = io.loads(text)
        ds = doc.dividing_sets

        want = [f"tb_triangulation: {len(tris) * 3 * k} over {len(tris)} faces: pass",
                "holonomy T1: pass", "holonomy T2: pass",
                "prism configuration full: admissible", "prism configuration half: admissible"]
        ops.append(Op(f"validate k={k}", lambda a=["validate", str(path)]: cli(a),
                      lambda res, want=want: _expect_code(res) or (
                          None if res.out.splitlines() == want
                          else f"validate printed {res.out.splitlines()[:3]}")))

        for f in sorted(ds):
            n = len(ds[f].arcs)
            ops.append(Op(f"classify_pieces arcs={n}",
                          lambda d=ds[f]: dividing.classify_pieces(d),
                          lambda rep, n=n: None if rep.total == n + 1
                          else f"{n} arcs cut {rep.total} pieces, expected {n + 1}"))

        all_vfs = [x for v in vfs.values() for x in v]
        covered = Counter(f for f, _ in set(all_vfs))
        outside = sum(len(a) + 1 for a in arcs.values()) - (k - 1) * sum(covered.values())
        thin = len(all_vfs) if k - 1 < 20 else 0
        ops.append(Op(f"coverage_report k={k}",
                      lambda d=doc: prisms.coverage_report(d.prism_configs["full"],
                                                           d.dividing_sets),
                      lambda rep, o=outside, t=thin: None
                      if (rep.outside_pieces, len(rep.thin_faces)) == (o, t)
                      else f"coverage {rep.outside_pieces}/{len(rep.thin_faces)}, expected {o}/{t}"))
        for p, q, want_order in (("half", "full", "less-equal"), ("full", "full", "equal")):
            ops.append(Op(f"config_order {p} {q}",
                          lambda d=doc, p=p, q=q: prisms.config_order(
                              d.prism_configs[p], d.prism_configs[q], d.dividing_sets),
                          lambda res, w=want_order: None if res == w
                          else f"config_order gave {res}, expected {w}"))

        # load -> save round trip
        saved = work / f"saved{k}.json"
        ops.append(Op(f"io.load k={k}", lambda p=str(path): io.load(p),
                      lambda d: None if sorted(d.dividing_sets) == sorted(tris)
                      and sorted(d.tetrahedra) == ["T1", "T2"] else "loaded document is incomplete"))
        ops.append(Op(f"io.save k={k}", lambda d=doc, s=str(saved): io.save(d, s),
                      lambda _, s=saved, t=text: None if s.read_text(encoding="utf-8") == t
                      else "dumps(loads(t)) != t"))

        # Bypass surgery through the CLI: a square site and a half-disk site.
        e_h, pos = rng.randrange(3), rng.randrange(2 * k + 1)
        h_edges = [list(x) for x in edges]
        h_edges[e_h][pos:pos] = [6 * k, 6 * k + 1]
        h_arcs = arcs_stack + [(6 * k, 6 * k + 1)]
        text = gen.canonical(faces=[gen.face_entry("Q", edges), gen.face_entry("H", h_edges)],
                             dividing_sets=[gen.dividing_entry("Q", arcs_stack),
                                            gen.dividing_entry("H", h_arcs)])
        bpath = work / f"bypass{k}.json"
        bpath.write_text(text, encoding="utf-8")

        def site(e, i):
            run = corner[e][i:i + 3][::-1]          # strands t1 t2 t3 = a_(i+2) .. a_i
            return tuple(a for a, _ in run), tuple(b for _, b in run)

        stacks = rng.sample(range(3), 3)
        sites = [site(e, rng.randrange(k - 2)) for e in stacks]
        side = rng.choice(("pos", "neg"))
        argv = ["bypass", str(bpath), "--face", "Q", "--site", "strands:" + _fmt(sites[0][0]),
                "--side", side]
        ops.append(Op(f"bypass square k={k}", lambda a=argv: cli(a),
                      _check_bypass(edges, arcs_stack, edges,
                                    _surgery(arcs_stack, sites[0], side), "Q")))
        argv = ["bypass", str(bpath), "--face", "H", "--site", f"halfdisk:{6 * k},{6 * k + 1}"]
        ops.append(Op(f"bypass halfdisk k={k}", lambda a=argv: cli(a),
                      _check_bypass(h_edges, h_arcs, edges, arcs_stack, "H")))

        # Surgery sequence as library calls: positive at A, its inverse via
        # rotated_site, then surgeries at B and C on the other two stacks.
        sides = ["pos", rng.choice(("pos", "neg")), rng.choice(("pos", "neg"))]
        seq = [arcs_stack]
        for st, sd in zip(sites, sides):
            seq.append(_surgery(seq[-1], st, sd))
        face = dividing.FaceModel(face="Q", edge_slots=tuple(map(tuple, edges)))
        sets = [dividing.DividingSet(face=face, arcs=tuple(map(tuple, a))) for a in seq[:3]]
        side_of = {"pos": dividing.Side.POSITIVE, "neg": dividing.Side.NEGATIVE}
        for j in range(3):
            ops.append(Op(f"bypass_surgery k={k}",
                          lambda d=sets[j], st=dividing.SquareSite(top_slots=sites[j][0]),
                          sd=side_of[sides[j]]: dividing.bypass_surgery(d, st, sd),
                          _check_surgery(edges, seq[j + 1])))
        ta, ba = sites[0]
        rot_want = (ta[1], ta[2], ba[2])
        ops.append(Op(f"rotated_site k={k}",
                      lambda d=sets[0], st=dividing.SquareSite(top_slots=ta): dividing.rotated_site(d, st),
                      lambda res, w=rot_want: None if res.top_slots == w
                      else f"rotated_site gave {res.top_slots}, expected {w}"))
        ops.append(Op(f"bypass_surgery inverse k={k}",
                      lambda d=sets[1], s=dividing.SquareSite(top_slots=rot_want):
                      dividing.bypass_surgery(d, s, dividing.Side.NEGATIVE),
                      _check_surgery(edges, arcs_stack)))
        for op in ops[first:]:
            op.rung = r

    # The nested 2,000-arc stack: classify_pieces fails here every time.
    n = 2000
    fm = dividing.FaceModel(face="P", edge_slots=(tuple(range(2 * n - 2, -1, -2)),
                                                  tuple(range(1, 2 * n, 2)), ()))
    deep = dividing.DividingSet(face=fm, arcs=tuple((2 * i, 2 * i + 1) for i in range(n)))
    ops.append(Op("classify_pieces arcs=2000 nested", lambda: dividing.classify_pieces(deep),
                  lambda rep: None if rep.total == n + 1 else f"{rep.total} pieces, expected {n + 1}",
                  fault="region-split-recursion"))
    return ops


BUILD = {"weights": weights, "carried": carried, "faces": faces}
