"""Command-line surface: validate / hilbert / carry / lutz / bypass / prune.

Exit codes: 0 success, 1 input error, 2 validation failure.  Each command
imports the layers it uses when it runs, so a spawn loads no other layer.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

OK, INPUT_ERROR, VALIDATION_FAILURE = 0, 1, 2


def _write_graph(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_validate(args) -> int:
    from . import io, surface
    doc = io.load(args.document)
    if doc.dividing_sets or doc.holonomy or doc.prism_configs:
        from . import dividing, prisms
    failures = []
    # io.load rejects a document whose surfaces or domains break an invariant
    for name in sorted(doc.surfaces):
        print(f"surface {name}: pass")
    for name in sorted(doc.domains):
        print(f"domain {name}: pass")
    if doc.dividing_sets:
        try:
            total = dividing.tb_triangulation(list(doc.dividing_sets.values()))
            print(f"tb_triangulation: {total} over {len(doc.dividing_sets)} faces: pass")
        except dividing.InvalidFaceCertificate as exc:
            print(f"tb_triangulation: FAIL ({exc})")
            failures.append("tb")
    for tid, t in sorted(doc.tetrahedra.items()):
        if tid in doc.holonomy:
            report = prisms.validate_holonomy(doc.holonomy[tid], t)
            print(f"holonomy {tid}: {'pass' if report.ok else 'FAIL'}")
            for f in report.findings:
                if f.verdict != "ok":
                    print(f"  circuit at {f.circuit.vertex}: {f.verdict} ({f.detail})")
                    failures.append(f"holonomy {tid}")
    if doc.prism_configs:
        verdicts = prisms.admissible_each(doc.prism_configs, doc.dividing_sets)
    for name, cfg in sorted(doc.prism_configs.items()):
        problems = prisms.validate_configuration(cfg, doc.dividing_sets)
        report = verdicts[name]
        ok = report and not problems
        print(f"prism configuration {name}: {'admissible' if ok else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        if not report:
            print(f"  {report.certificate}")
        if not ok:
            failures.append(f"prisms {name}")
    if args.export_graph:
        _write_graph(args.export_graph, [
            " ".join(f"{name}/{n}" for n in (node, *nbrs))
            for name, b in sorted(doc.surfaces.items())
            for node, nbrs in surface.adjacency_graph(b)])
    return VALIDATION_FAILURE if failures else OK


def _weight(doc, spec: str, surface_name: str):
    """A weight argument: a weight declared in the document, or comma-separated entries."""
    from . import io
    if spec in doc.weights:
        sname, vec = doc.weights[spec]
        if sname != surface_name:
            raise io.DocumentError("reference error", f"weight {spec}",
                                   f"weight belongs to surface {sname}, not {surface_name}")
        return vec
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise io.DocumentError("reference error", f"weight {spec}",
                               "not a named weight or a comma-separated integer vector")


def _the_surface(doc, name):
    from . import io
    if name:
        if name not in doc.surfaces:
            raise io.DocumentError("reference error", f"surface {name}", "not declared")
        return name, doc.surfaces[name]
    if len(doc.surfaces) != 1:
        raise io.DocumentError("reference error", "document",
                               "several surfaces declared; pass --surface")
    return next(iter(doc.surfaces.items()))


def cmd_hilbert(args) -> int:
    from . import hilbert, io, surface
    doc = io.load(args.document)
    name, b = _the_surface(doc, args.surface)
    system = surface.switch_system(b)
    gens = hilbert.minimal_generators(system)
    print(f"surface {name}: {len(gens)} minimal generators")
    for u in gens.basis:
        print("  " + ",".join(str(x) for x in u))
    if args.oracle_bound is not None:
        oracle = hilbert.brute_force_minimals(system, args.oracle_bound)
        match = tuple(sorted(oracle)) == gens.basis
        print(f"oracle check at bound {args.oracle_bound}: "
              f"{'pass' if match else 'FAIL'}")
        if not match:
            return VALIDATION_FAILURE
    return OK


def cmd_carry(args) -> int:
    from . import io, surface
    doc = io.load(args.document)
    name, b = _the_surface(doc, args.surface)
    w = _weight(doc, args.weight, name)
    carried = surface.carried_surface(b, w)
    lines = [f"surface {name} weight {','.join(str(x) for x in w)}: "
             f"{sum(run[0] for run in carried.runs)} components, "
             f"chi {carried.euler_char}, fully carried: "
             f"{surface.fully_carried(b, w)}"]
    start = 0
    for count, chi, orientable, kind in carried.runs:
        tail = f"chi {chi}, {'orientable' if orientable else 'non-orientable'}, {kind.value}"
        lines += [f"  component {i}: {tail}" for i in range(start, start + count)]
        start += count
    print("\n".join(lines))
    if args.export_graph:
        _write_graph(args.export_graph, surface.carried_adjacency_graph(carried))
    return OK


def cmd_lutz(args) -> int:
    from . import hilbert, io, lutz, surface
    doc = io.load(args.document)
    name, b = _the_surface(doc, args.surface)
    system = surface.switch_system(b)
    gens = hilbert.minimal_generators(system)
    infos = lutz.classify_generators(b, gens)
    for info in infos:
        print(f"generator {info.index} {','.join(str(x) for x in info.weight)}: "
              f"{info.classification.value}")
    base = _weight(doc, args.base, name) if args.base else (0,) * len(b.sectors)
    if args.action == "plan":
        target = _weight(doc, args.target, name)
        try:
            plan = lutz.plan_for(target, base, infos, base_label=args.base or "zero")
        except lutz.RebaseRequired as exc:
            print(f"plan: FAIL ({exc})")
            return VALIDATION_FAILURE
        coeffs = ",".join(str(n) for n in plan.coefficients)
        print(f"plan: coefficients {coeffs} over base {plan.base}")
        print(f"parity vector: {','.join(str(p) for p in plan.parity_vector)}")
    else:
        count = 0
        for w in lutz.enumerate_structures(infos, base, args.bound):
            print("  " + ",".join(str(x) for x in w))
            count += 1
        print(f"enumerated {count} weights at bound {args.bound}")
    return OK


def _parse_site(spec: str):
    from . import dividing
    kind, _, rest = spec.partition(":")
    if kind == "strands":
        slots = tuple(int(x) for x in rest.split(","))
        if len(slots) != 3:
            raise ValueError("strands site needs three top slots")
        return dividing.SquareSite(top_slots=slots)
    if kind == "halfdisk":
        slots = tuple(int(x) for x in rest.split(","))
        if len(slots) != 2:
            raise ValueError("halfdisk site needs the two slots of the arc")
        return dividing.HalfDiskSite(arc=slots)
    raise ValueError(f"unknown site kind {kind!r}; use strands:... or halfdisk:...")


def cmd_bypass(args) -> int:
    from . import dividing, io
    doc = io.load(args.document)
    if args.face not in doc.dividing_sets:
        raise io.DocumentError("reference error", f"face {args.face}",
                               "no dividing set declared")
    d = doc.dividing_sets[args.face]
    site = _parse_site(args.site)
    side = dividing.Side.POSITIVE if args.side == "pos" else dividing.Side.NEGATIVE
    result = dividing.bypass_surgery(d, site, side)
    print(f"face {args.face}: {len(d.arcs)} arcs -> {len(result.arcs)} arcs")
    for arc in result.normal_form():
        print(f"  {arc[0]},{arc[1]}")
    for e in range(3):
        print(f"edge {e}: tb {dividing.tb_edge(d, e)} -> {dividing.tb_edge(result, e)}")
    return OK


def _cap(spec: str):
    """The --cap value read like a document angle (``domain.exact_angle``), or
    None when that rule rejects a number such as 1.5, 1/0 or 1e1000000.  Text
    that is no number at all raises the ValueError ``Fraction`` gives it; its
    digits are zeroed for that test, so that no exponent is expanded."""
    from . import domain
    try:
        return domain.exact_angle(spec)
    except (ValueError, ZeroDivisionError):
        try:
            Fraction("".join("0" if c.isdecimal() else c for c in spec))
        except ValueError:
            Fraction(spec)
        except ZeroDivisionError:
            pass
    return None


def cmd_prune(args) -> int:
    from . import domain, io
    doc = io.load(args.document)
    names = [args.ensemble] if args.ensemble else sorted(doc.ensembles)
    if not names:
        raise io.DocumentError("reference error", "document", "no ensembles declared")
    for name in names:
        if name not in doc.ensembles:
            raise io.DocumentError("reference error", f"ensemble {name}", "not declared")
        dname, structures = doc.ensembles[name]
        fd = doc.domains[dname]
        if args.cap is not None:
            cap = _cap(args.cap)
            if cap is None:
                print(f"error: argument --cap: expected an integer or p/q, got {args.cap!r}",
                      file=sys.stderr)
                return VALIDATION_FAILURE
            sites = sorted(fd.boundary_sectors)
            for x in structures:
                for s in sites:
                    if not x.angle[s] < cap:
                        print(f"ensemble {name}: FAIL (structure {x.label!r} has angle "
                              f"{x.angle[s]} on boundary sector {s}, cap {cap})")
                        return VALIDATION_FAILURE
        results = domain.prune_to_closed(fd, structures)
        print(f"ensemble {name} on domain {dname}: {len(results)} terminal classes")
        for i, (dom, xs) in enumerate(results):
            nsec = len(dom.quotient.sectors)
            print(f"  class {i}: {nsec} sectors, boundaryless: "
                  f"{not dom.boundary_sectors}, structures: "
                  f"{','.join(x.label for x in xs) or '-'}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bsurf",
                                description="Exact branched-surface calculus")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run every validator in the document")
    v.add_argument("document")
    v.add_argument("--export-graph")
    v.set_defaults(func=cmd_validate)

    h = sub.add_parser("hilbert", help="minimal generators of the switch cone")
    h.add_argument("document")
    h.add_argument("--surface")
    h.add_argument("--oracle-bound", type=int)
    h.set_defaults(func=cmd_hilbert)

    c = sub.add_parser("carry", help="carried surface report for a weight")
    c.add_argument("document")
    c.add_argument("--surface")
    c.add_argument("--weight", required=True)
    c.add_argument("--export-graph")
    c.set_defaults(func=cmd_carry)

    l = sub.add_parser("lutz", help="twisting plans and enumeration")
    l.add_argument("action", choices=("plan", "enumerate"))
    l.add_argument("document")
    l.add_argument("--surface")
    l.add_argument("--base")
    l.add_argument("--target")
    l.add_argument("--bound", type=int, default=0)
    l.set_defaults(func=cmd_lutz)

    bp = sub.add_parser("bypass", help="bypass surgery on a face")
    bp.add_argument("document")
    bp.add_argument("--face", required=True)
    bp.add_argument("--site", required=True,
                    help="strands:t1,t2,t3 or halfdisk:a,b")
    bp.add_argument("--side", choices=("pos", "neg"), default="pos")
    bp.set_defaults(func=cmd_bypass)

    pr = sub.add_parser("prune", help="prune ensembles to boundaryless quotients")
    pr.add_argument("document")
    pr.add_argument("--ensemble")
    pr.add_argument("--cap")
    pr.set_defaults(func=cmd_prune)
    return p


_parser = None                        # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:    # io.DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
