"""Command-line surface: validate / hilbert / carry / lutz / bypass / prune.

Exit codes: 0 success, 1 input error, 2 validation failure.  ``main`` loads
the document once and hands it to the command.  Each command imports the
layers it uses when it runs, so a spawn loads no other layer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

OK, INPUT_ERROR, VALIDATION_FAILURE = 0, 1, 2


def _write_graph(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_validate(args, doc) -> int:
    from . import surface
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
            total = prisms.tb_aggregate(doc.dividing_sets)
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
    """A weight argument: a weight declared in the document, or comma-separated
    entries (none for the empty string) that meet the rule of document weights."""
    from . import io, surface
    if spec in doc.weights:
        sname, vec = doc.weights[spec]
        if sname != surface_name:
            raise io.DocumentError("reference error", f"weight {spec}",
                                   f"weight belongs to surface {sname}, not {surface_name}")
        return vec
    try:
        vec = tuple(int(x) for x in spec.split(",")) if spec else ()
    except ValueError:
        raise io.DocumentError("reference error", f"weight {spec}",
                               "not a named weight or a comma-separated integer vector")
    if (fault := surface.weight_fault(doc.surfaces[surface_name], vec)) is not None:
        raise io.broken_rule(f"weight {spec}", surface.RULE_SET, fault)
    return vec


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


def cmd_hilbert(args, doc) -> int:
    from . import hilbert, surface
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


def cmd_carry(args, doc) -> int:
    from . import surface
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


def _generators(b):
    """Print the classified generators of a surface and return them."""
    from . import hilbert, lutz, surface
    infos = lutz.classify_generators(b, hilbert.minimal_generators(surface.switch_system(b)))
    for info in infos:
        print(f"generator {info.index} {','.join(str(x) for x in info.weight)}: "
              f"{info.classification.value}")
    return infos


def cmd_lutz_plan(args, doc) -> int:
    from . import lutz
    name, b = _the_surface(doc, args.surface)
    base = (0,) * len(b.sectors) if args.base is None else _weight(doc, args.base, name)
    target = _weight(doc, args.target, name)
    infos = _generators(b)
    try:
        plan = lutz.plan_for(target, base, infos, base_label=args.base or "zero")
    except lutz.RebaseRequired as exc:
        print(f"plan: FAIL ({exc})")
        return VALIDATION_FAILURE
    print(f"plan: coefficients {','.join(str(n) for n in plan.coefficients)} "
          f"over base {plan.base}")
    print(f"parity vector: {','.join(str(p) for p in plan.parity_vector)}")
    return OK


def cmd_lutz_enumerate(args, doc) -> int:
    from . import lutz
    name, b = _the_surface(doc, args.surface)
    base = (0,) * len(b.sectors) if args.base is None else _weight(doc, args.base, name)
    count = 0
    for count, w in enumerate(lutz.enumerate_structures(_generators(b), base, args.bound), 1):
        print("  " + ",".join(str(x) for x in w))
    print(f"enumerated {count} weights at bound {args.bound}")
    return OK


def _parse_site(spec: str):
    from . import dividing
    kind, _, rest = spec.partition(":")
    if kind not in ("strands", "halfdisk"):
        raise ValueError(f"unknown site kind {kind!r}; use strands:... or halfdisk:...")
    try:
        slots = tuple(int(x) for x in rest.split(","))
    except ValueError:
        raise ValueError("slots must be comma-separated integers") from None
    return dividing.SquareSite(slots) if kind == "strands" else dividing.HalfDiskSite(slots)


def cmd_bypass(args, doc) -> int:
    from . import dividing, io
    if args.face not in doc.dividing_sets:
        raise io.DocumentError("reference error", f"face {args.face}",
                               "no dividing set declared")
    d = doc.dividing_sets[args.face]
    try:
        result = dividing.bypass_surgery(d, _parse_site(args.site), dividing.Side(args.side))
    except (ValueError, KeyError) as exc:   # a KeyError names a slot that no arc matches
        raise io.DocumentError("reference error", f"site {args.site}", exc.args[0])
    print(f"face {args.face}: {len(d.arcs)} arcs -> {len(result.arcs)} arcs")
    for arc in result.normal_form():
        print(f"  {arc[0]},{arc[1]}")
    for e in range(3):
        print(f"edge {e}: tb {dividing.tb_edge(d, e)} -> {dividing.tb_edge(result, e)}")
    return OK


def cmd_prune(args, doc) -> int:
    from . import domain, io, surface
    if args.ensemble and args.ensemble not in doc.ensembles:
        raise io.DocumentError("reference error", f"ensemble {args.ensemble}", "not declared")
    names = [args.ensemble] if args.ensemble else sorted(doc.ensembles)
    if not names:
        raise io.DocumentError("reference error", "document", "no ensembles declared")
    cap = None
    if args.cap is not None:        # read like a document angle: an integer or p/q
        try:
            cap = domain.exact_angle(args.cap)
        except (ValueError, ZeroDivisionError):
            print(f"error: argument --cap: expected an integer or p/q, got {args.cap!r}",
                  file=sys.stderr)
            return VALIDATION_FAILURE
    for name in names:
        dname, structures = doc.ensembles[name]
        try:
            results = domain.prune_to_closed(doc.domains[dname], structures, cap)
        except surface.RuleError as exc:
            print(f"ensemble {name}: FAIL ({exc})")
            return VALIDATION_FAILURE
        print(f"ensemble {name} on domain {dname}: {len(results)} terminal classes")
        for i, (dom, xs) in enumerate(results):
            nsec = len(dom.quotient.sectors)
            print(f"  class {i}: {nsec} sectors, boundaryless: "
                  f"{not dom.boundary_sectors}, structures: "
                  f"{','.join(x.label for x in xs) or '-'}")
    return OK


def _nonnegative(text: str) -> int:
    """The type of --bound and --oracle-bound: a nonnegative integer in digits."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:                  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bsurf",
                                description="Exact branched-surface calculus")
    sub = p.add_subparsers(dest="command", required=True)
    doc = argparse.ArgumentParser(add_help=False)       # every command reads a document
    doc.add_argument("document")

    v = sub.add_parser("validate", parents=[doc], help="run every validator in the document")
    v.add_argument("--export-graph")
    v.set_defaults(func=cmd_validate, parser=v)

    h = sub.add_parser("hilbert", parents=[doc], help="minimal generators of the switch cone")
    h.add_argument("--surface")
    h.add_argument("--oracle-bound", type=_nonnegative)
    h.set_defaults(func=cmd_hilbert, parser=h)

    c = sub.add_parser("carry", parents=[doc], help="carried surface report for a weight")
    c.add_argument("--surface")
    c.add_argument("--weight", required=True)
    c.add_argument("--export-graph")
    c.set_defaults(func=cmd_carry, parser=c)

    lutz = sub.add_parser("lutz", help="twisting plans and enumeration")
    actions = lutz.add_subparsers(dest="action", required=True)
    lp = actions.add_parser("plan", parents=[doc], help="a target over the generators")
    le = actions.add_parser("enumerate", parents=[doc], help="weights up to a bound")
    for a in (lp, le):
        a.add_argument("--surface")
        a.add_argument("--base")
    lp.add_argument("--target", required=True)
    lp.set_defaults(func=cmd_lutz_plan, parser=lp)
    le.add_argument("--bound", type=_nonnegative, default=0)
    le.set_defaults(func=cmd_lutz_enumerate, parser=le)

    bp = sub.add_parser("bypass", parents=[doc], help="bypass surgery on a face")
    bp.add_argument("--face", required=True)
    bp.add_argument("--site", required=True,
                    help="strands:t1,t2,t3 or halfdisk:a,b")
    bp.add_argument("--side", choices=("pos", "neg"), default="pos")
    bp.set_defaults(func=cmd_bypass, parser=bp)

    pr = sub.add_parser("prune", parents=[doc], help="prune ensembles to boundaryless quotients")
    pr.add_argument("--ensemble")
    pr.add_argument("--cap")
    pr.set_defaults(func=cmd_prune, parser=pr)
    return p


_parser = None                        # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # leftover arguments go under the chosen command's usage line, or the root's if one precedes it
    argv = sys.argv[1:] if argv is None else argv
    args, extra = _parser.parse_known_args(argv)
    if extra:
        (args.parser if argv[0] == args.command else _parser).error(
            f"unrecognized arguments: {' '.join(extra)}")
    from . import io
    try:
        code = args.func(args, io.load(args.document))
        sys.stdout.flush()              # a closed pipe raises here rather than at exit
        return code
    except BrokenPipeError:             # the reader has gone: as the Python docs advise,
        import os                       # send the output still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return INPUT_ERROR
    except (OSError, ValueError, KeyError) as exc:    # io.DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
