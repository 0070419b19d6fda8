#!/usr/bin/env python3
"""Census of admissible weights reachable from a base by generator twists.

For each surface in a document: minimal generators, their carried-surface
types, and the weights enumerable within a coefficient budget, with the
parity vector of one witness plan per weight.

Usage: python scripts/structure_census.py documents/theta.json --bound 3
"""

from __future__ import annotations

import argparse
import sys

from bsurf import io, lutz
from bsurf.cli import _nonnegative
from bsurf.hilbert import minimal_generators
from bsurf.surface import carried_surface, switch_system


def census(doc: io.ComplexDocument, bound: int) -> None:
    for name, b in sorted(doc.surfaces.items()):
        system = switch_system(b)
        gens = minimal_generators(system)
        infos = lutz.classify_generators(b, gens)
        print(f"== {name}: {len(b.sectors)} sectors, {len(b.branch_arcs)} arcs, "
              f"{len(gens)} generators")
        for info in infos:
            w = ",".join(str(x) for x in info.weight)
            print(f"   generator {info.index} ({w}): {info.classification.value}")
        base = (0,) * len(b.sectors)
        weights = list(lutz.enumerate_structures(infos, base, bound))
        print(f"   {len(weights)} weights within coefficient budget {bound}")
        for w in weights:
            if not any(w):
                print(f"     {','.join(str(x) for x in w)}  (base)")
                continue
            carried = carried_surface(b, w)
            kinds = ",".join(kind.value for count, _, _, kind in carried.runs
                             for _ in range(count))
            plan = lutz.plan_for(w, base, infos)
            parity = "".join(str(p) for p in plan.parity_vector)
            print(f"     {','.join(str(x) for x in w)}  components: {kinds}  "
                  f"parity: {parity}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("document")
    ap.add_argument("--bound", type=_nonnegative, default=2)
    args = ap.parse_args()
    census(io.load(args.document), args.bound)
    return 0


if __name__ == "__main__":
    sys.exit(main())
