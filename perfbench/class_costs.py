#!/usr/bin/env python3
"""Regenerate the search-cost tables under ``perfbench/data``.

``perm3_class_substitutions.json`` holds the substitutions
``synthesize`` applies on every canonical class of
``results/coverage3.jsonl`` under ``TABLE1_OPTIONS``, by class rank;
``table2_pool_substitutions.json`` the same count on each function of
the fixed 4-variable pool (:func:`inputs.table2_pool`) under the
``table2_slice`` options.  Both counts are exact and engine-independent.  The workloads stratify
their samples by them, so every seed draws the same mix of cheap and
expensive searches.  Each table takes ten to twenty minutes on one core:

    python3 perfbench/class_costs.py perm3
    python3 perfbench/class_costs.py table2
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
TABLES = {
    "perm3": "perm3_class_substitutions.json",
    "table2": "table2_pool_substitutions.json",
}


def perm3_costs() -> list[int]:
    from repro.experiments.common import TABLE1_OPTIONS
    from repro.functions.permutation import Permutation
    from repro.sweeps.corpus import load_coverage
    from repro.synth import synthesize

    _, records = load_coverage(os.path.join(ROOT, "results", "coverage3.jsonl"))
    return [
        synthesize(Permutation(record["images"]), TABLE1_OPTIONS)
        .stats.hot_ops["substitutions_applied"]
        for record in records
    ]


def table2_costs() -> list[int]:
    from repro.functions.permutation import Permutation
    from repro.synth import synthesize

    import inputs
    from workloads import TABLE2_SLICE_OPTIONS

    return [
        synthesize(Permutation(images), TABLE2_SLICE_OPTIONS)
        .stats.hot_ops["substitutions_applied"]
        for images in inputs.table2_pool()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("table", choices=sorted(TABLES))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    compute = perm3_costs if args.table == "perm3" else table2_costs
    with open(os.path.join(DATA, TABLES[args.table]), "w") as handle:
        json.dump({"substitutions": compute()}, handle)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
