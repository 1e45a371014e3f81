#!/usr/bin/env python3
"""Compare benchmark results recorded with ``run.py --out``.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [NEW2.json ...]

Each file holds one result record or a list of them (perfbench/baseline.json
is such a list). For every workload and end-to-end metric it prints the
median of each side, the change, and the bound BENCHMARK.json fixes. Any
difference between the two sides' environment stamps is flagged first:
numbers measured under different stamps are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Stamp fields expected to differ between the two sides of a comparison.
VERSION_FIELDS = ("commit", "source_sha256")


def load(paths) -> list[dict]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records += data if isinstance(data, list) else [data]
    return [r for r in records if r["trace"] == 0]


def stamp_differences(base, new) -> list[str]:
    def stamps(records):
        out = {}
        for r in records:
            for key, value in r["env"].items():
                if key not in VERSION_FIELDS:
                    out.setdefault(key, set()).add(json.dumps(value, sort_keys=True))
        return out

    a, b = stamps(base), stamps(new)
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, set()), b.get(key, set())
        if va != vb or len(va) > 1:
            out.append(f"{key}: {', '.join(sorted(va))} vs {', '.join(sorted(vb))}")
    return out


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("compare: each side needs at least one --trace 0 record", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    diffs = stamp_differences(base, new)
    for line in diffs:
        print(f"STAMP DIFFERS  {line}")
    if diffs:
        print("STAMP DIFFERS  the numbers below are not comparable")

    worse = False
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} {'change':>8s} "
          f"{'bound':>6s}  runs")
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for name, (bound, better) in bounds.items():
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == wl]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == wl]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            regressed = change > bound if better == "lower" else -change > bound
            worse = worse or regressed
            print(f"{wl:14s} {name:12s} {ma:12.6g} {mb:12.6g} {change:+8.1%} "
                  f"{bound:6.0%}  {len(a)}/{len(b)}{'  WORSE THAN BOUND' if regressed else ''}")
    return 1 if worse or diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
