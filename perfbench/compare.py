"""Compare two sets of saved benchmark runs.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --out FILE`` appends. Runs are paired
by workload, trace mode and seed. A pair whose stamps differ (host CPU
count, Python, kernel backend, NumPy, cache mode, run length) is
refused with exit code 2: such numbers do not compare. For every
metric the medians and quartiles of both sides are printed, and for the
end-to-end metrics of ``BENCHMARK.json`` the pairs the new side won and
the median change against the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[tuple, dict]:
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            stamp = entry["stamp"]
            runs[(stamp["workload"], stamp["trace"], stamp["seed"])] = entry
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("no runs pair up by workload, trace mode and seed", file=sys.stderr)
        return 2
    for key in pairs:
        if base[key]["stamp"] != new[key]["stamp"]:
            print(
                f"refusing to compare {key}: stamps differ\n"
                f"  base {json.dumps(base[key]['stamp'], sort_keys=True)}\n"
                f"  new  {json.dumps(new[key]['stamp'], sort_keys=True)}",
                file=sys.stderr,
            )
            return 2
    spec = Path("BENCHMARK.json")
    e2e = (
        {m["name"]: m for m in json.loads(spec.read_text())["end_to_end"]}
        if spec.is_file()
        else {}
    )
    groups: dict[tuple, list] = {}
    for key in pairs:
        groups.setdefault(key[:2], []).append(key)
    for (workload, trace), keys in sorted(groups.items()):
        print(f"\n{workload} (trace={int(trace)}, {len(keys)} pairs)")
        names = base[keys[0]]["result"]["metrics"]
        for name in names:
            old = [base[k]["result"]["metrics"][name]["value"] for k in keys]
            cur = [new[k]["result"]["metrics"][name]["value"] for k in keys]
            lo0, med0, hi0 = quartiles(old)
            lo1, med1, hi1 = quartiles(cur)
            line = (
                f"  {name:<32} base {med0:12.4f} [{lo0:.4f}, {hi0:.4f}]"
                f"  new {med1:12.4f} [{lo1:.4f}, {hi1:.4f}]"
            )
            if name in e2e and med0:
                sign = 1 if e2e[name]["better"] == "higher" else -1
                wins = sum(1 for a, b in zip(old, cur) if sign * (b - a) > 0)
                change = sign * (med1 - med0) / abs(med0)
                verdict = "worse than bound" if change < -e2e[name]["bound"] else ""
                line += f"  wins {wins}/{len(keys)}  better by {100 * change:+.2f}% {verdict}"
            print(line)
        failed = [(base[k]["result"]["failed"], new[k]["result"]["failed"]) for k in keys]
        print(f"  failed operations: base {sum(a for a, _ in failed)}  new {sum(b for _, b in failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
