"""A/B comparison of two commits with the benchmark (choosing-metrics section 8).

Record alternating pairs, each side in its own checkout::

    python3 perfbench/ab.py pairs --parent ../parent --change . \\
        --workload stream --pairs 10 --out ab.jsonl

Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  Pair ``i`` runs
both sides with seed ``FIRST_SEED + i``; even pairs run the parent
first, odd pairs the change first.  Each row keeps the run's result
line and, under ``result.detail``, its last ``detail`` line (raw host
times, reference loop, platform).  Then compare::

    python3 perfbench/ab.py compare ab.jsonl

``compare`` prints one row per (workload, metric): each side's median
and quartiles, the parent's spread (quartile distance over its median),
how much worse the change's median is than the parent's (as a share of
the parent's; negative is better), the change's win share over pairs
(ties count for neither side) and a verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own spread (quartile distance over its
  median) exceeds the bound, and not every change run beats every
  parent run, so no claim either way can be made;
* ``same``: none of the above.

Runs that were not ``correct`` or had failed operations are listed and
excluded; a gain does not count when the change failed more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
FIRST_SEED = 1000


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    details = [json.loads(line[7:]) for line in lines if line.startswith("detail ")]
    result["detail"] = details[-1] if details else {}
    return result


def cmd_pairs(args) -> int:
    seconds = BENCHMARK["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for rank, side in enumerate(order):
                result = run_side(sides[side], args.workload, seed, seconds)
                row = {"pair": pair, "side": side, "first": rank == 0,
                       "workload": args.workload, "seed": seed, "result": result}
                out.write(json.dumps(row, sort_keys=True) + "\n")
                out.flush()
                print(f"pair {pair} {side:6s} seed {seed} correct "
                      f"{result.get('correct')}", flush=True)
    return 0


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: List[float], change: List[float], pairs: List[tuple],
            better: str, bound: float) -> Dict:
    """Section-8 verdict for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    parent_iqr = pq[2] - pq[0]
    spread = parent_iqr / p_med if p_med else float("inf")
    worse = sign * (p_med - c_med) / p_med if p_med else 0.0
    all_better = bool(parent) and bool(change) and (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if share >= 0.9 and sign * (c_med - p_med) > parent_iqr:
        label = "gain"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "same"
    return {"parent_q": pq, "change_q": cq, "wins": wins, "losses": losses,
            "share": share, "spread": spread, "worse": worse, "verdict": label}


def cmd_compare(args) -> int:
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    rows = [json.loads(line) for line in Path(args.runs).read_text().splitlines()
            if line.strip()]
    bad = [r for r in rows if not r["result"].get("correct") or r["result"].get("failed")]
    for r in bad:
        print(f"excluded: {r['side']} pair {r['pair']} {r['workload']} seed "
              f"{r['seed']} (correct={r['result'].get('correct')}, "
              f"failed={r['result'].get('failed')})")
    failed = {side: sum(r["result"].get("failed", 1) for r in bad if r["side"] == side)
              for side in ("parent", "change")}
    good = [r for r in rows if r not in bad]
    status = 0
    header = (f"{'workload':8s} {'metric':26s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'spread':>7s} {'worse':>7s} "
              f"{'wins':>6s} {'verdict':>10s}")
    print(header)
    for workload in sorted({r["workload"] for r in good}):
        by_pair: Dict[int, Dict[str, Dict]] = {}
        for r in good:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        for name, spec in bounds.items():
            parent = [p["parent"][name]["value"] for p in by_pair.values()
                      if "parent" in p and name in p["parent"]]
            change = [p["change"][name]["value"] for p in by_pair.values()
                      if "change" in p and name in p["change"]]
            pairs = [(p["parent"][name]["value"], p["change"][name]["value"])
                     for p in by_pair.values()
                     if "parent" in p and "change" in p and name in p["parent"]]
            if not parent or not change:
                continue
            v = verdict(parent, change, pairs, spec["better"], spec["bound"])
            if v["verdict"] == "gain" and failed["change"] > failed["parent"]:
                v["verdict"] = "same"  # a gain with more failures does not count
            if v["verdict"] == "regression":
                status = 1
            pq, cq = v["parent_q"], v["change_q"]
            print(f"{workload:8s} {name:26s} "
                  f"{pq[0]:10.4g}/{pq[1]:10.4g}/{pq[2]:10.4g} "
                  f"{cq[0]:10.4g}/{cq[1]:10.4g}/{cq[2]:10.4g} "
                  f"{v['spread']:7.3f} {v['worse']:+7.3f} "
                  f"{v['wins']:3d}/{len(pairs):<2d} {v['verdict']:>10s}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="record alternating parent/change runs")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="JSONL file to append runs to")
    p.set_defaults(func=cmd_pairs)
    c = sub.add_parser("compare", help="apply the section-8 rules to recorded runs")
    c.add_argument("runs", help="JSONL written by `pairs`")
    c.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
