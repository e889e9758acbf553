#!/usr/bin/env python
"""CI gate: the sweep must not get slower than the committed baseline.

Compares a freshly measured ``repro-bench/v1`` snapshot against a
baseline snapshot.  Two checks:

* **sweep wall time** -- the timed multi-scenario sweep slice (the
  ``sweep`` section) must not regress by more than the sweep
  tolerance (default 25%).  This is the number that tracks real
  figure-regeneration cost; it only compares when both snapshots
  measured the same sweep shape (scenarios / schemes / duration /
  jobs), otherwise it is skipped with a notice rather than producing
  an apples-to-oranges failure.
* **per-scheme wall time** -- the repeated single-scenario timings
  compare under their own (looser-than-review, CI-noise-tolerant)
  tolerance, default 50%.

Absolute wall times do not transfer between machines; this gate is
meant for snapshots produced *on the same runner in the same job*
(measure baseline-commit and head-commit back to back), or for
committed snapshots from the same machine class.  ``cpu_count`` is
recorded in every snapshot so a mismatch is at least visible.

A snapshot without a ``sweep`` section would make the sweep gate
silently vacuous, so it is treated as a usage error (exit 2) unless
``--allow-missing-sweep`` explicitly opts into per-scheme-only
comparison.  Schema-version mismatches and malformed JSON exit 2 with
a one-line error, never a traceback.

With ``--min-speedup`` the script instead acts as the *fast-engine*
gate: baseline is a ``--engine scalar`` snapshot and current a
``--engine fast`` snapshot measured back to back on the same runner;
the fast sweep must be at least ``FLOOR`` times faster than the scalar
sweep (baseline_min / current_min >= FLOOR).  Per-scheme speedups are
reported, and gated too when ``--min-scheme-speedup`` is given (they
are noisier: short single-scenario timings).  Both snapshots must have
measured the same sweep shape (the ``engine`` field is expected to
differ).

Usage:
    PYTHONPATH=src python scripts/check_bench_regression.py \
        BASELINE.json CURRENT.json [--sweep-tolerance 0.25] \
        [--scheme-tolerance 0.50] [--allow-missing-sweep] \
        [--min-speedup 2.0]

Exit status: 0 clean, 1 regression, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import bench


#: Sweep-shape fields that must match for a speedup comparison to be
#: apples-to-apples.
_SWEEP_SHAPE_FIELDS = ("scenarios", "schemes", "duration_cycles", "jobs")


def check_min_speedup(
    baseline: dict,
    current: dict,
    floor: float,
    scheme_floor=None,
) -> int:
    """Fast-engine gate (``--min-speedup``).

    ``baseline`` is a scalar-engine snapshot and ``current`` a
    fast-engine snapshot from the same runner with the same sweep
    shape; the sweep speedup (scalar min / fast min) must reach
    ``floor``.
    """
    base_sweep = baseline.get("sweep") or {}
    cur_sweep = current.get("sweep") or {}
    if not base_sweep or not cur_sweep:
        print(
            "error: --min-speedup needs a sweep section in both snapshots",
            file=sys.stderr,
        )
        return 2
    mismatched = [
        field
        for field in _SWEEP_SHAPE_FIELDS
        if base_sweep.get(field) != cur_sweep.get(field)
    ]
    if mismatched:
        print(
            "error: sweep shapes differ between snapshots "
            f"({', '.join(mismatched)}); measure both with identical "
            "--sweep-sample/--sweep-duration/--jobs",
            file=sys.stderr,
        )
        return 2
    base_min = base_sweep.get("wall_seconds", {}).get("min")
    cur_min = cur_sweep.get("wall_seconds", {}).get("min")
    if not base_min or not cur_min:
        print("error: sweep wall_seconds.min missing", file=sys.stderr)
        return 2
    status = 0
    speedup = base_min / cur_min
    print(
        f"sweep speedup: scalar {base_min:.4f}s / fast {cur_min:.4f}s "
        f"= {speedup:.2f}x (floor {floor:.2f}x)"
    )
    if speedup < floor:
        print(
            f"REGRESSION: fast sweep is only {speedup:.2f}x the scalar "
            f"sweep (floor {floor:.2f}x)",
            file=sys.stderr,
        )
        status = 1
    base_wall = baseline.get("wall_seconds", {})
    for scheme, timing in current.get("wall_seconds", {}).items():
        if scheme not in base_wall:
            continue
        old = float(base_wall[scheme]["min"])
        new = float(timing["min"])
        if new <= 0:
            continue
        scheme_speedup = old / new
        gated = f" (floor {scheme_floor:.2f}x)" if scheme_floor else ""
        print(f"scheme {scheme}: {scheme_speedup:.2f}x{gated}")
        if scheme_floor and scheme_speedup < scheme_floor:
            print(
                f"REGRESSION: scheme {scheme} fast speedup "
                f"{scheme_speedup:.2f}x under floor {scheme_floor:.2f}x",
                file=sys.stderr,
            )
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline repro-bench/v1 snapshot")
    parser.add_argument("current", help="freshly measured snapshot")
    parser.add_argument(
        "--sweep-tolerance", type=float, default=0.25,
        help="max allowed relative sweep slowdown (default 0.25)",
    )
    parser.add_argument(
        "--scheme-tolerance", type=float, default=0.50,
        help="max allowed relative per-scheme slowdown (default 0.50)",
    )
    parser.add_argument(
        "--allow-missing-sweep", action="store_true",
        help="tolerate snapshots without a sweep section (per-scheme "
        "gate only) instead of failing with exit 2",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="FLOOR",
        help="fast-engine gate: current (--engine fast) sweep must be at "
        "least FLOOR times faster than baseline (--engine scalar); "
        "replaces the regression comparison",
    )
    parser.add_argument(
        "--min-scheme-speedup", type=float, default=None, metavar="FLOOR",
        help="with --min-speedup: also gate every per-scheme timing at "
        "FLOOR (off by default; short timings are noisy)",
    )
    args = parser.parse_args(argv)

    snapshots = {}
    for label, path in (("baseline", args.baseline), ("current", args.current)):
        try:
            snapshots[label] = bench.load_snapshot(path)
        except OSError as exc:
            print(f"error: cannot read {label} snapshot: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(
                f"error: {label} snapshot {path} is invalid: {exc}",
                file=sys.stderr,
            )
            return 2
    baseline = snapshots["baseline"]
    current = snapshots["current"]

    for label, snap in (("baseline", baseline), ("current", current)):
        plat = snap.get("platform", {})
        sweep = snap.get("sweep") or {}
        print(
            f"{label}: generated={snap['generated']} "
            f"cpu_count={plat.get('cpu_count', sweep.get('cpu_count', '?'))} "
            f"sweep_min={sweep.get('wall_seconds', {}).get('min', 'n/a')}"
        )

    missing = [
        label
        for label, snap in (("baseline", baseline), ("current", current))
        if not snap.get("sweep")
    ]
    if missing:
        where = " and ".join(missing)
        if not args.allow_missing_sweep:
            print(
                f"error: sweep section missing from {where} snapshot; the "
                "sweep gate would be vacuous.  Re-measure with the sweep "
                "enabled, or pass --allow-missing-sweep to compare "
                "per-scheme timings only.",
                file=sys.stderr,
            )
            return 2
        print(
            f"notice: sweep section missing from {where} snapshot; "
            "sweep gate skipped (--allow-missing-sweep)"
        )

    if args.min_speedup is not None:
        return check_min_speedup(
            baseline, current, args.min_speedup, args.min_scheme_speedup
        )

    # Engine tiers time differently by construction (the fast sweep is
    # gated to be >=2x the scalar one), so a plain regression compare
    # across tiers -- e.g. a bench_*_scalar.json baseline against a
    # bench_*_fast.json head -- is always apples-to-oranges.
    base_engine = baseline.get("platform", {}).get("engine", "scalar")
    cur_engine = current.get("platform", {}).get("engine", "scalar")
    if base_engine != cur_engine:
        print(
            "error: snapshots were measured on different engines "
            f"(baseline {base_engine!r}, current {cur_engine!r}); the "
            "regression tolerances only apply within one tier.  Compare "
            "tiers with --min-speedup instead, or re-measure both "
            "snapshots with the same --engine.",
            file=sys.stderr,
        )
        return 2

    regressions = bench.compare_snapshots(
        baseline,
        current,
        tolerance=args.scheme_tolerance,
        sweep_tolerance=args.sweep_tolerance,
    )
    if regressions:
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    print(
        f"no regressions (sweep tolerance {args.sweep_tolerance:.0%}, "
        f"scheme tolerance {args.scheme_tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
