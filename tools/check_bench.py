#!/usr/bin/env python3
"""Gate performance regressions against the committed bench baseline.

Compares a fresh ``BENCH_core_throughput.json`` (produced by running
``benchmarks/bench_core_throughput.py`` on the current checkout) against
the committed baseline, entry by entry.  Because the baseline and the
fresh run almost never come from the same machine, the gate works on
**ratios, not absolutes**, in two steps:

1. per entry, ``ratio = fresh best_seconds / baseline best_seconds``
   (> 1 means this checkout is slower on this machine);
2. the median ratio across all compared entries is taken as the
   *machine-speed factor* — a CI runner that is uniformly 2x slower
   than the laptop that committed the baseline moves every ratio to
   ~2.0 and the median with it.  Each entry is then gated on its ratio
   **relative to that median**: a genuine regression slows its own
   entry without moving the rest of the suite, and sticks out.

An entry fails when ``ratio / median > 1 + tolerance``.  The default
tolerance is ±35% around the machine factor; entries listed in
``PER_ENTRY_TOLERANCE`` get wider bands (multi-process serving and
bulk benches are scheduler-noisy on shared runners).  Entries whose
summary value is a derived scalar (``compiled_speedup_nb_words``,
``artifact_load_speedup_vs_pickle``, ...) carry no ``best_seconds``
and are not gated.

Usage (what the CI ``bench-gate`` job runs)::

    cp benchmarks/BENCH_core_throughput.json /tmp/bench-baseline.json
    PYTHONPATH=src python -m pytest benchmarks/bench_core_throughput.py -q
    python tools/check_bench.py --baseline /tmp/bench-baseline.json

``--entries tokenize trigrams ...`` restricts the gate to named
entries, ``--tolerance`` overrides the default band, and
``--no-normalize`` gates raw ratios (for same-machine comparisons,
e.g. checking a local optimisation really moved its own entry).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = REPO_ROOT / "benchmarks" / "BENCH_core_throughput.json"

#: Allowed slowdown of an entry's ratio relative to the machine-speed
#: median before the gate fails.
DEFAULT_TOLERANCE = 0.35

#: Wider bands for benches dominated by process pools, sockets and the
#: scheduler rather than by our own code.
PER_ENTRY_TOLERANCE = {
    "serve_daemon_roundtrip": 0.60,
    "serve_keepalive_vs_reconnect": 0.60,
    "serve_tcp_concurrent_rps": 0.60,
    "serve_robustness_overhead": 0.60,
    "obs_overhead": 0.60,
    "bulk_scoring_throughput": 0.60,
    "bulk_workers_scaling": 0.60,
    "query_index_overhead": 0.60,
    "query_lookup_latency": 0.60,
    "api_dispatch_overhead": 0.60,
    "model_load_pickle": 0.50,
    "model_load_artifact": 0.50,
}


def _timed_entries(summary: dict) -> dict[str, float]:
    """name -> best_seconds for every gateable entry of a summary."""
    timed = {}
    for name, stats in summary.items():
        if isinstance(stats, dict):
            best = stats.get("best_seconds")
            if isinstance(best, (int, float)) and best > 0:
                timed[name] = float(best)
    return timed


def compare(
    baseline: dict,
    fresh: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    entries: list[str] | None = None,
    normalize: bool = True,
) -> tuple[list[str], list[str]]:
    """Return (report lines, failure lines) for a baseline/fresh pair."""
    baseline_timed = _timed_entries(baseline)
    fresh_timed = _timed_entries(fresh)
    names = sorted(baseline_timed.keys() & fresh_timed.keys())
    if entries:
        missing = sorted(set(entries) - set(names))
        if missing:
            return [], [
                f"entry {name!r} absent from baseline or fresh run"
                for name in missing
            ]
        names = [name for name in names if name in set(entries)]
    if not names:
        return [], ["no timed entries common to baseline and fresh run"]

    ratios = {
        name: fresh_timed[name] / baseline_timed[name] for name in names
    }
    # The machine factor comes from the *whole* common set even when
    # --entries narrows the gate: more entries, sturdier median.
    machine = (
        statistics.median(
            fresh_timed[name] / baseline_timed[name]
            for name in sorted(baseline_timed.keys() & fresh_timed.keys())
        )
        if normalize
        else 1.0
    )

    lines = [
        f"machine-speed factor (median ratio): {machine:.3f}"
        if normalize
        else "normalisation off: gating raw ratios",
        f"{'entry':<34} {'base ms':>10} {'fresh ms':>10} "
        f"{'rel ratio':>10} {'band':>7}",
    ]
    failures = []
    for name in names:
        band = PER_ENTRY_TOLERANCE.get(name, tolerance)
        relative = ratios[name] / machine
        verdict = "ok" if relative <= 1.0 + band else "FAIL"
        lines.append(
            f"{name:<34} {baseline_timed[name] * 1e3:>10.3f} "
            f"{fresh_timed[name] * 1e3:>10.3f} {relative:>10.3f} "
            f"{1.0 + band:>6.2f}x  {verdict}"
        )
        if verdict == "FAIL":
            failures.append(
                f"{name}: {relative:.3f}x the machine-adjusted baseline "
                f"(band {1.0 + band:.2f}x)"
            )
    skipped = sorted(baseline_timed.keys() - fresh_timed.keys())
    if skipped and not entries:
        lines.append(
            "not in fresh run (partial bench pass, skipped): "
            + ", ".join(skipped)
        )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate bench regressions by machine-normalised ratio"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH_core_throughput.json (copy it aside "
        "before running the bench, which rewrites the file in place)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=DEFAULT_PATH,
        help="freshly produced summary (default: the in-repo file the "
        "bench just rewrote)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed slowdown vs the machine-adjusted baseline "
        f"(default {DEFAULT_TOLERANCE}, i.e. {1 + DEFAULT_TOLERANCE:.2f}x)",
    )
    parser.add_argument(
        "--entries",
        nargs="+",
        metavar="NAME",
        help="gate only these entries (they must exist in both files)",
    )
    parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="gate raw ratios instead of median-normalised ones "
        "(same-machine comparisons only)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        fresh = json.loads(args.fresh.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read summaries: {error}", file=sys.stderr)
        return 2

    lines, failures = compare(
        baseline,
        fresh,
        tolerance=args.tolerance,
        entries=args.entries,
        normalize=not args.no_normalize,
    )
    for line in lines:
        print(line)
    if failures:
        print("\nbench gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
