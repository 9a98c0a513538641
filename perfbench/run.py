"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-frontier --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It trains the artifact, generates the
workload's inputs from ``--seed``, drives the program through its
public entry points, checks the answers, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` replays the same inputs through each
layer with spans recorded from this directory's files and reports the
per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("serve-frontier", "bulk-cold", "index-and-query")


@dataclass
class Context:
    """One benchmark run: its settings, scratch space and findings."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    artifact: Path = field(init=False)

    def note(self, text: str) -> None:
        """An informational line, printed before the result line."""
        print(text, flush=True)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  workdir)
    try:
        import inputs
        import layers
        import workloads

        started = time.perf_counter()
        ctx.artifact = inputs.train_artifact(workdir / "model.urlmodel")
        ctx.note(f"artifact trained in {time.perf_counter() - started:.2f}s")
        plan = workloads.PLANS[args.workload](ctx)
        ctx.note(f"inputs sha256 {plan.digest}")
        # The inputs stay alive for the whole run; frozen, they are
        # left out of every collector pass the measured calls trigger.
        gc.collect()
        gc.freeze()
        if ctx.trace:
            outcomes, metrics = layers.sweep(ctx, plan)
        else:
            outcomes, metrics = plan.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for problem in outcomes.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if outcomes.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
