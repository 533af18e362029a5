"""Run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload cold-paper --seed 0 --seconds 18 --trace 0

prints every metric by name with its unit, writes a report under
``.perfbench/``, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  ``--workload all`` runs every workload in turn, each
in its own process.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("cold-paper", "micronas-prune", "steady-async", "warm-restart")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(prefix: str, line: dict) -> None:
    for name, metric in line["metrics"].items():
        print(f"{prefix}{name:<40} {metric['value']:>14.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            summary["correct"] = False
            continue
        line = json.loads(lines[-1])
        print(f"== {name}")
        _print_metrics("  ", line)
        summary["correct"] &= line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import result_line, run_workload

    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT / ".perfbench")
    line = result_line(report, bool(args.trace))
    _print_metrics("", line)
    print(f"{'error_rate':<40} {report['metrics']['error_rate']:>14.6g} "
          f"ratio")
    counts = report["provenance"]
    print(f"units: {counts['untraced_units']} untraced, "
          f"{counts['traced_units']} traced; set-up repeated "
          f"{counts['setup_repeats']} times")
    for failure in report["gate"]["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps(line))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
