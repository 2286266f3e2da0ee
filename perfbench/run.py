#!/usr/bin/env python3
"""The repository's benchmark: four seeded workloads, end to end and layer by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload cold-scan --seed 7 --seconds 10 --trace 0

prints the end-to-end metrics of one untraced run, by name and with
units, then one JSON result line (always the last line of output).
``--trace 1`` runs with span-recording wrappers around the program's
layers and reports the per-layer metrics instead.  ``--workload all``
runs every workload untraced and traced and prints one table.  The
metric names come from ``BENCHMARK.json``; ``perfbench/README.md``
defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-mix", "cold-scan", "zipf-serve", "ingest-read")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_class(name: str):
    if name == "zipf-serve":
        from zipfserve import ZipfServe

        return ZipfServe
    from closedloop import ColdScan, IngestRead, PaperMix

    return {"paper-mix": PaperMix, "cold-scan": ColdScan, "ingest-read": IngestRead}[name]


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    from harness import WorkDir, reproducibility_record

    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    record = reproducibility_record(name, seed, seconds, trace)
    with WorkDir(name, seed) as work:
        outcome = workload_class(name)(seed, work).run(float(seconds), trace)
    missing = [metric for metric in wanted if metric not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload {name} did not measure {missing}")
    tally = outcome.tally
    print(f"perfbench {name} " + " ".join(f"{k}={v}" for k, v in record.items()))
    for metric, (value, unit) in outcome.metrics.items():
        print(f"  {metric:<28} {value:14.6g} {unit}")
    print(
        f"  {'operations':<28} attempted {tally.attempted}, failed {tally.failed} "
        f"(errors {tally.errors}, rejected {tally.rejected}, timeouts {tally.timeouts}, "
        f"oracle mismatches {tally.mismatches})"
    )
    if tally.first_problem:
        print(f"  first problem: {tally.first_problem}")
    for note in outcome.notes:
        print(f"  {note}")
    print("record " + json.dumps(
        {**record, "metrics": {k: v[0] for k, v in outcome.metrics.items()}}, sort_keys=True
    ))
    result = {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": outcome.metrics[metric][0], "unit": outcome.metrics[metric][1]}
            for metric in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE,
                text=True,
                check=False,
            )
            lines = completed.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
            if completed.returncode != 0:
                print(f"perfbench {name} trace={trace} failed with code {completed.returncode}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
