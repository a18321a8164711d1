"""Run every workload once and print all end-to-end figures as one table.

    python3 sctbench/report.py --seed 1 --seconds 10

Each workload runs in its own `run.py` process, so its peak memory is its
own.  Prints, per workload, the gated end-to-end metrics of BENCHMARK.json
and the two diagnostic figures (fail_frac, infidelity_p50), each with its
unit, after the per-op accuracy checks.  Exits non-zero if a run fails or
its outputs could not be checked.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    ok = True
    print(f"{'workload':10} {'metric':15} {'value':>12} unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name:10} run failed ({proc.returncode}): "
                  f"{proc.stderr.strip()}")
            ok = False
            continue
        lines = proc.stdout.splitlines()
        diag = json.loads(lines[-2])["diagnostics"]
        line = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in line["metrics"].items()]
        rows.append(("fail_frac", diag["fail_frac"], "frac"))
        rows.append(("infidelity_p50", diag["infidelity_p50"], "1"))
        for metric, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:10} {metric:15} {shown:>12} {unit}")
        print(f"{name:10} checks: {line['attempted']} ops, {line['failed']} "
              f"failed, outputs checkable: {line['correct']}, "
              f"tail at p{diag['tail_percentile']}")
        for note in diag["failures"]:
            print(f"{name:10}   {note}")
        ok &= line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
