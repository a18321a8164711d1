"""Self-test of the benchmark itself, at tiny size (about a minute).

    python3 sctbench/selftest.py

For every workload it checks that each metric named in BENCHMARK.json is
reported with its unit, that the span tree is consistent (children fit in
their parent), that the hooks are gone after a traced run, and that two
runs with one seed see the same inputs and give the same counts,
fail_frac and infidelity_p50.  It also checks the shape the workloads were
chosen for: no solver spans on v-sweep, io and cli spans only on
qubit-cli.  Exits non-zero if any check fails.
"""

import json
import math
import sys

import run
import tracer as tr

SEED = 7
TINY_OPS = {"v-exact": 2, "qubit-cli": 7, "v-sweep": 2}
DETERMINISTIC_UNITS = ("count", "B")
EPS = 1e-9

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics(line, wanted, label):
    bad = [m["name"] for m in wanted
           if not (m["name"] in line["metrics"]
                   and line["metrics"][m["name"]]["unit"] == m["unit"]
                   and isinstance(line["metrics"][m["name"]]["value"], float)
                   and math.isfinite(line["metrics"][m["name"]]["value"]))]
    check(not bad, f"{label}: all {len(wanted)} metrics reported with units {bad}")


def check_spans(hooks, label):
    spans = hooks.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    worst = max(c - (s[2] - s[1]) for c, s in zip(child_time, spans))
    check(worst <= EPS, f"{label}: child spans fit in their parent "
          f"(worst excess {worst:.2e} s)")
    check(min(hooks.self_times()) >= -EPS, f"{label}: self times >= 0")
    check(not hooks.stack, f"{label}: every span closed")


def check_restored(label):
    sct = sys.modules["sctomo"]
    wrapped = [name for dotted in tr.HOOKS
               for name, owner, attr in tr._expand(sct, dotted)
               if hasattr(getattr(owner, attr), "__wrapped__")]
    check(not wrapped, f"{label}: originals restored after tracing {wrapped}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counted = {m["name"] for m in spec["per_layer"]
               if m["unit"] in DETERMINISTIC_UNITS} | {"invert.lm.converged_frac"}
    for name, ops in TINY_OPS.items():
        plain = [run.run(name, SEED, 0, 0, ops) for _ in range(2)]
        traced = [run.run(name, SEED, 0, 1, ops) for _ in range(2)]
        for line, diag, _ in plain:
            check_metrics(line, spec["end_to_end"], f"{name} untraced")
            check(line["attempted"] == ops and line["correct"],
                  f"{name}: {ops} ops attempted, outputs correct")
        for line, diag, hooks in traced:
            check_metrics(line, spec["per_layer"], f"{name} traced")
            check_spans(hooks, name)
            check(not diag["absent_hooks"] and not diag["counter_errors"],
                  f"{name}: every hook present and counted "
                  f"{diag['absent_hooks']} {diag['counter_errors']}")
        check_restored(name)

        diags = [d for _, d, _ in plain + traced]
        check(len({d["input_hash"] for d in diags}) == 1,
              f"{name}: one seed gives one input hash")
        for key in ("fail_frac", "infidelity_p50"):
            check(plain[0][1][key] == plain[1][1][key],
                  f"{name}: {key} repeats ({plain[0][1][key]})")
        a, b = (t[0]["metrics"] for t in traced)
        diff = sorted(k for k in counted if a[k]["value"] != b[k]["value"])
        check(not diff, f"{name}: per-op counts repeat exactly {diff}")

        layer = traced[0][0]["metrics"]
        solver = [k for k in counted if k.startswith("invert.") and layer[k]["value"]]
        if name == "v-sweep":
            check(not solver, f"{name}: no invert spans {solver}")
        boundary = [k for k in ("io.bytes_per_op", "io.load_counts.us_per_call",
                                "cli.self_ms_per_op") if layer[k]["value"]]
        check(bool(boundary) == (name == "qubit-cli"),
              f"{name}: io and cli spans only on qubit-cli {boundary}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
