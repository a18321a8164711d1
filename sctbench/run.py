"""Closed-loop benchmark of sctomo: one process, one client thread.

    python3 sctbench/run.py --workload v-exact --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the last line of standard output is a JSON object
holding every end-to-end metric of BENCHMARK.json; with `--trace 1` it
holds every per-layer metric, from a fixed number of ops run once without
and once with the span hooks of tracer.py.  The line before it is a JSON
object of diagnostics (environment, CPU probe, input hash, fail_frac,
infidelity_p50, absent hooks).  See DESIGN.md for what each workload and
metric is for.
"""

import os

# pinned before numpy is imported anywhere in the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import WARMUP_SEED, WORKLOADS, input_hash, rng_for  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7


class BenchError(Exception):
    """The benchmark cannot run here (no program source)."""


def fresh_import():
    """Import sctomo from src/ with empty module-level caches."""
    for name in [m for m in sys.modules
                 if m == "sctomo" or m.startswith("sctomo.")]:
        del sys.modules[name]
    sct = importlib.import_module("sctomo")
    if Path(sct.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported sctomo from {sct.__file__}, not {SRC}")
    return sct


def setup(workload, workdir):
    """Import, protocol build and warm-up op; warm-up input generation is
    not timed.  Returns (sct, protocols, seconds)."""
    t0 = time.perf_counter()
    sct = fresh_import()
    protos = workload.protocols(sct)
    elapsed = time.perf_counter() - t0
    warm_dir = Path(tempfile.mkdtemp(prefix="warmup-", dir=workdir))
    warm = workload.inputs(sct, protos, rng_for(WARMUP_SEED, workload.name),
                           workload.warmup, warm_dir)
    t0 = time.perf_counter()
    for item in warm:
        workload.op(sct, protos, item)
    return sct, protos, elapsed + time.perf_counter() - t0


def cpu_probe_ms():
    """Median time of a fixed batched eigh; tells host drift from code change."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 3, 3)) + 1j * rng.standard_normal((2048, 3, 3))
    h = a + a.conj().swapaxes(-1, -2)
    reps = []
    for _ in range(15):
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        reps.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(reps)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "commit": git_commit(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def op_loop(workload, sct, protos, pool, seconds=None, n_ops=None, hooks=None):
    """Closed loop over the pool, each op checked right after its timer
    stops, so neither op time nor memory holds harness bookkeeping.  Runs a
    fixed op count, or new ops until `seconds` have passed and every pool
    input has run at least once.  A program so slow that one pass takes
    more than twice `seconds` stops there, inside the run's time limit.
    Returns (per-op seconds, verdicts, wall)."""
    times, verdicts = [], []
    start = time.perf_counter()

    def more():
        if n_ops is not None:
            return len(times) < n_ops
        elapsed = time.perf_counter() - start
        return elapsed < seconds or (len(times) < len(pool)
                                     and elapsed < 2 * seconds)

    while more():
        i = len(times)
        item = pool[i % len(pool)]
        t0 = time.perf_counter()
        try:
            if hooks is None:
                out = workload.op(sct, protos, item)
            else:
                out = hooks.op(i, workload.op, sct, protos, item)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        times.append(time.perf_counter() - t0)
        verdicts.append(workload.check(sct, protos, item, out))
    return times, verdicts, time.perf_counter() - start


def per_input_ms(times, pool_size):
    """Median op time in ms of each pool input that ran.  The timing
    metrics weight every input once, so a faster program, which gets
    further through the pool in the same seconds, is judged on the same
    inputs; the median over an input's repeats drops the ops that a busy
    host slowed down."""
    runs = {}
    for i, t in enumerate(times):
        runs.setdefault(i % pool_size, []).append(t)
    return 1e3 * np.array([np.median(r) for r in runs.values()])


def run(name, seed, seconds, trace, n_ops=None):
    """One benchmark run; returns (result line, diagnostics, tracer)."""
    if not (SRC / "sctomo" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    probe_start = cpu_probe_ms()
    # input files stay inside the checkout: the benchmark writes nowhere else
    workdir = Path(tempfile.mkdtemp(prefix=".sctbench-", dir=ROOT))
    hooks = None
    # the program's own output (the CLI's messages) is discarded; the
    # result lines are printed after the run
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            setups = [setup(workload, workdir)
                      for _ in range(1 if trace else SETUP_REPS)]
            sct, protos, _ = setups[-1]
            pool = workload.pool_inputs(sct, protos, seed, workdir)
            digest = input_hash(workload, pool)
            if trace:
                count = n_ops or workload.trace_ops
                plain, _, _ = op_loop(workload, sct, protos, pool, n_ops=count)
                hooks = tr.Tracer()
                hooks.install(sct)
                try:
                    times, verdicts, wall = op_loop(
                        workload, sct, protos, pool, n_ops=count, hooks=hooks)
                finally:
                    hooks.uninstall()
                values = tr.per_layer_metrics(hooks, sum(plain), sum(times))
                wanted = spec["per_layer"]
            else:
                times, verdicts, wall = op_loop(workload, sct, protos, pool,
                                                seconds=seconds, n_ops=n_ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    n = len(times)
    failed = sum(v.failed for v in verdicts)
    # the result line counts pool inputs, not ops: an input failed if any of
    # its ops did.  The program is deterministic, so both counts follow from
    # the seed alone, not from how many passes the seconds allowed.
    input_failed = {}
    for i, v in enumerate(verdicts):
        input_failed[i % len(pool)] = input_failed.get(i % len(pool), False) or v.failed
    if not trace:
        ms = per_input_ms(times, len(pool))
        values = {
            "op_ms_p50": float(np.median(ms)),
            "op_ms_tail": float(np.percentile(ms, workload.tail_percentile)),
            "ops_per_s": 1e3 * len(ms) / ms.sum(),
            "setup_s": statistics.median(s[2] for s in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    infid = [v.infidelity for v in verdicts if v.infidelity is not None]
    line = {"correct": not any(v.incorrect for v in verdicts),
            "attempted": len(input_failed), "failed": sum(input_failed.values()),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    diag = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": n, "wall_s": wall, "tail_percentile": workload.tail_percentile,
        "failed_ops": failed, "fail_frac": failed / n,
        "infidelity_p50": float(np.median(infid)) if infid else None,
        "input_hash": digest, "pool": len(pool),
        "failures": [f"op {i}: {v.note}" for i, v in enumerate(verdicts)
                     if v.failed][:8],
        "absent_hooks": hooks.absent if hooks else [],
        "counter_errors": hooks.counter_errors[:8] if hooks else [],
        "cpu_probe_ms": {"start": probe_start, "end": cpu_probe_ms()},
        "env": environment(),
    }
    return line, diag, hooks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, diag, _ = run(args.workload, args.seed, args.seconds,
                            args.trace)
    except BenchError as exc:
        print(f"sctbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
