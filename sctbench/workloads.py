"""The three benchmark workloads: inputs, the op, and the per-op check.

Each workload generates its inputs from the run seed before timing, hands
the program only what a user would (count vectors, count and protocol
files, or a point), and checks every op's output against the truth it was
generated from.  `sct` is the freshly imported `sctomo` package; workloads
never import it themselves, so the set-up can re-import it.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# criterion-6 tolerance for exact-data round trips
PARAM_TOL = 1e-5
# criterion-3 rule for the V determinant cross-check
DET_RTOL = 1e-3
DET_FLOOR = 1e-9
# fixed seed of the warm-up inputs, so set-up time does not depend on --seed
WARMUP_SEED = 20121203
# fixed seed of the v-exact and qubit-cli truths (see VExact)
POOL_SEED = 12120556


@dataclass
class Verdict:
    """failed: the op raised, was refused, did not converge or missed its
    accuracy rule.  incorrect: its output could not be checked at all
    (unreadable or malformed), which makes the whole run incorrect."""

    failed: bool
    incorrect: bool = False
    infidelity: float = None
    note: str = ""


def rng_for(seed, workload):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


class Workload:
    """The pool of a run is drawn from its seed unless a workload says
    otherwise."""

    def pool_inputs(self, sct, protos, seed, workdir):
        return self.inputs(sct, protos, rng_for(seed, self.name), self.pool,
                           workdir)


class VExact(Workload):
    name = "v-exact"
    # V truths cost 0.4-2.8 s each, so a pool drawn afresh from each seed
    # moved the per-run median and mean by 0.2-0.25 (IQR over median, ten
    # seeds) through the instance mix alone.  The truths are therefore one
    # fixed, unfiltered draw of `validation.sample_truth("V")` (POOL_SEED);
    # --seed sets the order they run in.  10 truths is a pass of 12-17 s
    # today, three passes or more per run, so each truth's median op time
    # drops an op a busy host slowed; p75 of the 10 per-input times keeps
    # about 10 ops beyond it.
    tail_percentile = 75
    pool = 10
    warmup = 1
    trace_ops = 12

    def protocols(self, sct):
        return {"V": sct.protocol.scenario("V")}

    def pool_inputs(self, sct, protos, seed, workdir):
        items = self.inputs(sct, protos, rng_for(POOL_SEED, self.name),
                            self.pool, workdir)
        return [items[i] for i in rng_for(seed, self.name).permutation(self.pool)]

    def inputs(self, sct, protos, rng, n, workdir):
        proto = protos["V"]
        items = []
        for _ in range(n):
            state, unknowns = sct.validation.sample_truth("V", rng)
            y = sct.forward.predicted_statistics(proto, state, unknowns)
            truth = sct.protocol.pack_values(proto.unknown_names, state, unknowns)
            items.append((y, truth))
        return items

    def fingerprint(self, item):
        y, truth = item
        return y.tobytes() + truth.tobytes()

    def op(self, sct, protos, item):
        return sct.invert.reconstruct(item[0], protos["V"])

    def check(self, sct, protos, item, out):
        if isinstance(out, Exception):
            return Verdict(True, note=f"raised {out!r}")
        err = sct.validation.max_param_error(protos["V"].unknown_names,
                                             out.x, item[1])
        if not out.converged:
            return Verdict(True, note=f"converged=false, error {err:.2e}")
        if err > PARAM_TOL:
            return Verdict(True, note=f"converged but error {err:.2e}")
        return Verdict(False)


class QubitCli(Workload):
    name = "qubit-cli"
    # ~550 ops in 48 s today: every input runs about five times, so its
    # median op time drops the ops a busy host slowed, and p95 of the 105
    # per-input times keeps 5 inputs (~25 ops) beyond it.  As on v-exact
    # the truths are one fixed draw (POOL_SEED): truths drawn from each seed
    # moved that tail by 0.2 (IQR over median, five seeds).  --seed draws
    # the Poisson noise of the noisy count files.
    tail_percentile = 95
    pool = 105
    warmup = 3  # one op on each protocol
    trace_ops = 70
    # one cycle: exact A, B, B~beta, then Poisson B with the objective
    # alternating least squares / Poisson MLE over 1e4 and 1e6 shots
    CYCLE = (("A", 0, "least_squares"), ("B", 0, "least_squares"),
             ("B~beta", 0, "least_squares"),
             ("B", 10 ** 4, "least_squares"), ("B", 10 ** 4, "poisson_mle"),
             ("B", 10 ** 6, "least_squares"), ("B", 10 ** 6, "poisson_mle"))

    def protocols(self, sct):
        b = sct.protocol.scenario("B")
        return {"A": sct.protocol.scenario("A"), "B": b,
                "B~beta": sct.protocol.with_unknown_phase(b)}

    def pool_inputs(self, sct, protos, seed, workdir):
        return self.inputs(sct, protos, rng_for(POOL_SEED, self.name),
                           self.pool, workdir, rng_for(seed, self.name))

    def inputs(self, sct, protos, rng, n, workdir, noise_rng=None):
        """Truths from `rng`, Poisson noise seeds from `noise_rng`."""
        noise_rng = rng if noise_rng is None else noise_rng
        paths = {}
        for key, proto in protos.items():
            paths[key] = str(workdir / f"protocol_{key.replace('~', '_')}.json")
            sct.io.write_protocol(paths[key], proto)
        items = []
        for i in range(n):
            key, shots, objective = self.CYCLE[i % len(self.CYCLE)]
            proto = protos[key]
            state, unknowns = sct.validation.sample_truth(key.split("~")[0], rng)
            if shots:
                noise = sct.forward.NoiseModel(
                    "poisson", shots=shots, seed=int(noise_rng.integers(2 ** 31)))
            else:
                noise = sct.forward.NoiseModel("exact")
            records = sct.forward.simulate_counts(state, unknowns, proto, noise)
            counts = str(workdir / f"counts_{i}.json")
            sct.io.write_counts(counts, proto, records)
            items.append({
                "protocol": paths[key], "counts": counts, "noisy": bool(shots),
                "out": str(workdir / f"result_{i}.json"), "objective": objective,
                "names": proto.unknown_names, "state": state,
                "truth": sct.protocol.pack_values(proto.unknown_names, state,
                                                  unknowns)})
        return items

    def fingerprint(self, item):
        return (Path(item["protocol"]).read_bytes()
                + Path(item["counts"]).read_bytes() + item["objective"].encode())

    def op(self, sct, protos, item):
        argv = ["reconstruct", "--counts", item["counts"], "--protocol",
                item["protocol"], "--objective", item["objective"],
                "--out", item["out"]]
        return sct.cli.main(argv)

    def check(self, sct, protos, item, out):
        if isinstance(out, Exception):
            return Verdict(True, note=f"raised {out!r}")
        if out != 0:
            return Verdict(True, note=f"exit code {out}")
        try:
            result = json.loads(Path(item["out"]).read_bytes())
            x = np.array([result["parameters"][n] for n in item["names"]],
                         dtype=float)
            est = sct.model.state_from_dict(result["state"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Verdict(True, True, note=f"unreadable result: {exc!r}")
        if not np.all(np.isfinite(x)):
            return Verdict(True, note="non-finite parameters")
        if item["noisy"]:
            return Verdict(False, infidelity=1.0 - sct.validation.fidelity(
                item["state"], est))
        err = sct.validation.max_param_error(item["names"], x, item["truth"])
        if err > PARAM_TOL:
            return Verdict(True, note=f"exit 0 but error {err:.2e}")
        return Verdict(False)


class VSweep(Workload):
    name = "v-sweep"
    # ~170 ops in 56 s today: every input runs about twice, and p90 of the
    # 80 per-input times keeps 8 inputs (~16 ops) beyond it
    tail_percentile = 90
    pool = 80
    warmup = 1
    trace_ops = 40
    GRID = 16
    AXES = {"lam1": (0.2, 3.0), "lam2": (0.2, 3.0)}

    def protocols(self, sct):
        return {"V": sct.protocol.scenario("V")}

    def inputs(self, sct, protos, rng, n, workdir):
        return [sct.validation.sample_truth("V", rng) for _ in range(n)]

    def fingerprint(self, item):
        state, unknowns = item
        return repr(sorted(state.to_dict().items())
                    + sorted(unknowns.as_dict().items())).encode()

    def op(self, sct, protos, item):
        state, unknowns = item
        return sct.identify.singularity_scan(protos["V"], state, unknowns,
                                             self.AXES, self.GRID)

    def check(self, sct, protos, item, out):
        if isinstance(out, Exception):
            return Verdict(True, note=f"raised {out!r}")
        if len(out.rows) != self.GRID ** 2:
            return Verdict(True, True, note=f"{len(out.rows)} grid rows")
        base = sct.protocol.values_dict(*item)
        for lam1, lam2, det, _flag in out.rows:
            ref = abs(sct.identify.closed_form_jacobian(
                "Vtotal", dict(base, lam1=lam1, lam2=lam2),
                phase_sign=-1, j3_corrected=True))
            if ref > DET_FLOOR and not abs(det - ref) <= DET_RTOL * ref:
                return Verdict(True, note=(
                    f"|det| {det:.6g} vs closed form {ref:.6g} at "
                    f"lam1={lam1:.4g} lam2={lam2:.4g}"))
        return Verdict(False)


WORKLOADS = {w.name: w for w in (VExact(), QubitCli(), VSweep())}


def input_hash(workload, items):
    digest = hashlib.sha256()
    for item in items:
        digest.update(workload.fingerprint(item))
    return digest.hexdigest()[:16]
