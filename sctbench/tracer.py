"""Span tracer for the traced benchmark run.

Every hook comes from HOOKS, one table of dotted names relative to the
`sctomo` package.  `install` replaces each named function with a wrapper
that records a span (name, start, end, parent span, op id) plus the work
units the call carries (rows, matrices, points, ...).  A name that no
longer resolves is reported as absent instead of failing, so the table
survives refactors that delete solver stages.  `uninstall` restores every
original; the timed runs never install hooks.
"""

from __future__ import annotations

import functools
import inspect
import os
import time


def _rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def _matrices(gs):
    n = 1
    for k in getattr(gs, "shape", ())[:-2]:
        n *= k
    return n


def _file_bytes(path):
    return os.path.getsize(path) if os.path.isfile(str(path)) else 0


# dotted name -> counter(args, result) giving the span's work units, or None.
# Positional argument indices follow the call sites in sctomo.
HOOKS = {
    "smallmat.expi_neg_batch": lambda a, r: {"matrices": _matrices(a[0])},
    "smallmat.expi_neg": None,
    "forward.ProtocolLayout.__init__": None,
    "forward.ProtocolLayout.statistics": lambda a, r: {"rows": _rows(a[1])},
    "identify.jacobian_from_vector": None,
    "identify._jacobian_from_vector": lambda a, r: {"points": 1},
    "identify.singularity_scan": None,
    "identify.structural_zero_columns": None,
    "invert.reconstruct": None,
    "invert._build_starts": lambda a, r: {"rows": _rows(r)},
    "invert._lm_multistart": lambda a, r: {"starts": _rows(a[2]),
                                           "converged": int(r.converged)},
    "invert._batch_jacobians": lambda a, r: {"points": _rows(a[1])},
    "invert.resolve_twin_family": None,
    "invert.prefer_sparse_coherences": None,
    "invert._package_result": None,
    "io.load_protocol": lambda a, r: {"bytes": _file_bytes(a[0])},
    "io.load_counts": lambda a, r: {"bytes": _file_bytes(a[0])},
    "io.write_result": lambda a, r: {"bytes": _file_bytes(a[0])},
    "io.*": None,
    "cli.main": None,
}

# spans that are finite-difference Jacobian evaluations, wherever they live
JACOBIAN_SPANS = ("identify._jacobian_from_vector", "invert._batch_jacobians")
OP = "op"


def _expand(package, dotted):
    """Resolve a table entry to [(name, owner, attr)], [] if it is gone."""
    parts = dotted.split(".")
    owner = package
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if parts[-1] == "*":
        return [(f"{'.'.join(parts[:-1])}.{attr}", owner, attr)
                for attr, fn in vars(owner).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == owner.__name__]
    if not callable(vars(owner).get(parts[-1])):
        return []
    return [(dotted, owner, parts[-1])]


class Tracer:
    """In-memory span store; spans are [name, start, end, parent, op, units]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.absent = []
        self.counter_errors = []
        self._saved = []

    # -- hooks ------------------------------------------------------------
    def install(self, package):
        explicit = {name for name in HOOKS if not name.endswith("*")}
        for dotted, counter in HOOKS.items():
            targets = _expand(package, dotted)
            if not targets:
                self.absent.append(dotted)
            for name, owner, attr in targets:
                if dotted.endswith("*") and name in explicit:
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            # only ops are traced, not the per-op checks between them; a
            # recursive call (canonical_json) stays inside the outer span
            if tracer.op_id is None or tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                try:
                    tracer.spans[span][5] = counter(args, result)
                except Exception as exc:  # a refactor changed the signature
                    tracer.counter_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    # -- spans ------------------------------------------------------------
    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def op(self, op_id, fn, *args):
        """Run one benchmark op as a root span."""
        self.op_id = op_id
        span = self.open(OP)
        try:
            return fn(*args)
        finally:
            self.close(span)
            self.op_id = None

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def inside(self, names):
        """Per span: whether some ancestor's name is in `names`."""
        flags = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s[3]
            if p is not None:
                flags[i] = flags[p] or self.spans[p][0] in names
        return flags


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer_metrics(tracer, untraced_wall, traced_wall):
    """The per-layer metrics of BENCHMARK.json, from the spans of a traced run.

    Counts are divided by the number of ops; shares by the summed op wall
    time.  A layer with no spans (absent hook or unused path) reports 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    in_twins = tracer.inside({"invert.resolve_twin_family"})
    in_jac = tracer.inside(set(JACOBIAN_SPANS))
    n_ops = sum(1 for s in spans if s[0] == OP)
    op_wall = sum(s[2] - s[1] for s in spans if s[0] == OP)
    calls, incl, selft, units = {}, {}, {}, {}
    layer_self = {}
    twin_rows = 0
    jac_time = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (s[2] - s[1])
        selft[name] = selft.get(name, 0.0) + own[i]
        for key, val in (s[5] or {}).items():
            units[(name, key)] = units.get((name, key), 0) + val
        if name != OP:
            layer = layer_of(name)
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        if name == "forward.ProtocolLayout.statistics" and in_twins[i]:
            twin_rows += (s[5] or {}).get("rows", 0)
        if name in JACOBIAN_SPANS and not in_jac[i]:
            jac_time += s[2] - s[1]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def u(name, key):
        return units.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ops = max(n_ops, 1)
    stats = "forward.ProtocolLayout.statistics"
    lm = "invert._lm_multistart"
    matrices = u("smallmat.expi_neg_batch", "matrices")
    rows = u(stats, "rows")
    points = sum(u(n, "points") for n in JACOBIAN_SPANS)
    io_bytes = sum(v for (n, k), v in units.items()
                   if k == "bytes" and layer_of(n) == "io")
    return {
        "smallmat.expi_batch.matrices_per_op": matrices / ops,
        "smallmat.expi_batch.ns_per_matrix":
            1e9 * ratio(selft.get("smallmat.expi_neg_batch", 0.0), matrices),
        "smallmat.expi_scalar.calls_per_op": c("smallmat.expi_neg") / ops,
        "smallmat.self_share": ratio(layer_self.get("smallmat", 0.0), op_wall),
        "forward.statistics.calls_per_op": c(stats) / ops,
        "forward.statistics.rows_per_op": rows / ops,
        "forward.statistics.rows_per_call": ratio(rows, c(stats)),
        "forward.statistics.self_us_per_row":
            1e6 * ratio(selft.get(stats, 0.0), rows),
        "forward.layout.builds_per_op":
            c("forward.ProtocolLayout.__init__") / ops,
        "forward.self_share": ratio(layer_self.get("forward", 0.0), op_wall),
        "identify.jacobian.points_per_op": points / ops,
        "identify.jacobian.us_per_point": 1e6 * ratio(jac_time, points),
        "identify.jacobian.share": ratio(jac_time, op_wall),
        "identify.structural.ms_per_op":
            1e3 * t("identify.structural_zero_columns") / ops,
        "invert.starts.rows_per_op": u("invert._build_starts", "rows") / ops,
        "invert.starts.ms_per_op": 1e3 * t("invert._build_starts") / ops,
        "invert.lm.calls_per_op": c(lm) / ops,
        "invert.lm.starts_per_op": u(lm, "starts") / ops,
        "invert.lm.self_ms_per_op": 1e3 * selft.get(lm, 0.0) / ops,
        "invert.lm.converged_frac": ratio(u(lm, "converged"), c(lm)),
        "invert.twins.ms_per_op": 1e3 * t("invert.resolve_twin_family") / ops,
        "invert.twins.stat_rows_per_op": twin_rows / ops,
        "invert.sparse.calls_per_op":
            c("invert.prefer_sparse_coherences") / ops,
        "invert.sparse.ms_per_op":
            1e3 * t("invert.prefer_sparse_coherences") / ops,
        "invert.package.ms_per_op": 1e3 * max(
            t("invert._package_result") - t("invert.resolve_twin_family")
            - t("invert.prefer_sparse_coherences"), 0.0) / ops,
        "invert.self_share": ratio(layer_self.get("invert", 0.0), op_wall),
        "io.load_protocol.us_per_call":
            1e6 * ratio(t("io.load_protocol"), c("io.load_protocol")),
        "io.load_counts.us_per_call":
            1e6 * ratio(t("io.load_counts"), c("io.load_counts")),
        "io.fingerprint.us_per_call":
            1e6 * ratio(t("io.protocol_fingerprint"),
                        c("io.protocol_fingerprint")),
        "io.write_result.us_per_call":
            1e6 * ratio(t("io.write_result"), c("io.write_result")),
        "io.bytes_per_op": io_bytes / ops,
        "cli.self_ms_per_op": 1e3 * selft.get("cli.main", 0.0) / ops,
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
    }
