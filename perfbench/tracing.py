"""Spans around the calls into each qrsp module, and the per-layer metrics
computed from them.

The tracer wraps every public function of every qrsp module, plus
TwoQubitState validation, and installs each wrapper under every qrsp
module namespace that bound the original (rsp and tomo, for example, bind
to_bloch through `from .qstate import`).  Spans are kept in memory and
written out at the end of the run.
"""

import functools
import inspect
import json
import logging
import statistics
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "qstate", "states", "discord", "rsp", "tomo")
OP_SPAN = "bench.op"

# per-layer metric name -> (unit, better)
PER_LAYER = {
    "cli.main.self_us": ("us", "lower"),
    "cli.build_parser.us": ("us", "lower"),
    "cli.quantities_of.self_us": ("us", "lower"),
    "cli.evaluate_oracle_gaps.self_ms": ("ms", "lower"),
    "cli.out_bytes_per_op": ("bytes", "lower"),
    "cli.busy_share": ("ratio", "lower"),
    "qstate.to_bloch.calls_per_op": ("count", "lower"),
    "qstate.to_bloch.self_us": ("us", "lower"),
    "qstate.validate.calls_per_op": ("count", "lower"),
    "qstate.validate.self_us": ("us", "lower"),
    "qstate.load_state_file.self_us": ("us", "lower"),
    "qstate.concurrence.self_us": ("us", "lower"),
    "qstate.state_fidelity.self_us": ("us", "lower"),
    "qstate.busy_share": ("ratio", "lower"),
    "states.ctor.self_us": ("us", "lower"),
    "states.busy_share": ("ratio", "lower"),
    "discord.geometric_discord.self_us": ("us", "lower"),
    "discord.oracle.self_ms": ("ms", "lower"),
    "discord.busy_share": ("ratio", "lower"),
    "rsp.sweep.self_ms": ("ms", "lower"),
    "rsp.simulate.calls_per_op": ("count", "lower"),
    "rsp.simulate.self_us": ("us", "lower"),
    "rsp.optimal_alpha.self_us": ("us", "lower"),
    "rsp.rsp_fidelity.self_us": ("us", "lower"),
    "rsp.rsp_fidelity_oracle.self_ms": ("ms", "lower"),
    "rsp.busy_share": ("ratio", "lower"),
    "tomo.sample_tomography.self_us": ("us", "lower"),
    "tomo.measurement_probabilities.calls_per_op": ("count", "lower"),
    "tomo.linear_inversion.self_us": ("us", "lower"),
    "tomo.psd_repair_ratio": ("ratio", "lower"),
    "tomo.busy_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

# metric stem -> the span names it pools
_SPANS_OF = {
    "discord.oracle": ("discord.geometric_discord_oracle",),
    "states.ctor": ("states.werner", "states.rho_b", "states.random_state",
                    "states.random_zero_discord"),
}
_SCALE = {"us": 1e-3, "ms": 1e-6}  # from nanoseconds


class _RepairCounter(logging.Handler):
    """Counts the PSD-repair INFO records of the qrsp.tomo logger."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("PSD repair"):
            self.count += 1


class Tracer:
    """Spans of the traced cycles, stored column-wise: span i has name
    names[name_id[i]], start and end in perf_counter_ns, the index of its
    parent span (-1 for none) and the op it belongs to."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.repairs = _RepairCounter()
        self._stack = []
        self._undo = []
        self._tomo_level = logging.NOTSET

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(index)
            start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "qrsp" or n.startswith("qrsp.")]
        for layer in LAYERS:
            module = sys.modules[f"qrsp.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, name, fn))
                            setattr(ns, name, traced)
        state_cls = sys.modules["qrsp.qstate"].TwoQubitState
        validate = state_cls.__dict__["__post_init__"]
        self._undo.append((state_cls, "__post_init__", validate))
        state_cls.__post_init__ = self._wrap("qstate.validate", validate)
        tomo_logger = logging.getLogger("qrsp.tomo")
        self._tomo_level = tomo_logger.level
        tomo_logger.setLevel(logging.INFO)
        tomo_logger.addHandler(self.repairs)

    def uninstall(self) -> None:
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)
        tomo_logger = logging.getLogger("qrsp.tomo")
        tomo_logger.removeHandler(self.repairs)
        tomo_logger.setLevel(self._tomo_level)

    def call(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of op op_id."""
        self.op_id = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op"]}\n')
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of the `ops` traced ops.

    Self time is a span's duration minus that of its child spans; calls
    are single-threaded, so children never overlap.  busy_share is a
    layer's self time over the time of all op spans.
    """
    n = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += duration[i]
    self_ns = defaultdict(list)
    total_ns = defaultdict(list)
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        self_ns[name].append(duration[i] - child[i])
        total_ns[name].append(duration[i])
    op_time = sum(total_ns[OP_SPAN])
    busy = defaultdict(int)
    for name, values in self_ns.items():
        busy[name.split(".")[0]] += sum(values)

    metrics = {}
    for metric, (unit, _) in PER_LAYER.items():
        stem, _, stat = metric.rpartition(".")
        names = _SPANS_OF.get(stem, (stem,))
        if stat == "calls_per_op":
            metrics[metric] = sum(len(self_ns[name]) for name in names) / ops
        elif stat == "busy_share":
            metrics[metric] = busy[stem] / op_time
        elif stat in ("self_us", "self_ms", "us"):
            source = total_ns if stat == "us" else self_ns
            values = [v for name in names for v in source[name]]
            metrics[metric] = statistics.median(values) * _SCALE[unit] if values else 0.0
    inversions = len(self_ns["tomo.linear_inversion"])
    metrics["tomo.psd_repair_ratio"] = tracer.repairs.count / inversions if inversions else 0.0
    return metrics
