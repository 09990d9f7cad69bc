"""Benchmark of the qrsp command line, driven in-process through qrsp.cli.main.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 30 --trace 0

One closed-loop client sends the next op when the previous one returns;
--seconds counts time spent inside the program.  Every op's output is
checked (see checks.py) after the op, outside its timing.  Op and set-up
times are scaled to a fixed host speed (see REFERENCE_MS and
SETUP_REFERENCE_S).  With --trace 0 the last line of stdout is a JSON
object holding the end-to-end metrics.  With --trace 1 whole cycles of
ops alternate between untraced and traced, and the object holds the
per-layer metrics of tracing.py.  The lines before it describe the
environment, give the unscaled times and list every metric with its unit
and sample count.  The run also writes its report, and with --trace 1 its
spans, under .perfbench-out/ at the root of the checkout.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

DEADLINE_S = 150.0  # a run stops at the next cycle boundary past this, whatever --seconds says
# On a shared 2-vCPU virtual machine, other tenants slowed every op by up
# to 1.8x, in phases of seconds to minutes.  A fixed reference task, the
# benchmark's own code and never qrsp's, is timed before every cycle of
# ops and once after the last.  Each op's time is multiplied by
# REFERENCE_MS over the median of the four reference times around its
# cycle: it is scaled to a host that runs the reference task in
# REFERENCE_MS.  A change to the program moves the scaled times as it
# moves the raw ones, while a change in the host's speed moves the op and
# the reference task alike, and cancels.
REFERENCE_MS = 2.0
# Set-up time is spent in a fresh interpreter, whose start and imports
# drift with the host (from 0.15 s to 0.34 s for the same code) and do not
# follow the reference task.  So each set-up sample is followed by a fresh
# interpreter that imports numpy alone, and is scaled to a host where that
# takes SETUP_REFERENCE_S.
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import qrsp.cli; qrsp.cli.build_parser()")
SETUP_REFERENCE_CODE = "import numpy"
SETUP_REFERENCE_S = 0.15

# end-to-end metric name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Phase:
    """The ops of a run that were timed under one setting (traced or not)."""

    latencies: list = field(default_factory=list)  # seconds, one per attempted op
    cycles: list = field(default_factory=list)  # the cycle each op ran in
    busy: float = 0.0  # sum of latencies
    failures: list = field(default_factory=list)  # (op index, argv, reason)
    out_bytes: int = 0
    kinds: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self, speed) -> list:
        """Latencies scaled by speed(cycle) to the reference host speed."""
        return [t * speed(c) for t, c in zip(self.latencies, self.cycles)]

    def ops_per_s(self, speed) -> float:
        return (self.attempted - len(self.failures)) / sum(self.scaled(speed))


_HELP = "help text about as long as that of a real option"


def reference_task() -> int:
    """Fixed work like an op's: argparse, small complex linear algebra and
    a vector of binomial samples.  About 2 ms on a 2-vCPU Xeon."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command", required=True)
    for c in range(3):
        command = commands.add_parser(f"command{c}")
        for j in range(12):
            command.add_argument(f"--option{j}", type=float, default=0.0, help=_HELP)
    parser.parse_args(["command1", "--option3=1.5", "--option7", "-2"])
    rng = np.random.default_rng(12345)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    for _ in range(20):
        np.linalg.eigvalsh(h @ h)
        np.trace(np.kron(h[:2, :2], h[2:, 2:]))
    return int(rng.binomial(1000, 0.3, size=10_000).sum())


def reference_time() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


class HostSpeed:
    """Reference times taken at cycle boundaries: refs[c] just before
    cycle c, and one after the last cycle."""

    def __init__(self):
        self.refs = []

    def __call__(self, cycle: int) -> float:
        """The factor that scales a time taken in `cycle` (or just after it)."""
        near = self.refs[max(0, cycle - 1):cycle + 3]
        return 1e-3 * REFERENCE_MS / statistics.median(near)


def _call_main(argv):
    import qrsp.cli
    return qrsp.cli.main(argv)


def run_op(op, op_id, tracer=None, mutate=None):
    """Run one op; return (seconds, output bytes, None or why it failed)."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = _call_main(op.argv)
            else:
                code = tracer.call(op_id, _call_main, op.argv)
        except Exception as exc:  # the loop must go on; the op counts as failed
            code, reason = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if mutate is not None:
        text = mutate(op, text)
    nbytes = len(text.encode())
    if reason is None and code != 0:
        reason = f"exit {code}: {(err.getvalue() + text).strip()[-300:]}"
    if reason is None:
        try:
            reason = op.verify(text)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"output does not parse: {exc!r}"
    if op.out is not None:
        for path in (op.out, f"{op.out}.manifest.json"):
            with contextlib.suppress(FileNotFoundError):
                nbytes += os.path.getsize(path)
                os.remove(path)
    return seconds, nbytes, reason


def run_loop(workload, seconds, min_ops, deadline, speed, tracer=None, mutate=None,
             on_cycle=None):
    """Closed loop over whole cycles of ops until `seconds` of program time
    and `min_ops` ops have passed, recording reference times in `speed`.
    With a tracer, odd cycles are traced and even ones are not, so both
    phases see the same machine; returns {"untraced": Phase} or
    {"untraced": Phase, "traced": Phase}."""
    phases = {"untraced": Phase()}
    if tracer is not None:
        phases["traced"] = Phase()
    cycle = len(workload.cycle)
    for c in itertools.count():
        speed.refs.append(reference_time())
        traced = tracer is not None and c % 2 == 1
        phase = phases["traced" if traced else "untraced"]
        if traced:
            tracer.install()
        try:
            for i in range(c * cycle, (c + 1) * cycle):
                op = workload.op(i)
                latency, nbytes, reason = run_op(op, i, tracer if traced else None, mutate)
                phase.latencies.append(latency)
                phase.cycles.append(c)
                phase.busy += latency
                phase.out_bytes += nbytes
                phase.kinds[op.kind] = phase.kinds.get(op.kind, 0) + 1
                if reason is not None:
                    phase.failures.append((i, op.argv, reason))
        finally:
            if traced:
                tracer.uninstall()
        busy = sum(p.busy for p in phases.values())
        if on_cycle is not None:
            on_cycle(busy)
        if tracer is not None and not traced:
            continue  # a traced run ends on a traced cycle
        if (busy >= seconds and (c + 1) * cycle >= min_ops) or time.monotonic() > deadline:
            speed.refs.append(reference_time())
            return phases


def _spawn_time(code: str) -> float:
    """Wall time of a fresh interpreter running `code`, with SRC as its argument."""
    cmd = [sys.executable, "-I", "-c", code, str(SRC)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def setup_time() -> tuple:
    """(raw, scaled) wall time of a fresh interpreter importing qrsp.cli and
    building the parser; see SETUP_REFERENCE_S."""
    raw = _spawn_time(SETUP_CODE)
    return raw, raw * SETUP_REFERENCE_S / _spawn_time(SETUP_REFERENCE_CODE)


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(KeyError, TypeError, AttributeError):  # layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    threads = {v: os.environ.get(v) for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
    }


def _import_program():
    """Import qrsp from this checkout's src/, never from anywhere else."""
    if not (SRC / "qrsp" / "cli.py").is_file():
        raise ImportError(f"no qrsp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrsp.cli
    if Path(qrsp.cli.__file__).resolve().parent != SRC / "qrsp":
        raise ImportError(f"qrsp was imported from {qrsp.cli.__file__}")


def _timings(phase, speed) -> dict:
    """The end-to-end times of an untraced phase, each op's scaled by speed(cycle)."""
    lat_ms = [1e3 * t for t in phase.scaled(speed)]
    return {
        "ops_per_s": phase.ops_per_s(speed),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
    }


def benchmark(name, seed, seconds, trace, sizes, mutate=None):
    """Run one workload; return (result line, report) where the report adds
    the environment, sample counts, unscaled times and failures."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    speed = HostSpeed()
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, sizes)
        cycle = len(workload.cycle)
        for i in range(cycle):  # warm-up: first-call costs stay out of the timed loop
            run_op(workload.op(i), i)
            reference_time()
        if not trace:
            # set-up samples are spread over the run, between cycles and
            # outside the op timings, so they see the machine the ops see
            setup_time()  # unmeasured: writes the bytecode
            setup = []

            def sample_setup(busy):
                if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
                    setup.append(setup_time())

            phases = run_loop(workload, seconds, sizes.min_ops, deadline, speed, mutate=mutate,
                              on_cycle=sample_setup)
            while len(setup) < SETUP_REPEATS:
                setup.append(setup_time())
            phase = phases["untraced"]
            metrics = _timings(phase, speed)
            metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            unscaled = _timings(phase, lambda c: 1.0)
            unscaled["setup_s"] = statistics.median(raw for raw, _ in setup)
            units = END_TO_END
            samples = {m: phase.attempted for m in metrics}
            samples.update(setup_s=len(setup), peak_rss_mb=1)
        else:
            tracer = tracing.Tracer()
            phases = run_loop(workload, seconds, 2 * cycle, deadline, speed, tracer=tracer,
                              mutate=mutate)
            plain, traced = phases["untraced"], phases["traced"]
            metrics = tracing.layer_metrics(tracer, traced.attempted)
            metrics["cli.out_bytes_per_op"] = traced.out_bytes / traced.attempted
            metrics["trace.overhead_ratio"] = traced.ops_per_s(speed) / plain.ops_per_s(speed)
            unscaled = {}
            units = tracing.PER_LAYER
            samples = {m: traced.attempted for m in metrics}
            samples["trace.overhead_ratio"] = plain.attempted + traced.attempted
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(str(OUT_DIR / f"trace-{name}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases.values())
    failures = [f for p in phases.values() for f in p.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m][0]} for m in units},
    }
    refs_ms = [1e3 * r for r in speed.refs]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "cycle_length": cycle,
        "ops": {k: {"attempted": p.attempted, "failed": len(p.failures), "kinds": p.kinds}
                for k, p in phases.items()},
        "failed_ratio": len(failures) / attempted,
        "reference_ms": {"samples": len(refs_ms), "median": statistics.median(refs_ms),
                         "min": min(refs_ms), "max": max(refs_ms)},
        "unscaled": unscaled,
        "samples": samples,
        "failures": failures[:20],
        "result": result,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sweeps and at least 10 ops, not 100, for the self-test")
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.tiny else workloads.FULL
    result, report = benchmark(args.workload, args.seed, args.seconds, args.trace, sizes)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in
                      ("workload", "seed", "environment", "ops", "reference_ms", "unscaled")}))
    print(f"failed_ratio {report['failed_ratio']:.6g} ({result['failed']} of {result['attempted']} ops)")
    for reason in report["failures"][:5]:
        print(f"FAILED op {reason[0]}: {reason[2]}  argv {' '.join(reason[1])}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:45s} {entry['value']:14.6g} {entry['unit']:6s} n={report['samples'][metric]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
