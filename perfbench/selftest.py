"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

It checks that
  1. every run prints exactly the metric names and units of BENCHMARK.json,
     and no characterize or rsp-sweep op fails on unmodified outputs
     (oracle-check may: its oracle misses the CLI's 1e-3 tolerance on
     about 1 state in 100);
  2. a corrupted output (a wrong payoff_analytic, a FAIL line, a purity
     out of range) is counted as failed;
  3. the exact call counts (*.calls_per_op) repeat for one seed, also when
     a longer run covers more cycles;
  4. the benchmark exits non-zero, printing no result, where the program's
     sources are missing.
Exits 0 when all hold.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(workload, trace, seconds="0.3", seed=3, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=script.parent.parent,
                          timeout=170, check=False)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_names_and_counts(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, seconds in ((0, "0.3"), (1, "0.3"), (1, "1.5")):
            result = _result(_bench(workload, trace, seconds))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            if workload != "oracle-check":
                assert result["correct"] and result["failed"] == 0, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            if trace:
                counts.append({name: m["value"] for name, m in result["metrics"].items()
                               if name.endswith(".calls_per_op")})
        assert counts[0] == counts[1], (workload, counts)
        print(f"ok   names and units, exact call counts: {workload} {counts[0]}")


def _corrupt(op, text):
    """Spoil one number (or the verdict) of an op's output."""
    if op.argv[0] == "oracle-check":
        return text.rsplit("PASS", 1)[0] + "FAIL\n"
    if op.argv[0] == "characterize":
        return re.sub(r"\npurity,[^\n]*", "\npurity,1.5", text)
    if op.out is None:
        return _spoil_payoff(text)
    Path(op.out).write_text(_spoil_payoff(Path(op.out).read_text()))
    return text


def _spoil_payoff(csv_text):
    """Add 1e-6 to payoff_analytic_1 of the first target."""
    header, first, rest = csv_text.split("\n", 2)
    fields = first.split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    return "\n".join([header, ",".join(fields), rest])


def check_corruption_counted(spec: dict) -> None:
    sys.path.insert(0, str(HERE))
    import run
    import workloads
    run._import_program()
    for workload in (w["name"] for w in spec["workloads"]):
        result, _ = run.benchmark(workload, 5, 0.1, 0, workloads.TINY, mutate=_corrupt)
        assert result["failed"] == result["attempted"] > 0 and not result["correct"], result
        print(f"ok   every corrupted output counted as failed: {workload} "
              f"({result['failed']} of {result['attempted']})")


def check_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("characterize", 0, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0, proc.returncode
        assert '"correct"' not in proc.stdout, proc.stdout
        print(f"ok   exits {proc.returncode} without the program: {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_program()
    check_corruption_counted(spec)
    check_names_and_counts(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
