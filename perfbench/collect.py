"""Run the benchmark on several seeds and summarise it, as a baseline to cite.

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline.json

For each workload it makes one untraced run per seed, then one traced run
on the first seed.  The summary gives, per end-to-end metric, the median,
the quartiles of statistics.quantiles(n=4) and their distance as a share
of the median.  It also gives the failed and attempted ops, the median
over seeds of each op time before host-speed scaling, and the per-layer
metrics of the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True,
                           timeout=600).stdout.splitlines()
    print(lines[-1], flush=True)
    return json.loads(lines[0]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, unscaled, failed, attempted = {}, {}, 0, 0
        for seed in seeds:
            head, result = _run(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in head["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        end_to_end = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med, "bound": m["bound"], "values": v}
        _, traced = _run(workload, seeds[0], seconds, 1)
        summary["environment"] = head["environment"]
        summary["workloads"][workload] = {
            "failed": failed, "attempted": attempted, "end_to_end": end_to_end,
            "unscaled_median": {name: statistics.median(v) for name, v in unscaled.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_failed": traced["failed"],
        }
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        for name, e in end_to_end.items():
            print(f"{workload:13s} {name:16s} median {e['median']:10.5g} {e['unit']:4s} "
                  f"spread {e['spread']:.3f} (bound {e['bound']})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
