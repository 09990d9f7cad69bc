"""The benchmark's three workloads: seeded streams of qrsp CLI calls.

Op i of a workload depends only on (seed, i).  Each workload repeats a
fixed cycle of op kinds, so a run that stops at a cycle boundary has the
same op mix, and the same exact call counts per op, on every seed.  State
files come from a pool the benchmark writes before timing starts.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

POOL_SIZE = 32  # random states in the file pool, ranks 1-4 in turn


@dataclass
class Op:
    argv: list
    kind: str
    verify: Callable  # verify(stdout) -> None or a reason the output is wrong
    out: str | None = None  # the --out path, removed once verified


@dataclass(frozen=True)
class Sizes:
    targets: int
    shots: int
    min_ops: int  # fewest ops in an untraced end-to-end phase


FULL = Sizes(targets=58, shots=100_000, min_ops=100)
TINY = Sizes(targets=6, shots=1_000, min_ops=10)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class _Workload:
    cycle: tuple = ()

    def __init__(self, seed: int, workdir: str, sizes: Sizes):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        rng = _rng(seed, 2**32)
        self.pool = []  # (matrix, {form: path})
        for j in range(POOL_SIZE):
            m = checks.random_matrix(rng, rank=1 + j % 4)
            paths = {}
            for form in ("matrix", "bloch"):
                paths[form] = os.path.join(workdir, f"state{j}.{form}.json")
                with open(paths[form], "w", encoding="utf-8") as fh:
                    json.dump(checks.state_file_doc(m, form), fh)
            self.pool.append((m, paths))

    def state(self, kind: str, rng: np.random.Generator) -> tuple:
        """argv fragment and matrix for one state of the given kind.

        Values go in --flag=value form: argparse reads a separate
        "-6e-17" as an option, not as a negative number."""
        if kind == "werner":
            lam = float(rng.uniform(0.0, 1.0))
            return ["werner", f"--lambda={lam!r}"], checks.werner_matrix(lam)
        if kind == "rho_b":
            # a grid over the valid triangle -1/3 <= k <= 1, |t| <= (1 - k) / 2
            k = float(rng.choice(np.linspace(-0.3, 0.9, 13)))
            t = float(rng.choice(np.linspace(-0.9, 0.9, 7))) * (1.0 - k) / 2.0
            return ["rho_b", f"--k={k!r}", f"--t={t!r}"], checks.rho_b_matrix(k, t)
        m, paths = self.pool[int(rng.integers(POOL_SIZE))]
        return [f"file:{paths[kind]}"], m


class Characterize(_Workload):
    """One `characterize --format csv` call per op.  11 of every 20 ops are
    noise-free; the rest reconstruct the state from Poisson tomography."""

    cycle = (
        ("rho_b", None), ("werner", "1e4"), ("matrix", None), ("bloch", "1e5,rot"),
        ("werner", None), ("rho_b", "1e5"), ("bloch", None), ("matrix", "1e4,rot"),
        ("rho_b", None), ("werner", "1e5,rot"), ("matrix", None), ("bloch", "1e4"),
        ("werner", None), ("rho_b", "1e4,rot"), ("bloch", None), ("matrix", "1e5"),
        ("rho_b", None), ("werner", None), ("matrix", None), ("bloch", "1e4,rot"),
    )

    def op(self, i: int) -> Op:
        state_kind, noise = self.cycle[i % len(self.cycle)]
        rng = _rng(self.seed, i)
        spec, m = self.state(state_kind, rng)
        argv = ["characterize", "--format", "csv", "--state", spec[0], *spec[1:]]
        ideal = checks.ideal_quantities(m)
        if noise is None:
            return Op(argv, state_kind, lambda text: checks.check_characterize(text, ideal))
        mean_total = float(noise.split(",")[0])
        noise_spec = f"poisson:{noise.split(',')[0]}"
        angle = 0.0
        if noise.endswith(",rot"):
            angle = float(rng.uniform(-0.2, 0.2))
            noise_spec += f",rot:{'xyz'[int(rng.integers(3))]}:{angle!r}"
        argv += ["--noise", noise_spec, "--seed", str(int(rng.integers(2**31)))]
        return Op(argv, f"{state_kind}+{noise}",
                  lambda text: checks.check_characterize(text, ideal, mean_total, angle))


class RspSweep(_Workload):
    """One `rsp-sweep` call per op at 58 targets and 1e5 shots, on a new
    pair of resource states; every other op writes --out.  The two states
    of a pair never share a family, since --lambda, --k and --t serve both."""

    cycle = (("rho_b", "werner"), ("matrix", "rho_b"), ("bloch", "matrix"), ("werner", "bloch"))

    def op(self, i: int) -> Op:
        kind1, kind2 = self.cycle[i % len(self.cycle)]
        rng = _rng(self.seed, i)
        spec1, m1 = self.state(kind1, rng)
        spec2, m2 = self.state(kind2, rng)
        argv = ["rsp-sweep", "--format", "csv",
                "--state", spec1[0], "--state2", spec2[0], *spec1[1:], *spec2[1:],
                "--targets", str(self.sizes.targets), "--shots", str(self.sizes.shots),
                "--seed", str(int(rng.integers(2**31)))]
        E1, E2 = checks.bloch(m1)[2], checks.bloch(m2)[2]
        n = self.sizes.targets

        def verify_stdout(text):
            return checks.check_sweep(text, E1, E2, n)

        if i % 2 == 0:
            return Op(argv, f"{kind1}/{kind2}", verify_stdout)
        out = os.path.join(self.workdir, f"sweep{i}.csv")

        def verify_out(text):
            if text:
                return f"--out run printed {len(text)} bytes to stdout"
            with open(out, encoding="utf-8") as fh:
                reason = verify_stdout(fh.read())
            with open(f"{out}.manifest.json", encoding="utf-8") as fh:
                return reason or checks.check_manifest(fh.read(), out, "rsp-sweep")

        return Op(argv + ["--out", out], f"{kind1}/{kind2}+out", verify_out, out=out)


class OracleCheck(_Workload):
    """One single-state `oracle-check` per op: random states of rank 1-4,
    and a zero-discord state every fifth op."""

    cycle = ("random:1:1", "random:1:2", "random:1:3", "random:1:4", "zero-discord:1")

    def op(self, i: int) -> Op:
        ensemble = self.cycle[i % len(self.cycle)]
        argv = ["oracle-check", "--ensemble", ensemble,
                "--seed", str(int(_rng(self.seed, i).integers(2**31)))]
        return Op(argv, ensemble, checks.check_oracle)


WORKLOADS = {"characterize": Characterize, "rsp-sweep": RspSweep, "oracle-check": OracleCheck}
