"""Command line interface: characterize, rsp-sweep, oracle-check.

Exit codes: 0 success, 1 usage error, 2 validation or tolerance failure.
Every output file written with --out is accompanied by a
<out>.manifest.json recording the command, parameters, seed and version;
re-running the same command and seed reproduces outputs byte-identically.
"""

import argparse
import functools
import itertools
import json
import sys
import time

import numpy as np

from . import __version__, discord, qstate, rsp, states, tomo

DISCORD_GAP_TOL = 1e-3
FIDELITY_GAP_TOL = 5e-3
DOMINANCE_TOL = 1e-6
ZERO_DISCORD_TOL = 1e-9
MAX_MEAN_TOTAL = 1e18  # below numpy's largest Poisson mean (~9.2e18); every p <= 1
MAX_TARGETS = 10**6  # rsp-sweep --targets: each sweep holds a few (n, 3) arrays
MAX_GRID_POINTS = 10**6  # oracle-check --grid-points: one cached (n, 3) grid
MAX_ENSEMBLE = 10**6  # oracle-check --ensemble size
_ORACLE_CHUNK = 1024  # states per lockstep oracle call, so memory does not grow with n

_BELL_ALIASES = {"psi+": "psi_plus", "psi-": "psi_minus",
                 "phi+": "phi_plus", "phi-": "phi_minus"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_noise(text: str) -> tuple:
    """(mean_total, rotation axis or None, rotation angle) of a --noise spec."""
    parts = text.split(",")
    head = parts[0].split(":")
    if len(head) != 2 or head[0] != "poisson":
        raise UsageError(f"noise spec must start with poisson:<mean_total>, got {text!r}")
    try:
        mean_total = float(head[1])
    except ValueError as exc:
        raise UsageError(f"bad mean_total in noise spec {text!r}") from exc
    if not 0.0 < mean_total <= MAX_MEAN_TOTAL:  # also rejects NaN
        raise UsageError(f"mean_total must be in (0, {MAX_MEAN_TOTAL:.0e}] in noise spec {text!r}")
    if len(parts) > 2:
        raise UsageError(f"noise spec {text!r} has more than one rot: component")
    axis, angle = None, 0.0
    for extra in parts[1:]:
        fields = extra.split(":")
        if len(fields) != 3 or fields[0] != "rot" or fields[1] not in ("x", "y", "z"):
            raise UsageError(f"bad noise component {extra!r}; expected rot:<x|y|z>:<angle>")
        try:
            angle = float(fields[2])
        except ValueError as exc:
            raise UsageError(f"bad angle in noise component {extra!r}") from exc
        if not np.isfinite(angle):
            raise UsageError(f"angle {fields[2]!r} in noise component {extra!r} must be finite")
        axis = fields[1]
    return mean_total, axis, angle


def _resolve_state(spec: str, args) -> qstate.TwoQubitState:
    """Turn a --state value into a state, reading family parameters from args."""
    if spec == "werner":
        if args.lam is None:
            raise UsageError("werner needs --lambda")
        return states.werner(args.lam)
    if spec == "rho_b":
        if args.k is None or args.t is None:
            raise UsageError("rho_b needs --k and --t")
        return states.rho_b(args.k, args.t)
    if spec == "maximally-mixed":
        return states.maximally_mixed()
    if spec.startswith("bell:"):
        kind = spec.split(":", 1)[1]
        kind = _BELL_ALIASES.get(kind, kind)
        try:
            return states.bell(kind)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if spec.startswith("file:"):
        return qstate.load_state_file(spec.split(":", 1)[1])
    raise UsageError(
        f"unknown state spec {spec!r}; expected werner, rho_b, bell:<kind>, "
        f"maximally-mixed or file:<path>")


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1, np.uint64)[0])


def _apply_noise(rho, noise: str, seed: int) -> qstate.TwoQubitState:
    """Optional local rotation on Bob, then a full Poisson tomography run
    and linear-inversion reconstruction, as the --noise spec asks."""
    mean_total, axis, angle = _parse_noise(noise)
    if axis is not None:
        rho = tomo.perturb_local_rotation(rho, np.eye(3)["xyz".index(axis)], angle)
    records = tomo.sample_tomography(rho, mean_total, seed)
    return tomo.linear_inversion(records)


def _emit(text: str, args, started: float) -> None:
    """Write text to stdout, or atomically to --out with its manifest."""
    if not args.out:
        sys.stdout.write(text)
        return
    qstate._atomic_write(args.out, text)
    params = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {"command": args.command, "parameters": params, "seed": int(args.seed),
                "artifact_version": __version__, "outputs": [args.out],
                "duration_seconds": time.monotonic() - started}
    qstate._atomic_write(f"{args.out}.manifest.json",
                         json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

def quantities_of(rho, ideal=None) -> dict:
    """The five summary rows: fidelity against the ideal target (1 when the
    state is the ideal), purity, concurrence, discord and protocol fidelity."""
    fid = 1.0 if ideal is None else qstate.state_fidelity(rho, ideal)
    return {
        "fidelity": fid,
        "purity": qstate.purity(rho),
        "concurrence": qstate.concurrence(rho),
        "discord": discord.geometric_discord(rho).value,
        "rsp_fidelity": rsp.rsp_fidelity(rho),
    }


def cmd_characterize(args) -> int:
    started = time.monotonic()
    ideal = _resolve_state(args.state, args)
    if args.noise:
        rows = quantities_of(_apply_noise(ideal, args.noise, args.seed), ideal=ideal)
    else:
        rows = quantities_of(ideal)
    if args.format == "csv":
        text = qstate._csv_text(["quantity", "value"],
                                ([name, repr(float(v))] for name, v in rows.items()))
    else:
        width = max(len(name) for name in rows)
        text = "".join(f"{name:<{width}}  {v:.10g}\n" for name, v in rows.items())
    _emit(text, args, started)
    return 0


# ---------------------------------------------------------------------------
# rsp-sweep
# ---------------------------------------------------------------------------

def cmd_rsp_sweep(args) -> int:
    started = time.monotonic()
    if not 1 <= args.targets <= MAX_TARGETS:
        raise UsageError(f"--targets must be in [1, {MAX_TARGETS}]")
    if not 1 <= args.shots < 2**63:  # numpy's binomial takes a C long
        raise UsageError("--shots must be in [1, 2**63)")
    rho1 = _resolve_state(args.state, args)
    rho2 = _resolve_state(args.state2, args)
    if args.noise:
        rho1 = _apply_noise(rho1, args.noise, _subseed(args.seed, 11))
        rho2 = _apply_noise(rho2, args.noise, _subseed(args.seed, 12))
    targets = rsp.fibonacci_sphere(args.targets)
    res1 = rsp.sweep(rho1, targets, args.shots, _subseed(args.seed, 21))
    res2 = rsp.sweep(rho2, targets, args.shots, _subseed(args.seed, 22))
    delta = res1.delta_p(res2)

    header = ["target_index", "sx", "sy", "sz",
              "payoff_analytic_1", "payoff_mc_1", "stderr_1",
              "payoff_analytic_2", "payoff_mc_2", "stderr_2", "delta_p"]
    values = [[float(v) for v in (*r1.target, r1.payoff_analytic, r1.payoff_mc, r1.stderr,
                                  r2.payoff_analytic, r2.payoff_mc, r2.stderr, d)]
              for r1, r2, d in zip(res1.records, res2.records, delta)]
    if args.format == "csv":
        text = qstate._csv_text(header, ([i] + [repr(v) for v in vals]
                                         for i, vals in enumerate(values)))
    else:
        lines = ["  ".join(header)] + [f"{i}  " + "  ".join(f"{v:.10g}" for v in vals)
                                       for i, vals in enumerate(values)]
        text = "\n".join(lines) + "\n"
    _emit(text, args, started)
    print(f"targets {args.targets}  shots {args.shots}  "
          f"min delta_p {delta.min():.10g}  mean delta_p {delta.mean():.10g}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _parse_ensemble(text: str):
    fields = text.split(":")
    if not ((fields[0] == "random" and len(fields) in (2, 3))
            or (fields[0] == "zero-discord" and len(fields) == 2)):
        raise UsageError(
            f"unknown ensemble {text!r}; expected random:<n>[:<rank>] or zero-discord:<n>")
    try:
        n = int(fields[1])
        rank = int(fields[2]) if len(fields) == 3 else None
    except ValueError as exc:
        raise UsageError(f"bad ensemble spec {text!r}") from exc
    if not 1 <= n <= MAX_ENSEMBLE:
        raise UsageError(f"ensemble {text!r} must have 1 to {MAX_ENSEMBLE} states")
    if rank is not None and not 1 <= rank <= 4:
        raise UsageError(f"rank in ensemble {text!r} must be 1..4")
    return (fields[0], n, rank)


def _ensemble_states(kind: str, n: int, rank, seed: int):
    for i in range(n):
        state_seed = np.random.SeedSequence([int(seed), i])
        if kind == "random":
            r = rank if rank is not None else 1 + i % 4
            yield states.random_state(state_seed, rank=r)
        else:
            yield states.random_zero_discord(state_seed)


def evaluate_oracle_gaps(ensemble, grid_points: int) -> dict:
    """Worst-case gaps between closed forms and brute-force oracles."""
    max_discord_gap = 0.0
    max_fidelity_gap = 0.0
    worst_dominance = 0.0  # max of closed - oracle, should stay <= ~0
    max_closed = 0.0
    count = 0
    ensemble = iter(ensemble)
    while chunk := [qstate.as_state(rho) for rho in itertools.islice(ensemble, _ORACLE_CHUNK)]:
        oracles = discord._oracle_rows(np.stack([rho.matrix for rho in chunk]))
        for rho, oracle in zip(chunk, oracles.tolist()):
            closed = discord.geometric_discord(rho).value
            fid = rsp.rsp_fidelity(rho)
            fid_oracle = rsp.rsp_fidelity_oracle(rho, grid_points=grid_points)
            max_discord_gap = max(max_discord_gap, abs(oracle - closed))
            max_fidelity_gap = max(max_fidelity_gap, abs(fid_oracle - fid))
            worst_dominance = max(worst_dominance, closed - oracle)
            max_closed = max(max_closed, closed)
        count += len(chunk)
    if count == 0:
        raise ValueError("oracle check needs at least one state")
    return {
        "states": count,
        "max_discord_gap": max_discord_gap,
        "max_fidelity_gap": max_fidelity_gap,
        "worst_dominance": worst_dominance,
        "max_closed_form": max_closed,
    }


def cmd_oracle_check(args) -> int:
    started = time.monotonic()
    kind, n, rank = _parse_ensemble(args.ensemble)
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise UsageError(f"--grid-points must be in [1, {MAX_GRID_POINTS}]")
    ensemble = _ensemble_states(kind, n, rank, args.seed)
    report = evaluate_oracle_gaps(ensemble, args.grid_points)
    failures = []
    if report["max_discord_gap"] > DISCORD_GAP_TOL:
        failures.append(f"discord gap {report['max_discord_gap']:.3e} > {DISCORD_GAP_TOL:.0e}")
    if report["max_fidelity_gap"] > FIDELITY_GAP_TOL:
        failures.append(f"fidelity gap {report['max_fidelity_gap']:.3e} > {FIDELITY_GAP_TOL:.0e}")
    if report["worst_dominance"] > DOMINANCE_TOL:
        failures.append(f"oracle below closed form by {report['worst_dominance']:.3e}")
    if kind == "zero-discord" and report["max_closed_form"] > ZERO_DISCORD_TOL:
        failures.append(
            f"zero-discord ensemble has closed form {report['max_closed_form']:.3e}")
    lines = [f"ensemble {args.ensemble}  states {report['states']}  "
             f"axes {discord.ORACLE_AXES}  grid {args.grid_points}  seed {args.seed}",
             f"max |oracle - closed| discord   {report['max_discord_gap']:.6e}",
             f"max |grid - eigen| rsp fidelity {report['max_fidelity_gap']:.6e}",
             f"worst closed - oracle           {report['worst_dominance']:.6e}",
             f"max closed-form discord         {report['max_closed_form']:.6e}"]
    for f in failures:
        lines.append(f"FAIL {f}")
    lines.append("PASS" if not failures else "FAIL")
    text = "\n".join(lines) + "\n"
    _emit(text, args, started)
    if args.out:
        sys.stdout.write(lines[-1] + "\n")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("--state", required=True,
                   help="werner | rho_b | bell:<kind> | maximally-mixed | file:<path>")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="werner mixing parameter")
    p.add_argument("--k", type=float, default=None, help="rho_b correlation parameter")
    p.add_argument("--t", type=float, default=None, help="rho_b local-vector parameter")
    p.add_argument("--noise", default=None,
                   help="poisson:<mean_total>[,rot:<x|y|z>:<angle>]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (atomic write + manifest)")
    p.add_argument("--format", choices=("csv", "text"), default="text")


@functools.cache  # argparse takes about a millisecond to build the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="qrsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="fidelity, purity, concurrence, "
                       "discord and protocol fidelity of one state")
    _add_state_flags(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("rsp-sweep", help="payoff sweep over a target grid "
                       "for two resource states")
    _add_state_flags(p)
    p.add_argument("--state2", required=True, help="second resource state spec")
    p.add_argument("--targets", type=int, default=58)
    p.add_argument("--shots", type=int, default=100000)
    p.set_defaults(func=cmd_rsp_sweep)

    p = sub.add_parser("oracle-check", help="closed forms vs brute-force "
                       "minimization on a seeded ensemble")
    p.add_argument("--ensemble", default="random:100",
                   help="random:<n>[:<rank>] | zero-discord:<n>")
    p.add_argument("--grid-points", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy seeds must be non-negative
            raise UsageError(f"--seed expected non-negative integer, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (qstate.StateError, states.InvalidWeights, tomo.MissingSetting,
            tomo.EmptyCounts, rsp.ZeroProbabilityBranch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
