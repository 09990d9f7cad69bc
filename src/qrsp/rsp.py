"""Remote state preparation over a shared two-qubit resource.

Alice measures along alpha_hat and broadcasts the outcome; Bob applies a
pi rotation about his axis beta when the outcome is -1.  The payoff for a
target direction s (orthogonal to beta) is the squared overlap (r.s)^2 of
the average prepared Bloch vector r with the target.  For the optimal
measurement axis the payoff is |E s|^2, its worst-case average over
targets in the plane is the protocol fidelity (E2^2 + E3^2)/2.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .qstate import _csv_rows, _csv_text, _unit, _unit_rows, to_bloch

PROB_TOL = 1e-12
BRANCH_SNAP_TOL = 1e-12  # branch payoff projections closer than this are identical

_CSV_HEADER = ["target_index", "sx", "sy", "sz", "beta_x", "beta_y", "beta_z",
               "payoff_analytic", "payoff_mc", "stderr", "shots"]


class ZeroProbabilityBranch(ValueError):
    """Conditioning on a measurement branch of probability <= 1e-12."""


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol setting: Bob's axis beta, target s in the plane
    perpendicular to beta, and Alice's axis (None selects the optimal one)."""

    beta: np.ndarray
    target: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self):
        beta = _unit(self.beta, "beta")
        target = _unit(self.target, "target")
        _check_in_plane(beta[None], target[None])
        alpha = None if self.alpha is None else _unit(self.alpha, "alpha")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class RspRound:
    alpha_hat: np.ndarray
    outcome: int  # +1 or -1
    bob_conditional: np.ndarray
    corrected: np.ndarray


@dataclass(frozen=True)
class SweepRecord:
    target: np.ndarray
    beta: np.ndarray
    payoff_analytic: float
    payoff_mc: float
    stderr: float
    shots: int


@dataclass(frozen=True)
class SweepResult:
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def to_csv(self) -> str:
        """Serialize with full-precision floats (parse back within 1e-12)."""
        return _csv_text(_CSV_HEADER, (
            [i] + [repr(float(x)) for x in (*r.target, *r.beta, r.payoff_analytic,
                                            r.payoff_mc, r.stderr)] + [r.shots]
            for i, r in enumerate(self.records)))

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        records = []
        for row in _csv_rows(text, _CSV_HEADER):
            vals = [float(x) for x in row[1:10]]
            records.append(SweepRecord(
                target=np.array(vals[0:3]), beta=np.array(vals[3:6]),
                payoff_analytic=vals[6], payoff_mc=vals[7], stderr=vals[8],
                shots=int(row[10])))
        return cls(tuple(records))

    def delta_p(self, other: "SweepResult") -> np.ndarray:
        """Per-target analytic payoff differences against another sweep
        taken on identical targets."""
        if len(self.records) != len(other.records):
            raise ValueError("sweeps have different lengths")
        if (np.abs(_column(self, "target") - _column(other, "target")) > 1e-12).any():
            raise ValueError("sweeps were taken on different targets")
        return _column(self, "payoff_analytic") - _column(other, "payoff_analytic")


def _column(result: SweepResult, field: str) -> np.ndarray:
    """One SweepRecord field over all records, stacked into an array."""
    return np.array([getattr(r, field) for r in result.records])


# ---------------------------------------------------------------------------
# exact protocol algebra
# ---------------------------------------------------------------------------

def _check_in_plane(B, S) -> None:
    """ValueError unless each target S[i] is orthogonal to its axis B[i]
    within 1e-9."""
    dots = np.vecdot(B, S)
    bad = np.flatnonzero(np.abs(dots) > 1e-9)
    if bad.size:
        raise ValueError(f"target must lie in the plane orthogonal to beta "
                         f"(beta.s = {dots[bad[0]]:.3e})")


def _branch(rep, A, outcome: int) -> tuple:
    """(P, b_out) for `outcome` along each row of the (n, 3) axes A, as in
    outcome_probability and bob_conditional_state; b_out is the zero vector
    in rows where P <= 1e-12.

    Row products go through np.vecdot and np.matvec, which call the same
    BLAS dot as a 1-D `@`, so each row is bit-identical to the one-axis
    formula (A @ E, einsum or a sum of products round differently).
    """
    prob = 0.5 * (1.0 + outcome * np.vecdot(A, rep.a))
    live = prob > PROB_TOL
    vec = (rep.b + outcome * np.matvec(rep.E.T, A)) / np.where(live, 2.0 * prob, 1.0)[:, None]
    return prob, np.where(live[:, None], vec, 0.0)


def outcome_probability(rho, alpha_hat, outcome: int) -> float:
    """P(outcome) = (1 + outcome * alpha_hat . a) / 2."""
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    prob, _ = _branch(to_bloch(rho), alpha_hat[None], outcome)
    return float(prob[0])


def bob_conditional_state(rho, alpha_hat, outcome: int) -> np.ndarray:
    """Bob's Bloch vector after Alice finds `outcome` along alpha_hat:

        b_out = (b + outcome E^T alpha_hat) / (1 + outcome alpha_hat . a)
    """
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    prob, vec = _branch(to_bloch(rho), alpha_hat[None], outcome)
    if prob[0] <= PROB_TOL:
        raise ZeroProbabilityBranch(
            f"branch outcome={outcome:+d} has probability {prob[0]:.3e}")
    return vec[0]


def _correct(v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Pi rotation of v about the unit axis beta, row by row for (n, 3)."""
    return (2.0 * np.vecdot(v, beta))[..., None] * beta - v


def apply_correction(v, beta) -> np.ndarray:
    """Pi rotation about beta: v -> 2 (v.beta) beta - v."""
    beta = _unit(beta, "beta")
    return _correct(np.asarray(v, dtype=float).reshape(3), beta)


def _corrected_branches(rep, A, B) -> tuple:
    """(P+, b+, P-, R_pi b-) for each row of the (n, 3) Alice axes A, with
    b- rotated by pi about the Bob axis B of its row.  A branch of
    probability <= 1e-12 has the zero vector, which R_pi keeps at zero."""
    p_plus, b_plus = _branch(rep, A, 1)
    p_minus, b_minus = _branch(rep, A, -1)
    return p_plus, b_plus, p_minus, _correct(b_minus, B)


def ensemble_state(rho, alpha_hat, beta) -> np.ndarray:
    """Average corrected Bloch vector r = P(+) b_+ + P(-) R_pi b_-.

    Branches of probability <= 1e-12 contribute nothing.  The projection
    of r onto the plane orthogonal to beta equals that of E^T alpha_hat.
    """
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    beta = _unit(beta, "beta")
    p_plus, b_plus, p_minus, b_minus = _corrected_branches(
        to_bloch(rho), alpha_hat[None], beta[None])
    return p_plus[0] * b_plus[0] + p_minus[0] * b_minus[0]


def payoff(r, s) -> float:
    """(r . s)^2 for a prepared vector r and unit target s."""
    s = _unit(s, "s")
    r = np.asarray(r, dtype=float).reshape(3)
    return float((r @ s) ** 2)


def payoff_given_alpha(rho, alpha_hat, s) -> float:
    """Analytic payoff (alpha_hat . E s)^2; equals the two-path ensemble value."""
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    s = _unit(s, "s")
    rep = to_bloch(rho)
    return float((alpha_hat @ (rep.E @ s)) ** 2)


def optimal_alpha(rho, s) -> np.ndarray:
    """Best measurement axis E s / |E s|.

    For |E s| <= 1e-12 every axis scores 0; the convention is +x.
    """
    return _optimal_alphas(to_bloch(rho).E, _unit(s, "s")[None])[0]


def _optimal_alphas(E, S) -> np.ndarray:
    """optimal_alpha for each row of the (n, 3) targets S."""
    es = np.matvec(E, S)
    n = np.sqrt(np.vecdot(es, es))  # np.linalg.norm of each row, bit for bit
    return _divide_or_x(es, n, n <= 1e-12)


def _divide_or_x(V, n, degenerate) -> np.ndarray:
    """Rows of V divided by n, with +x in the degenerate rows."""
    out = V / np.where(degenerate, 1.0, n)[:, None]
    out[degenerate] = (1.0, 0.0, 0.0)
    return out


def average_payoff(rho, beta) -> float:
    """Payoff averaged over targets in the plane orthogonal to beta:
    (|E|_F^2 - |E beta|^2) / 2, optimal alpha at each target."""
    return float(_average_payoffs(to_bloch(rho).E, _unit(beta, "beta")[None])[0])


def _average_payoffs(E, B) -> np.ndarray:
    """average_payoff for each row of the (n, 3) unit axes B."""
    EB = B @ E.T
    return 0.5 * (np.einsum("kl,kl->", E, E) - np.einsum("nk,nk->n", EB, EB))


def worst_beta(rho) -> np.ndarray:
    """The beta minimizing average_payoff: a top eigenvector of E^T E."""
    rep = to_bloch(rho)
    _, vecs = np.linalg.eigh(rep.E.T @ rep.E)
    return vecs[:, 2].copy()


def rsp_fidelity(rho) -> float:
    """Worst-case average payoff (E2^2 + E3^2)/2, the two smallest
    eigenvalues of E^T E."""
    rep = to_bloch(rho)
    w = np.clip(np.linalg.eigvalsh(rep.E.T @ rep.E), 0.0, None)
    return float(0.5 * (w[0] + w[1]))


def rsp_fidelity_oracle(rho, grid_points: int = 10000) -> float:
    """min over a Fibonacci grid of beta of the average payoff.

    Independent of the eigenvalue route; converges to rsp_fidelity from
    above as the grid is refined.
    """
    return float(_average_payoffs(to_bloch(rho).E, _fibonacci_grid(grid_points)).min())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def run_round(rho, config: ProtocolConfig, rng: np.random.Generator) -> RspRound:
    """Sample a single protocol round."""
    alpha_hat = config.alpha
    if alpha_hat is None:
        alpha_hat = optimal_alpha(rho, config.target)
    p_plus = np.clip(outcome_probability(rho, alpha_hat, 1), 0.0, 1.0)
    outcome = 1 if rng.random() < p_plus else -1
    vec = bob_conditional_state(rho, alpha_hat, outcome)
    corrected = apply_correction(vec, config.beta) if outcome == -1 else vec
    return RspRound(alpha_hat=alpha_hat, outcome=outcome,
                    bob_conditional=vec, corrected=corrected)


def simulate(rho, config: ProtocolConfig, shots: int, seed) -> SweepRecord:
    """Monte Carlo estimate of the payoff from `shots` protocol rounds.

    The outcome frequency f = n_+/shots weights the two exact corrected
    branch vectors, r_hat = R b_- + f (b_+ - R b_-); the standard error
    comes from the binomial variance of f by the delta method.

    The analytic reference is evaluated on the same branch projections
    with f replaced by the exact probability (equal to (alpha . E s)^2 by
    the two-path identity), so MC - analytic is purely the f fluctuation
    that the error bar models.  Branch projections within 1e-12 count as
    identical: below that the binomial signal is lost to rounding.
    """
    rep = to_bloch(rho)
    S, B = config.target[None], config.beta[None]
    A = _optimal_alphas(rep.E, S) if config.alpha is None else config.alpha[None]
    return _simulate_rows(rep, S, B, A, shots, [seed])[0]


def _simulate_rows(rep, S, B, A, shots: int, seeds) -> list:
    """simulate for each row i of the (n, 3) targets S, Bob axes B and Alice
    axes A, with the generator default_rng(seeds[i]): one SweepRecord a row.

    Only the binomial draws run row by row.  Squares use np.float_power,
    which is C pow like a Python float's ** 2 (x * x rounds differently),
    and f = n_+/shots stays an exact Python int division.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus, b_plus, _, b_minus = _corrected_branches(rep, A, B)
    p_plus = np.clip(p_plus, 0.0, 1.0)
    f = np.array([int(np.random.default_rng(seed).binomial(shots, p)) / shots
                  for seed, p in zip(seeds, p_plus.tolist())])
    base = np.vecdot(b_minus, S)
    step = np.vecdot(b_plus - b_minus, S)
    step = np.where(np.abs(step) <= BRANCH_SNAP_TOL, 0.0, step)
    g = base + f * step
    stderr = np.abs(2.0 * g * step) * np.sqrt(f * (1.0 - f) / shots)
    analytic = np.float_power(base + p_plus * step, 2)
    mc = np.float_power(g, 2)
    return [SweepRecord(target=s, beta=b, payoff_analytic=pa, payoff_mc=pm,
                        stderr=se, shots=shots)
            for s, b, pa, pm, se in zip(S, B, analytic.tolist(), mc.tolist(),
                                        stderr.tolist())]


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors from the golden-angle lattice."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@functools.lru_cache(maxsize=4)  # a grid of 10**6 points holds 24 MB
def _fibonacci_grid(n: int) -> np.ndarray:
    """fibonacci_sphere(n), built once per size and read-only, for the oracles."""
    grid = fibonacci_sphere(n)
    grid.flags.writeable = False
    return grid


def beta_for_target(s) -> np.ndarray:
    """Sweep beta policy: normalize(z x s), falling back to +x when s is
    within 1e-9 of the +-z pole."""
    return _betas(np.asarray(s, dtype=float).reshape(1, 3))[0]


def _betas(S) -> np.ndarray:
    """beta_for_target for each row of the (n, 3) targets S."""
    cross = np.stack([-S[:, 1], S[:, 0], np.zeros(len(S))], axis=1)  # z x s
    n = np.sqrt(np.vecdot(cross, cross))
    return _divide_or_x(cross, n, n < 1e-9)


def sweep(rho, targets, shots: int, seed) -> SweepResult:
    """Run the protocol over a batch of targets with optimal alpha.

    Target i uses the seed stream (seed, i), so records are independent
    of evaluation order.  The whole batch is computed at once, and each
    record is bit-identical to simulate on that target alone.
    """
    S = _unit_rows(np.atleast_2d(targets), "target")
    B = _betas(S)
    _check_in_plane(B, S)
    rep = to_bloch(rho)
    seeds = (np.random.SeedSequence([int(seed), i]) for i in range(len(S)))
    return SweepResult(_simulate_rows(rep, S, B, _optimal_alphas(rep.E, S), shots, seeds))
