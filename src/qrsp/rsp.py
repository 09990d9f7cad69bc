"""Remote state preparation over a shared two-qubit resource.

Alice measures along alpha_hat and broadcasts the outcome; Bob applies a
pi rotation about his axis beta when the outcome is -1.  The payoff for a
target direction s (orthogonal to beta) is the squared overlap (r.s)^2 of
the average prepared Bloch vector r with the target.  For the optimal
measurement axis the payoff is |E s|^2, its worst-case average over
targets in the plane is the protocol fidelity (E2^2 + E3^2)/2.
"""

from dataclasses import dataclass

import numpy as np

from .qstate import _csv_rows, _csv_text, _unit, as_state, to_bloch

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
        if abs(beta @ target) > 1e-9:
            raise ValueError(
                f"target must lie in the plane orthogonal to beta "
                f"(beta.s = {beta @ target:.3e})")
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
        for r1, r2 in zip(self.records, other.records):
            if np.abs(r1.target - r2.target).max() > 1e-12:
                raise ValueError("sweeps were taken on different targets")
        return np.array([r1.payoff_analytic - r2.payoff_analytic
                         for r1, r2 in zip(self.records, other.records)])


# ---------------------------------------------------------------------------
# exact protocol algebra
# ---------------------------------------------------------------------------

def _branch(rep, alpha_hat, outcome: int) -> tuple:
    """(P, b_out) for `outcome` along alpha_hat, as in outcome_probability and
    bob_conditional_state; b_out is None when P <= 1e-12."""
    prob = 0.5 * (1.0 + outcome * (alpha_hat @ rep.a))
    if prob <= PROB_TOL:
        return prob, None
    return prob, (rep.b + outcome * (rep.E.T @ alpha_hat)) / (2.0 * prob)


def outcome_probability(rho, alpha_hat, outcome: int) -> float:
    """P(outcome) = (1 + outcome * alpha_hat . a) / 2."""
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return float(_branch(to_bloch(rho), alpha_hat, outcome)[0])


def bob_conditional_state(rho, alpha_hat, outcome: int) -> np.ndarray:
    """Bob's Bloch vector after Alice finds `outcome` along alpha_hat:

        b_out = (b + outcome E^T alpha_hat) / (1 + outcome alpha_hat . a)
    """
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    prob, vec = _branch(to_bloch(rho), alpha_hat, outcome)
    if vec is None:
        raise ZeroProbabilityBranch(
            f"branch outcome={outcome:+d} has probability {prob:.3e}")
    return vec


def _correct(v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Pi rotation of v about the unit axis beta."""
    return 2.0 * (v @ beta) * beta - v


def apply_correction(v, beta) -> np.ndarray:
    """Pi rotation about beta: v -> 2 (v.beta) beta - v."""
    beta = _unit(beta, "beta")
    return _correct(np.asarray(v, dtype=float).reshape(3), beta)


def ensemble_state(rho, alpha_hat, beta) -> np.ndarray:
    """Average corrected Bloch vector r = P(+) b_+ + P(-) R_pi b_-.

    Branches of probability <= 1e-12 contribute nothing.  The projection
    of r onto the plane orthogonal to beta equals that of E^T alpha_hat.
    """
    alpha_hat = _unit(alpha_hat, "alpha_hat")
    beta = _unit(beta, "beta")
    rep = to_bloch(rho)
    r = np.zeros(3)
    for outcome in (1, -1):
        prob, vec = _branch(rep, alpha_hat, outcome)
        if vec is None:
            continue
        if outcome == -1:
            vec = _correct(vec, beta)
        r = r + prob * vec
    return r


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
    es = to_bloch(rho).E @ _unit(s, "s")
    n = np.linalg.norm(es)
    if n <= 1e-12:
        return np.array([1.0, 0.0, 0.0])
    return es / n


def average_payoff(rho, beta) -> float:
    """Payoff averaged over targets in the plane orthogonal to beta:
    (|E|_F^2 - |E beta|^2) / 2, optimal alpha at each target."""
    beta = _unit(beta, "beta")
    rep = to_bloch(rho)
    eb = rep.E @ beta
    return float(0.5 * (np.einsum("kl,kl->", rep.E, rep.E) - eb @ eb))


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
    rep = to_bloch(rho)
    ge = fibonacci_sphere(grid_points) @ rep.E.T
    norms = np.einsum("nk,nk->n", ge, ge)
    total = np.einsum("kl,kl->", rep.E, rep.E)
    return float(0.5 * (total - norms.max()))


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
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rho = as_state(rho)  # optimal_alpha below reuses its Bloch triple
    rep = to_bloch(rho)
    s = config.target
    beta = config.beta
    alpha_hat = config.alpha
    if alpha_hat is None:
        alpha_hat = optimal_alpha(rho, s)

    p_plus, b_plus = _branch(rep, alpha_hat, 1)
    _, b_minus = _branch(rep, alpha_hat, -1)
    never = np.zeros(3)  # stands in for a branch that is never sampled
    b_plus = never if b_plus is None else b_plus
    b_minus = never if b_minus is None else _correct(b_minus, beta)

    rng = np.random.default_rng(seed)
    p_plus = float(np.clip(p_plus, 0.0, 1.0))
    n_plus = int(rng.binomial(shots, p_plus))
    f = n_plus / shots
    base = float(b_minus @ s)
    step = float((b_plus - b_minus) @ s)
    if abs(step) <= BRANCH_SNAP_TOL:
        step = 0.0
    g = base + f * step
    stderr = abs(2.0 * g * step) * np.sqrt(f * (1.0 - f) / shots)
    return SweepRecord(target=s, beta=beta,
                       payoff_analytic=float((base + p_plus * step) ** 2),
                       payoff_mc=float(g ** 2), stderr=float(stderr),
                       shots=shots)


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


def beta_for_target(s) -> np.ndarray:
    """Sweep beta policy: normalize(z x s), falling back to +x when s is
    within 1e-9 of the +-z pole."""
    s = np.asarray(s, dtype=float).reshape(3)
    cross = np.array([-s[1], s[0], 0.0])  # z x s
    n = np.linalg.norm(cross)
    if n < 1e-9:
        return np.array([1.0, 0.0, 0.0])
    return cross / n


def sweep(rho, targets, shots: int, seed) -> SweepResult:
    """Run the protocol over a batch of targets with optimal alpha.

    Target i uses the seed stream (seed, i), so records are independent
    of evaluation order.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    records = []
    for i, s in enumerate(targets):
        config = ProtocolConfig(beta=beta_for_target(s), target=s)
        records.append(simulate(rho, config, shots,
                                np.random.SeedSequence([int(seed), i])))
    return SweepResult(tuple(records))
