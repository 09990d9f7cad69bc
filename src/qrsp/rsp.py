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

from .qstate import _csv_text, _unit, _unit_rows, to_bloch

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
        dot = beta @ target
        if abs(dot) > 1e-9:
            raise ValueError(f"target must lie in the plane orthogonal to beta "
                             f"(beta.s = {dot:.3e})")
        alpha = None if self.alpha is None else _unit(self.alpha, "alpha")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alpha", alpha)


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
        """Serialize with full-precision (repr) floats."""
        return _csv_text(_CSV_HEADER, (
            [i, *map(float, (*r.target, *r.beta, r.payoff_analytic, r.payoff_mc, r.stderr)),
             r.shots] for i, r in enumerate(self.records)))

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

def _branch(rep, A, outcome: int) -> tuple:
    """(P, b_out) for `outcome` along each row of the (n, 3) axes A, as in
    outcome_probability and bob_conditional_state; b_out is the zero vector
    in rows where P <= 1e-12.

    Row products go through np.vecdot and np.matvec; where these call the same
    dot as a 1-D `@` (SkylakeX, not Prescott OpenBLAS kernels), each row is
    bit-identical to the one-axis formula.  A @ E or einsum round otherwise.
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
    c, Q = _payoff_form(to_bloch(rho).E[None])
    return float(_objective(c, Q, _unit(beta, "beta")[None])[0])


def _payoff_form(E) -> tuple:
    """(c, Q) with average payoff c - beta.Q beta, c = |E|_F^2 / 2 and
    Q = E^T E / 2, for each correlation tensor of the (n, 3, 3) stack E."""
    flat = E.reshape(len(E), 9)
    return 0.5 * np.vecdot(flat, flat), 0.5 * (np.matrix_transpose(E) @ E)


def rsp_fidelity(rho) -> float:
    """Worst-case average payoff (E2^2 + E3^2)/2, the two smallest
    eigenvalues of E^T E."""
    rep = to_bloch(rho)
    w = np.clip(np.linalg.eigvalsh(rep.E.T @ rep.E), 0.0, None)
    return float(0.5 * (w[0] + w[1]))


def rsp_fidelity_oracle(rho, grid_points: int = 10000) -> float:
    """min over Bob's axis beta of the average payoff, by _sphere_min seeded
    with grid_points Fibonacci axes.  It takes no eigenvalue of E^T E, is at
    most the grid's minimum and equals rsp_fidelity up to rounding."""
    c, Q = _payoff_form(to_bloch(rho).E[None])
    return float(_sphere_min(c, Q, [grid_points])[0])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

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
    return _simulate_rows(rep, S, B, A, shots, map(np.random.default_rng, [seed]))[0]


def _simulate_rows(rep, S, B, A, shots: int, rngs) -> list:
    """simulate for each row i of the (n, 3) targets S, Bob axes B and Alice
    axes A, with the i-th Generator of rngs, read lazily after the shots
    check (_streams reseeds one per row): one SweepRecord a row.

    Only the binomial draws run row by row.  Squares use np.float_power,
    which is C pow like a Python float's ** 2 (x * x rounds differently),
    and f = n_+/shots stays an exact Python int division.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus, b_plus, _, b_minus = _corrected_branches(rep, A, B)
    p_plus = np.clip(p_plus, 0.0, 1.0)
    f = np.array([int(rng.binomial(shots, p)) / shots
                  for rng, p in zip(rngs, p_plus.tolist())])
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


# Both oracles minimize f(v) = c - v.Q v over unit axes v, for a symmetric
# 3 x 3 form Q: discord with c = Tr rho^2 and Q = M, the RSP fidelity with
# c = |E|_F^2 / 2 and Q = E^T E / 2.  On the unit sphere the critical points
# of f are the eigenvectors of Q.  Along the geodesic from eigenvector u_i
# towards u_j, f'' = 2 (lambda_i - lambda_j), so u_i is a local minimum only
# if lambda_i is the top eigenvalue: every local minimum is the global one,
# and a grid only seeds the descent.  The descent takes no eigenvalue.

_STEP_TOL = 1e-7  # radians; a row's descent stops once its step is below this
_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _objective(c, Q, v) -> np.ndarray:
    """c - v.Q v for the unit axes v (..., 3)."""
    return c - np.vecdot(v, np.matvec(Q, v))


def _axes(angles: np.ndarray) -> np.ndarray:
    """Unit axes for the (theta, phi) pairs along the last dimension."""
    s, c = np.sin(angles), np.cos(angles)
    v = np.empty(angles.shape[:-1] + (3,))
    np.multiply(s[..., 0], c[..., 1], out=v[..., 0])
    np.multiply(s[..., 0], s[..., 1], out=v[..., 1])
    v[..., 2] = c[..., 0]
    return v


def _sphere_min(c, Q, grid_points) -> np.ndarray:
    """min over unit v of c[i] - v.Q[i] v for each row i, by a (theta, phi)
    pattern search from the best axis of _fibonacci_grid(grid_points[i]),
    with that grid's spacing as first step.  Each grid is scored for its row
    alone, so no array grows as rows times grid points.  The rows step in
    lockstep and a row leaves once its step is below _STEP_TOL, so each
    result equals a call on its row alone.  Q must be C-contiguous: matvec
    rounds differently on strided rows."""
    grids = [_fibonacci_grid(n) for n in grid_points]
    v = np.stack([g[np.vecdot(g @ q, g).argmax()] for g, q in zip(grids, Q)])
    step = np.sqrt(4.0 * np.pi / np.array(grid_points, dtype=float))
    fx = _objective(c, Q, v)
    x = np.stack([np.arccos(v[:, 2]), np.arctan2(v[:, 1], v[:, 0])], axis=1)
    found, live = np.empty(len(c)), np.arange(len(c))
    while live.size:
        trial = x[:, None] + step[:, None, None] * _MOVES
        ft = _objective(c[:, None], Q[:, None], _axes(trial))
        rows, j = np.arange(live.size), ft.argmin(axis=1)
        fj = ft[rows, j]
        moved = fj < fx
        x = np.where(moved[:, None], trial[rows, j], x)
        fx = np.where(moved, fj, fx)
        step = np.where(moved, step, 0.5 * step)
        done = step <= _STEP_TOL
        if done.any():
            found[live[done]] = fx[done]
            live, x, fx, step, c, Q = (a[~done] for a in (live, x, fx, step, c, Q))
    return found


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

    Target i draws from default_rng(SeedSequence([seed, i]))'s stream, built
    by _streams, so records are independent of evaluation order.  The whole
    batch runs at once; each record is bit-identical to simulate on it alone.
    """
    S = _unit_rows(np.atleast_2d(targets), "target")
    B = _betas(S)
    rep = to_bloch(rho)
    return SweepResult(_simulate_rows(rep, S, B, _optimal_alphas(rep.E, S), shots,
                                      _streams(seed, len(S))))


# numpy's SeedSequence (O'Neill's seed_seq, pcg-random.org 2015; NEP 19): its k-th
# hash call uses init * mult**k and init * mult**(k + 1) mod 2**32 whatever the words
# are, so all i mix in lockstep, one array row per pool word and one column per i.
def _hashmix(value, call: int, init=0x43B0D7E5, mult=0x931E8875) -> np.ndarray:
    """seed_seq's hash of each row k of the uint32 array value, as hash call
    number call + k.  Array products wrap silently; numpy scalars would warn."""
    k = np.arange(call, call + len(value) + 1, dtype=np.uint32)[:, None]
    hc = np.uint32(init) * np.uint32(mult) ** k
    value = (value ^ hc[:-1]) * hc[1:]
    return value ^ value >> 16


def _seed_words(seed, index) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for each i of
    the 1-D index array, 0 <= i < 2**32, as an (n, 4) uint64 array."""
    if (seed := int(seed)) < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, 4), len(index)), np.uint32)  # padded to the pool
    entropy[:len(words)], entropy[len(words)] = np.array(words, np.uint32)[:, None], index
    pool, call = _hashmix(entropy[:4], 0), 4
    for src in range(len(entropy)):  # each pool word into the other three, the rest into all
        dst = [k for k in range(4) if k != src]
        hashed = _hashmix(np.tile((pool if src < 4 else entropy)[src], (len(dst), 1)), call)
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst], call = mixed ^ mixed >> 16, call + len(dst)
    state = _hashmix(pool[[0, 1, 2, 3] * 2], 0, 0x8B51F9DD, 0x58F38DED).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _streams(seed, n: int):
    """default_rng(SeedSequence([seed, i])) for each i < n, as one reused Generator
    whose PCG64 state is set from _seed_words as pcg_setseq_128_srandom_r does,
    with the multiplier PCG_DEFAULT_MULTIPLIER_128."""
    rng = np.random.Generator(np.random.PCG64(0))
    for s_hi, s_lo, i_hi, i_lo in _seed_words(seed, np.arange(n)).tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) % 2**128
        state = ((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state % 2**128, "inc": inc}}
        yield rng
