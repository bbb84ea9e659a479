"""Certified bounds on the minimax training loss under poisoning.

The certificate objective for a model theta is the clean average hinge loss
plus eps times the worst feasible single-point loss; it upper-bounds the
minimax training loss for every theta. An adaptive dual-averaging learner
descends that objective while the per-step loss maximizers accumulate into a
candidate attack, whose induced training loss is the matching lower bound.
For fixed defenses the duality gap is bounded by the learner's average
regret; for data-dependent defenses the same loop runs with the Gram-SDP
oracle but the regret guarantee no longer applies, so upper and lower bounds
are reported without the sandwich assertion.

Both entry points run one driver; they differ only in the oracle it calls
and in how the oracle's answers become an attack. A new defense supplies
`oracle(theta, seed)` (`seed` is the step's own, drawn from the run seed)
returning an `_OracleStep`: the gradient support `points` (k, d), `labels`
and `masses` summing to eps; `value`, the mass-weighted worst loss added to
the clean loss in the objective u (it must not under-estimate the maximum
for u to stay an upper bound); `loss`, the worst loss per unit of mass,
stored as `StepRecord.oracle_loss`; and `result`, what attack assembly
needs from the answer. The fixed-defense oracles answer per class, and the
step takes the row of largest loss: its relaxed row as the support, the
best feasible (integer) row and its label as `result`. The SDP oracle's
support is its four weighted points and `result` its whole answer. An
oracle that raises `SdpOracleError` skips its step; more than a tenth of
the steps skipped fails the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import sdp as sdp_mod
from .data import Dataset, class_stats, concat
from .defense import FeasibleSet, SphereSlabParams
from .maxoracle import LABELS, max_loss_continuous, max_loss_integer
from .model import LinearModel, TrainConfig, train_erm

__all__ = [
    "RdaState",
    "StepRecord",
    "Certificate",
    "CertificationError",
    "init_rda_state",
    "rda_step",
    "regret_bound_trace",
    "certify_fixed",
    "certify_data_dependent",
]

logger = logging.getLogger(__name__)

_FIXED_TRAIN = TrainConfig(tol=1e-9, max_stages=24, stage_iters=1500)
_DD_TRAIN = TrainConfig(tol=1e-7, max_stages=20, stage_iters=1000)
_SANDWICH_TOL = 1e-6  # slack on lower <= upper and on gap <= regret / T
_MAX_SKIP_FRACTION = 0.1


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class RdaState:
    """State of the adaptive dual-averaging learner.

    theta = -G_t / lambda_t with lambda_t = max(1/eta, ||G_t||/rho): growing
    lambda enforces the norm ball exactly while keeping lambda_t >= 1/eta.
    """

    cumulative_gradient: np.ndarray
    eta: float
    lambda_t: float
    rho: float
    theta: np.ndarray


def init_rda_state(d: int, rho: float, eta: float) -> RdaState:
    if rho <= 0 or eta <= 0:
        raise ValueError("rho and eta must be positive")
    return RdaState(
        cumulative_gradient=np.zeros(d),
        eta=eta,
        lambda_t=1.0 / eta,
        rho=rho,
        theta=np.zeros(d),
    )


def rda_step(state: RdaState, g: np.ndarray) -> RdaState:
    """One dual-averaging update: accumulate g, rescale, renormalize theta."""
    g = np.asarray(g, dtype=float)
    if g.shape != state.cumulative_gradient.shape:
        raise ValueError("gradient dimension mismatch")
    G = state.cumulative_gradient + g
    lam = max(1.0 / state.eta, float(np.linalg.norm(G)) / state.rho)
    return RdaState(
        cumulative_gradient=G,
        eta=state.eta,
        lambda_t=lam,
        rho=state.rho,
        theta=-G / lam,
    )


def regret_bound_trace(grad_norms, lambdas, rho: float, eta: float) -> np.ndarray:
    """Cumulative bound rho^2/(2 eta) + sum_s ||g_s||^2 / (2 lambda_s).

    lambda_s is the regularization in effect when gradient s arrived (the one
    that produced the iterate the gradient was evaluated at), so the first
    term uses lambda_1 = 1/eta.
    """
    grad_norms = np.asarray(grad_norms, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if grad_norms.shape != lambdas.shape:
        raise ValueError("grad_norms and lambdas must align")
    head = rho**2 / (2.0 * eta)
    if grad_norms.size == 0:
        return np.array([])
    return head + np.cumsum(grad_norms**2 / (2.0 * lambdas))


@dataclass
class StepRecord:
    """Per-iteration trace entry of the certification loop."""

    t: int
    u_before: float  # objective at the pre-update iterate theta^{t-1}
    u_after: float | None  # objective at the post-update iterate theta^{t}
    lambda_used: float
    grad_norm: float
    oracle_loss: float
    skipped: bool = False

    def as_json(self):
        return {
            "t": self.t,
            "u_pre": self.u_before,
            "u_post": self.u_after,
            "lambda": self.lambda_used,
            "grad_norm": self.grad_norm,
            "oracle_loss": self.oracle_loss,
            "skipped": self.skipped,
        }


@dataclass
class Certificate:
    """Upper/lower bounds with the candidate attack and instrumentation."""

    kind: str
    eps: float
    rho: float
    eta: float
    n_clean: int
    n_steps: int
    upper_bound: float
    lower_bound: float
    duality_gap: float
    attack: Dataset
    model_tilde: LinearModel
    u_trace: np.ndarray
    u_pre_trace: np.ndarray
    regret_trace: np.ndarray
    steps: list = field(default_factory=list)
    n_skipped: int = 0
    attack_masses: np.ndarray | None = None
    support_violation: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def avg_regret_bound(self):
        if self.regret_trace.size == 0:
            return 0.0
        return float(self.regret_trace[-1]) / self.n_steps

    def to_json_dict(self, config_echo=None):
        out = {
            "kind": self.kind,
            "eps": self.eps,
            "rho": self.rho,
            "eta": self.eta,
            "n_clean": self.n_clean,
            "n_steps": self.n_steps,
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
            "duality_gap": self.duality_gap,
            "avg_regret_bound": self.avg_regret_bound,
            "n_skipped": self.n_skipped,
            "support_violation": self.support_violation,
            "attack": {
                "labels": [int(v) for v in self.attack.y],
                "X": [[float(v) for v in row] for row in self.attack.X],
            },
            "model_tilde": self.model_tilde.to_json_dict(),
            "u_trace": [float(v) for v in self.u_trace],
            "u_pre_trace": [float(v) for v in self.u_pre_trace],
            "regret_trace": [float(v) for v in self.regret_trace],
            "steps": [s.as_json() for s in self.steps],
            "notes": list(self.notes),
        }
        if self.attack_masses is not None:
            out["attack_masses"] = [float(v) for v in self.attack_masses]
        if config_echo is not None:
            out["config"] = config_echo
        return out


def _default_eta(D_c: Dataset, params: SphereSlabParams, eps: float, T: int, rho: float) -> float:
    """rho / (Gbar sqrt(T)) with Gbar an estimate of the per-step gradient norm."""
    mean_norm = float(np.linalg.norm(D_c.X, axis=1).mean())
    feas = max(
        float(np.linalg.norm(params.mu(y))) + (params.r(y) if params.use_sphere else 0.0)
        for y in (1, -1)
    )
    g_bar = max(mean_norm + eps * feas, 1e-12)
    return rho / (g_bar * math.sqrt(max(T, 1)))


def _clean_loss_and_grad(theta, D_c):
    margins = D_c.y * (D_c.X @ theta)
    loss = float(np.maximum(0.0, 1.0 - margins).mean())
    active = margins < 1.0
    if active.any():
        grad = -(D_c.y[active].astype(float) / D_c.n) @ D_c.X[active]
    else:
        grad = np.zeros(D_c.d)
    return loss, grad


def _hinge_sum(theta, X, y):
    return float(np.maximum(0.0, 1.0 - y * (X @ theta)).sum())


def _degenerate_certificate(kind, D_c, rho, train_config):
    model = train_erm(D_c, rho, train_config)
    clean = _hinge_sum(model.theta, D_c.X, D_c.y) / D_c.n
    empty = Dataset(np.zeros((0, D_c.d)), np.zeros(0, dtype=int))
    return Certificate(
        kind=kind,
        eps=0.0,
        rho=rho,
        eta=float("nan"),
        n_clean=D_c.n,
        n_steps=0,
        upper_bound=clean,
        lower_bound=clean,
        duality_gap=0.0,
        attack=empty,
        model_tilde=model,
        u_trace=np.array([]),
        u_pre_trace=np.array([]),
        regret_trace=np.array([]),
    )


class _OracleStep(NamedTuple):
    """One oracle answer at the learner's current iterate (see the module docstring)."""

    points: np.ndarray
    labels: np.ndarray
    masses: np.ndarray
    value: float
    loss: float
    result: object


def _dual_averaging(kind, D_c, params, eps, rho, eta, seed, steps, train_config, oracle, assemble):
    """Run the learner against `oracle` and build the certificate.

    `assemble(live, attack_size, rng)` gets the (theta, step) pairs of the
    steps not skipped, floor(eps * n), and the generator the step seeds came
    from; it returns the Certificate fields lower_bound, attack and
    model_tilde, plus any of attack_masses, support_violation and notes.
    """
    if D_c.d != params.d:
        raise ValueError("dimension mismatch between data and defense")
    if eps == 0:
        return _degenerate_certificate(kind, D_c, rho, train_config)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    n = D_c.n
    attack_size = math.floor(eps * n)
    if attack_size < 1:
        raise ValueError("eps * n must be at least 1")
    T = steps if steps is not None else attack_size
    if eta is None:
        eta = _default_eta(D_c, params, eps, T, rho)
    rng = np.random.default_rng(seed)
    step_seeds = rng.integers(0, 2**63 - 1, size=T + 1)

    state = init_rda_state(D_c.d, rho, eta)
    records: list[StepRecord] = []
    live = []
    last_live: StepRecord | None = None
    for t in range(1, T + 1):
        theta = state.theta
        try:
            step = oracle(theta, int(step_seeds[t - 1]))
        except sdp_mod.SdpOracleError as exc:
            logger.warning("step %d skipped: %s", t, exc)
            records.append(
                StepRecord(
                    t=t,
                    u_before=float("nan"),
                    u_after=None,
                    lambda_used=state.lambda_t,
                    grad_norm=0.0,
                    oracle_loss=float("nan"),
                    skipped=True,
                )
            )
            continue
        clean_loss, clean_grad = _clean_loss_and_grad(theta, D_c)
        u_before = clean_loss + step.value
        if last_live is not None:
            last_live.u_after = u_before
        live.append((theta, step))

        g = clean_grad.copy()
        for x, y, m in zip(step.points, step.labels, step.masses):
            if m > 0 and 1.0 - y * float(theta @ x) > 0.0:
                g += m * (-float(y) * x)
        lam_used = state.lambda_t
        state = rda_step(state, g)
        last_live = StepRecord(
            t=t,
            u_before=u_before,
            u_after=None,
            lambda_used=lam_used,
            grad_norm=float(np.linalg.norm(g)),
            oracle_loss=step.loss,
        )
        records.append(last_live)

    n_skipped = len(records) - len(live)
    if n_skipped > _MAX_SKIP_FRACTION * T:
        raise CertificationError(f"{n_skipped}/{T} oracle steps skipped (> {_MAX_SKIP_FRACTION:.0%})")

    if last_live is not None:
        try:
            step_T = oracle(state.theta, int(step_seeds[T]))
            clean_T, _ = _clean_loss_and_grad(state.theta, D_c)
            last_live.u_after = clean_T + step_T.value
        except sdp_mod.SdpOracleError as exc:
            logger.warning("final objective evaluation skipped: %s", exc)
            last_live.u_after = last_live.u_before

    live_records = [r for r in records if not r.skipped]
    u_trace = np.array([r.u_after for r in live_records])
    u_pre_trace = np.array([r.u_before for r in live_records])
    regret_trace = regret_bound_trace(
        [r.grad_norm for r in live_records], [r.lambda_used for r in live_records], rho, eta
    )
    upper = float(u_trace.min()) if u_trace.size else float("inf")
    fields = assemble(live, attack_size, rng)
    return Certificate(
        kind=kind,
        eps=eps,
        rho=rho,
        eta=eta,
        n_clean=n,
        n_steps=T,
        upper_bound=upper,
        duality_gap=upper - fields["lower_bound"],
        u_trace=u_trace,
        u_pre_trace=u_pre_trace,
        regret_trace=regret_trace,
        steps=records,
        n_skipped=n_skipped,
        **fields,
    )


def certify_fixed(
    D_c: Dataset,
    F: FeasibleSet,
    eps: float,
    rho: float,
    eta: float | None = None,
    seed: int = 0,
    *,
    steps: int | None = None,
    rounding_budget: int = 1000,
    coord_cap=None,
) -> Certificate:
    """Certify a fixed (poison-independent) defense.

    `F` is an oracle-kind FeasibleSet. Runs T = floor(eps * n) dual-averaging
    steps (or `steps` if given, in which case the attack points are
    weight-adjusted when retraining). Each step maximizes the hinge loss over
    the feasible set at the current iterate, takes the combined clean+attack
    subgradient, and updates. The returned certificate's bounds satisfy
    lower <= upper and, for continuous oracles, gap <= regret/T within 1e-6;
    both are asserted.

    With `F.integer_features` set the upper bound and gradients come from
    the continuous relaxation while the emitted attack holds the rounded
    feasible points; the regret-gap assertion is skipped since rounding may
    leave a genuine integrality gap.
    """
    if F.is_data_dependent:
        raise ValueError("certify_fixed requires an oracle (fixed) feasible set")
    params = F.params
    integer_mode = F.integer_features
    weighted = False

    def oracle(theta, step_seed):
        model = LinearModel(theta, rho)
        if integer_mode:
            res = max_loss_integer(params, model, rounding_budget, step_seed, coord_cap=coord_cap)
            relaxed = res.relaxed
        else:
            res = relaxed = max_loss_continuous(params, model)
        # The relaxed optimum carries the bound and the gradient; the attack
        # keeps the best feasible rounding and its label (None when none was
        # found). Both rows are copies, so a step does not hold whole answers.
        i, k = int(np.argmax(relaxed.losses)), int(np.argmax(res.losses))
        loss = float(relaxed.losses[i])
        found = None if res.no_candidate else (res.X[k].copy(), LABELS[k])
        return _OracleStep(relaxed.X[[i]], LABELS[[i]], np.array([eps]), eps * loss, loss, found)

    def assemble(live, attack_size, _rng):
        nonlocal weighted
        found = [step.result for _, step in live if step.result is not None]
        attack = Dataset(
            np.array([x for x, _ in found]) if found else np.zeros((0, D_c.d)),
            np.array([y for _, y in found], dtype=int) if found else np.zeros(0, dtype=int),
            integer_features=integer_mode,
        )
        n = D_c.n
        # With a `steps` override each attack point carries mass eps*n/attack.n.
        weighted = steps is not None and attack.n and attack.n != attack_size
        scale = eps * n / attack.n if weighted else 1.0
        weights = np.concatenate([np.ones(n), np.full(attack.n, scale)]) if weighted else None
        model_tilde = train_erm(concat(D_c, attack) if attack.n else D_c, rho, _FIXED_TRAIN, weights=weights)
        lower = (
            _hinge_sum(model_tilde.theta, D_c.X, D_c.y)
            + scale * _hinge_sum(model_tilde.theta, attack.X, attack.y)
        ) / n
        misses = len(live) - len(found)
        notes = [f"{misses} steps produced no feasible integer rounding"] if misses else []
        return {"lower_bound": lower, "attack": attack, "model_tilde": model_tilde, "notes": notes}

    kind = "integer" if integer_mode else "fixed"
    cert = _dual_averaging(kind, D_c, params, eps, rho, eta, seed, steps, _FIXED_TRAIN, oracle, assemble)
    if cert.n_steps == 0:
        return cert
    upper, lower = cert.upper_bound, cert.lower_bound
    if lower > upper + _SANDWICH_TOL:
        raise CertificationError(
            f"lower bound {lower:.9f} exceeds upper bound {upper:.9f} beyond tolerance"
        )
    if not integer_mode and not weighted:
        gap_bound = float(cert.regret_trace[-1]) / cert.n_steps + _SANDWICH_TOL
        if cert.duality_gap > gap_bound:
            raise CertificationError(
                f"duality gap {cert.duality_gap:.9f} exceeds regret bound {gap_bound:.9f}"
            )
    return cert


def _support_violation(prog, points, mu_p, mu_m, theta):
    """Constraint violation of the (truncated) support under its own program."""
    vecs = np.concatenate([points, np.stack([mu_p, mu_m, theta])])
    G = vecs @ vecs.T
    return prog.max_violation(G)


def _corner_weights(eps):
    """Boundary supports (some masses exactly zero), tried alongside the
    simplex samples: they stay feasible when a class has no reachable
    on-margin point, and the all-off-margin corner realizes a zero-loss
    attack against models the defense fully protects. Rows are weights in
    Gram variable order (a+, a-, b+, b-)."""
    return np.array(
        [
            [eps, 0.0, 0.0, 0.0],
            [0.0, eps, 0.0, 0.0],
            [eps / 2, eps / 2, 0.0, 0.0],
            [0.0, 0.0, eps / 2, eps / 2],
        ]
    )


def certify_data_dependent(
    D_c: Dataset,
    F: FeasibleSet,
    eps: float,
    rho: float,
    eta: float | None = None,
    seed: int = 0,
    *,
    sdp_samples: int = 20,
    attack_samples: int = 5,
    eval_steps: int = 10,
    steps: int | None = None,
    sdp_max_iter: int = 100,
) -> Certificate:
    """Certify the data-dependent defense with the Gram-SDP oracle.

    Each step maximizes the expected hinge loss over attack distributions on
    at most four points (Monte-Carlo over the weight simplex plus four
    boundary supports, SDP per weight draw) and feeds the mass-weighted
    expected subgradient to the learner. Failed SDP steps are skipped
    without updating the learner; the run fails if more than a tenth of the
    steps are skipped. Afterwards the `eval_steps` most promising stored
    distributions each spawn `attack_samples` sampled multisets of
    floor(eps*n) points; the multiset with the largest retrained training
    loss becomes the reported attack. No duality assertion is made: the
    constraint set is non-convex.
    """
    if not F.is_data_dependent:
        raise ValueError("certify_data_dependent requires a data-dependent feasible set")
    params = F.params
    stats = class_stats(D_c)

    def oracle(theta, step_seed):
        # Looked up on the module at call time, so tests can replace it.
        res = sdp_mod.max_loss_data_dependent(
            stats,
            LinearModel(theta, rho),
            params,
            eps,
            sdp_samples,
            step_seed,
            extra_weights=_corner_weights(eps),
            max_iter=sdp_max_iter,
        )
        return _OracleStep(res.points, res.labels, res.masses, res.value, res.expected_loss, res)

    def assemble(live, attack_size, rng):
        # Candidate attacks: sample multisets from the strongest distributions.
        strongest = sorted(live, key=lambda pair: -pair[1].value)[:eval_steps]
        n = D_c.n
        best = None
        warm_theta = None
        worst_support_violation = 0.0
        for theta_t, step in strongest:
            res = step.result
            worst_support_violation = max(
                worst_support_violation,
                _support_violation(res.program, res.points, stats.mu_plus, stats.mu_minus, theta_t),
            )
            masses = res.masses
            probs = masses / masses.sum() if masses.sum() > 0 else np.full(4, 0.25)
            for _ in range(attack_samples):
                counts = rng.multinomial(attack_size, probs)
                rows = np.repeat(res.points, counts, axis=0)
                labs = np.repeat(res.labels, counts)
                D_p = Dataset(rows, labs.astype(int))
                model_tilde = train_erm(concat(D_c, D_p), rho, _DD_TRAIN, init=warm_theta)
                warm_theta = model_tilde.theta
                score = (
                    _hinge_sum(model_tilde.theta, D_c.X, D_c.y)
                    + _hinge_sum(model_tilde.theta, D_p.X, D_p.y)
                ) / n
                if best is None or score > best[0]:
                    best = (score, D_p, model_tilde, masses)

        if best is None:
            raise CertificationError("no attack candidate could be evaluated")
        lower, attack, model_tilde, masses = best
        return {
            "lower_bound": lower,
            "attack": attack,
            "model_tilde": model_tilde,
            "attack_masses": masses,
            "support_violation": worst_support_violation,
        }

    return _dual_averaging(
        "data-dependent", D_c, params, eps, rho, eta, seed, steps, _DD_TRAIN, oracle, assemble
    )
