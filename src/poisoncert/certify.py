"""Certified bounds on the minimax training loss under poisoning.

The certificate objective for a model theta is the clean average hinge loss
plus eps times the worst feasible single-point loss; it upper-bounds the
minimax training loss for every theta. An adaptive dual-averaging learner
descends that objective while the per-step loss maximizers accumulate into a
candidate attack, whose induced training loss is the matching lower bound.
`_score` gives every lower bound: it retrains once on the clean data plus a
candidate attack (empty at eps = 0) and reports `train_erm`'s duality gap.
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
needs from the answer. For both fixed kinds the oracle is the closed form:
the support is its row of largest loss and `result` the step's model and
seed, with which an integer certificate rounds the step's point once, at
assembly. The SDP oracle's support is its four weighted points and `result`
its whole answer, which carries the support's own `support_violation`. An
oracle that raises `SdpOracleError` skips its step; more than a tenth of
the `steps` (an integer >= 1) skipped fails the run.

The learner is the driver's cumulative gradient G and its lambda;
`rda_step(G, rho, eta)` maps G to the next iterate. Each step leaves one
`StepRecord`, and the certificate's step counts, duality gap and u and
regret traces are read off that list of records.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import sdp as sdp_mod
from .data import Dataset, class_stats, concat
from .defense import FeasibleSet, SphereSlabParams
from .maxoracle import LABELS, max_loss_continuous, max_loss_integer
from .model import LinearModel, train_erm

__all__ = [
    "StepRecord",
    "Certificate",
    "CertificationError",
    "rda_step",
    "regret_bound_trace",
    "certify_fixed",
    "certify_data_dependent",
]

logger = logging.getLogger(__name__)

_SANDWICH_TOL = 1e-6  # slack on lower <= upper and on gap <= regret / T
_MAX_SKIP_FRACTION = 0.1


class CertificationError(RuntimeError):
    pass


def rda_step(G: np.ndarray, rho: float, eta: float) -> tuple[np.ndarray, float]:
    """Dual-averaging iterate for the cumulative gradient G: (theta, lambda).

    theta = -G / lambda with lambda = max(1/eta, ||G||/rho): growing lambda
    enforces the norm ball exactly while keeping lambda >= 1/eta.
    """
    lam = max(1.0 / eta, float(np.linalg.norm(G)) / rho)
    return -G / lam, lam


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
    return rho**2 / (2.0 * eta) + np.cumsum(grad_norms**2 / (2.0 * lambdas))


@dataclass(frozen=True)
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
    """Upper/lower bounds with the candidate attack and instrumentation.

    `lower_bound` is model_tilde's hinge sum over clean and attack points
    (attack points weighted as in retraining) over n_clean. `erm_gap` is the
    duality gap of the solve behind model_tilde on that scale, so the
    attack's induced loss min_theta L(theta; D_c + D_p) is certified to lie
    in [lower_bound - erm_gap, lower_bound]. Step counts and the u and
    regret traces are read off `steps`.
    """

    kind: str
    eps: float
    rho: float
    eta: float
    n_clean: int
    upper_bound: float
    lower_bound: float
    attack: Dataset
    model_tilde: LinearModel
    erm_gap: float
    steps: list = field(default_factory=list)
    attack_masses: np.ndarray | None = None
    support_violation: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def n_steps(self):
        return len(self.steps)

    @property
    def n_skipped(self):
        return sum(s.skipped for s in self.steps)

    @property
    def duality_gap(self):
        return self.upper_bound - self.lower_bound

    def _live(self, name):
        return np.array([getattr(s, name) for s in self.steps if not s.skipped])

    @property
    def u_trace(self):
        return self._live("u_after")

    @property
    def u_pre_trace(self):
        return self._live("u_before")

    @property
    def regret_trace(self):
        return regret_bound_trace(self._live("grad_norm"), self._live("lambda_used"), self.rho, self.eta)

    @property
    def avg_regret_bound(self):
        regret = self.regret_trace
        return float(regret[-1]) / self.n_steps if regret.size else 0.0

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
            "erm_gap": self.erm_gap,
            "duality_gap": self.duality_gap,
            "avg_regret_bound": self.avg_regret_bound,
            "n_skipped": self.n_skipped,
            "support_violation": self.support_violation,
            "attack": {"labels": self.attack.y.tolist(), "X": self.attack.X.tolist()},
            "model_tilde": self.model_tilde.to_json_dict(),
            "u_trace": self.u_trace.tolist(),
            "u_pre_trace": self.u_pre_trace.tolist(),
            "regret_trace": self.regret_trace.tolist(),
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
    return rho / (g_bar * math.sqrt(T))


def _clean_loss_and_grad(theta, D_c):
    margins = D_c.y * (D_c.X @ theta)
    loss = float(np.maximum(0.0, 1.0 - margins).mean())
    active = margins < 1.0
    return loss, -(D_c.y[active].astype(float) / D_c.n) @ D_c.X[active]


def _score(D_c, attack, rho, mass=1.0):
    """Retrain on D_c plus `attack`, each attack row weighted `mass` against
    a clean row's 1; returns the Certificate fields lower_bound (the model's
    weighted hinge sum over n_clean), model_tilde and erm_gap on that scale."""
    n = D_c.n
    fit = train_erm(concat(D_c, attack), rho, weights=np.concatenate([np.ones(n), np.full(attack.n, mass)]))
    theta = fit.model.theta
    clean, poison = (float(np.maximum(0.0, 1.0 - ds.y * (ds.X @ theta)).sum()) for ds in (D_c, attack))
    return {
        "lower_bound": (clean + mass * poison) / n,
        "model_tilde": fit.model,
        "erm_gap": fit.gap * (n + mass * attack.n) / n,
    }


class _OracleStep(NamedTuple):
    """One oracle answer at the learner's current iterate (see the module docstring)."""

    points: np.ndarray
    labels: np.ndarray
    masses: np.ndarray
    value: float
    loss: float
    result: object


def _dual_averaging(kind, D_c, params, eps, rho, eta, seed, steps, oracle, assemble):
    """Run the learner against `oracle` and build the certificate.

    `assemble(live, attack_size, rng)` gets the `_OracleStep`s of the steps
    not skipped, floor(eps * n), and the generator the step seeds came from;
    it returns the Certificate fields lower_bound, attack, model_tilde and
    erm_gap (`_score`'s three and the attack), plus any of attack_masses,
    support_violation and notes. At eps = 0 the certificate is the clean
    data's own score.
    """
    if D_c.d != params.d:
        raise ValueError("dimension mismatch between data and defense")
    if steps is not None and (not isinstance(steps, numbers.Integral) or steps < 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    if eps == 0:
        attack = Dataset(np.zeros((0, D_c.d)), np.zeros(0, dtype=int))
        scored = _score(D_c, attack, rho)
        return Certificate(
            kind=kind, eps=0.0, rho=rho, eta=float("nan"), n_clean=D_c.n,
            upper_bound=scored["lower_bound"], attack=attack, **scored,
        )
    if eps < 0:
        raise ValueError("eps must be non-negative")
    n = D_c.n
    attack_size = math.floor(eps * n)
    if attack_size < 1:
        raise ValueError("eps * n must be at least 1")
    T = steps if steps is not None else attack_size
    if eta is None:
        eta = _default_eta(D_c, params, eps, T, rho)
    if rho <= 0 or eta <= 0:
        raise ValueError("rho and eta must be positive")
    rng = np.random.default_rng(seed)
    step_seeds = rng.integers(0, 2**63 - 1, size=T + 1)

    # The learner: cumulative gradient G, iterate theta and its lambda.
    G = np.zeros(D_c.d)
    theta, lam = np.zeros(D_c.d), 1.0 / eta
    rows = []  # StepRecord fields but u_after, one tuple per step
    live = []
    for t in range(1, T + 1):
        try:
            step = oracle(theta, int(step_seeds[t - 1]))
        except sdp_mod.SdpOracleError as exc:
            logger.warning("step %d skipped: %s", t, exc)
            rows.append((t, float("nan"), lam, 0.0, float("nan"), True))
            continue
        clean_loss, g = _clean_loss_and_grad(theta, D_c)
        live.append(step)
        for x, y, m in zip(step.points, step.labels, step.masses):
            if m > 0 and 1.0 - y * float(theta @ x) > 0.0:
                g += m * (-float(y) * x)
        rows.append((t, clean_loss + step.value, lam, float(np.linalg.norm(g)), step.loss, False))
        G += g
        theta, lam = rda_step(G, rho, eta)

    n_skipped = len(rows) - len(live)
    if n_skipped > _MAX_SKIP_FRACTION * T:
        raise CertificationError(f"{n_skipped}/{T} oracle steps skipped (> {_MAX_SKIP_FRACTION:.0%})")

    # A live step's u_after is the next live step's u_before; the last one's
    # is the objective at the final iterate, or its own u_before when the
    # oracle fails there.
    u_live = [u for _, u, _, _, _, skipped in rows if not skipped]
    try:
        step_T = oracle(theta, int(step_seeds[T]))
        u_live.append(_clean_loss_and_grad(theta, D_c)[0] + step_T.value)
    except sdp_mod.SdpOracleError as exc:
        logger.warning("final objective evaluation skipped: %s", exc)
        u_live.append(u_live[-1])
    u_after = iter(u_live[1:])
    records = [
        StepRecord(t, u, None if skipped else next(u_after), lam_t, norm, loss, skipped)
        for t, u, lam_t, norm, loss, skipped in rows
    ]
    return Certificate(
        kind=kind,
        eps=eps,
        rho=rho,
        eta=eta,
        n_clean=n,
        upper_bound=float(np.min(u_live[1:])),
        steps=records,
        **assemble(live, attack_size, rng),
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
    the continuous relaxation while the emitted attack holds the points
    rounded at assembly; the regret-gap assertion is skipped since rounding
    may leave a genuine integrality gap.
    """
    if F.is_data_dependent:
        raise ValueError("certify_fixed requires an oracle (fixed) feasible set")
    if F.integer_features and (not isinstance(rounding_budget, numbers.Integral) or rounding_budget < 1):
        raise ValueError(f"rounding_budget must be an integer >= 1, got {rounding_budget!r}")
    params = F.params

    def weighted(attack):
        # With a `steps` override each attack point carries mass eps*n/attack.n.
        return steps is not None and 0 < attack.n != math.floor(eps * D_c.n)

    def oracle(theta, step_seed):
        # The relaxed optimum carries the bound and the gradient.
        model = LinearModel(theta, rho)
        relaxed = max_loss_continuous(params, model)
        i = int(np.argmax(relaxed.losses))
        loss = float(relaxed.losses[i])
        return _OracleStep(relaxed.X[[i]], LABELS[[i]], np.array([eps]), eps * loss, loss, (model, step_seed))

    def attack_row(step):
        # The step's own support row, or in integer mode the best feasible
        # rounding at its model and seed (None when the budget found none).
        if not F.integer_features:
            return step.points[0], step.labels[0]
        model, step_seed = step.result
        res = max_loss_integer(params, model, rounding_budget, step_seed, coord_cap=coord_cap)
        k = int(np.argmax(res.losses))
        return None if res.no_candidate else (res.X[k], LABELS[k])

    def assemble(live, _attack_size, _rng):
        found = [row for row in map(attack_row, live) if row is not None]
        attack = Dataset(
            np.array([x for x, _ in found]).reshape(-1, D_c.d),
            np.array([y for _, y in found], dtype=int),
            integer_features=F.integer_features,
        )
        misses = len(live) - len(found)
        return {
            **_score(D_c, attack, rho, eps * D_c.n / attack.n if weighted(attack) else 1.0),
            "attack": attack,
            "notes": [f"{misses} steps produced no feasible integer rounding"] if misses else [],
        }

    kind = "integer" if F.integer_features else "fixed"
    cert = _dual_averaging(kind, D_c, params, eps, rho, eta, seed, steps, oracle, assemble)
    upper, lower = cert.upper_bound, cert.lower_bound
    if lower > upper + _SANDWICH_TOL:
        raise CertificationError(
            f"lower bound {lower:.9f} exceeds upper bound {upper:.9f} beyond tolerance"
        )
    if not F.integer_features and not weighted(cert.attack):
        gap_bound = cert.avg_regret_bound + _SANDWICH_TOL
        if cert.duality_gap > gap_bound:
            raise CertificationError(
                f"duality gap {cert.duality_gap:.9f} exceeds regret bound {gap_bound:.9f}"
            )
    return cert


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
    loss becomes the reported attack, and a multiset drawn again reuses its
    first retraining. No duality assertion is made: the constraint set is
    non-convex. The SDP support has no rounding step, so a defense with
    `integer_features` is rejected.
    """
    if not F.is_data_dependent:
        raise ValueError("certify_data_dependent requires a data-dependent feasible set")
    if F.integer_features:
        raise ValueError("certify_data_dependent has no integer rounding; the defense has integer_features set")
    for name, value in (("eval_steps", eval_steps), ("attack_samples", attack_samples), ("sdp_max_iter", sdp_max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
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
            extra_weights=sdp_mod._corner_weights(eps),
            max_iter=sdp_max_iter,
        )
        return _OracleStep(res.points, res.labels, res.masses, res.value, res.expected_loss, res)

    def assemble(live, attack_size, rng):
        # Candidate attacks: sample multisets from the strongest distributions.
        strongest = [step.result for step in sorted(live, key=lambda step: -step.value)[:eval_steps]]
        scores = {}  # one retraining per distinct attack

        def candidates():
            for res in strongest:
                for _ in range(attack_samples):
                    counts = rng.multinomial(attack_size, res.masses / res.masses.sum())
                    attack = Dataset(np.repeat(res.points, counts, axis=0), np.repeat(res.labels, counts).astype(int))
                    key = attack.X.tobytes() + attack.y.tobytes()
                    if key not in scores:
                        scores[key] = _score(D_c, attack, rho)
                    yield {**scores[key], "attack": attack, "attack_masses": res.masses}

        # max keeps the first of equal lower bounds.
        best = max(candidates(), key=lambda scored: scored["lower_bound"])
        return {**best, "support_violation": max(res.support_violation for res in strongest)}

    return _dual_averaging("data-dependent", D_c, params, eps, rho, eta, seed, steps, oracle, assemble)
