"""Brute-force oracles and identity suites.

Every oracle here recomputes its target quantity from first principles,
deliberately avoiding the arithmetic of the module it checks: posteriors
are normalized by explicit summation, expectations by exhaustive
enumeration, and limits by quadrature or finite differences. Slow and
boring on purpose.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import Categorical, NoiseSchedule, Vocabulary
from .forward import PriorSpec
from .model import ConstantDenoiser


def finite_difference_grads(fn, arrays: list, h: float = 1e-6) -> list:
    """Central-difference gradients of a scalar function of a list of
    arrays, one coordinate at a time. fn must not retain references to
    the arrays (they are perturbed in place and restored)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(arrays)
            flat[i] = orig - h
            down = fn(arrays)
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def gradient_check(build_loss, arrays: list, h: float = 1e-6) -> float:
    """Worst relative disagreement between backprop and central finite
    differences for a scalar graph builder.

    ``build_loss`` maps a list of parameter Nodes to a scalar Node; the
    same builder evaluated on fresh Nodes supplies the plain-value
    function for differencing. The denominator is floored at 1e-3, so
    gradients below that magnitude are held to a 1e-7-ish absolute
    standard instead of a meaningless relative one.
    """
    from .autodiff import backprop, param

    params = [param(a.copy()) for a in arrays]
    loss = build_loss(params)
    analytic = backprop(loss, params)

    def value(arrs):
        return float(build_loss([param(a) for a in arrs]).value)

    numeric = finite_difference_grads(value, [a.copy() for a in arrays], h)
    worst = 0.0
    for a_g, n_g in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a_g), np.abs(n_g)), 1e-3)
        worst = max(worst, float(np.max(np.abs(a_g - n_g) / denom)))
    return worst


def enumerate_sequences(n: int, length: int) -> np.ndarray:
    """All n^length token sequences in lexicographic order, as an
    (n^length, length) array."""
    if n ** length > 10 ** 6:
        raise ValueError(f"refusing to enumerate {n}^{length} sequences")
    combos = itertools.product(range(n), repeat=length)
    return np.array(list(combos), dtype=np.int64).reshape(n ** length, length)


def bayes_posterior_oracle(
    z_t: int, x: int, t: float, s: float, prior: PriorSpec,
    schedule: NoiseSchedule,
) -> Categorical:
    """Reference posterior q(z_s | z_t, x) built by literal Bayes:
    weight each candidate z_s = j by q(z_t | z_s = j) * q(z_s = j | x)
    and normalize by the explicit sum."""
    pi = prior.pi.probs
    n = pi.shape[0]
    a_s = schedule.alpha(s)
    a_ts = schedule.alpha_ratio(t, s)
    weights = np.zeros(n)
    for j in range(n):
        step_to_zt = a_ts * (1.0 if j == z_t else 0.0) + (1.0 - a_ts) * pi[z_t]
        marg_at_s = a_s * (1.0 if j == x else 0.0) + (1.0 - a_s) * pi[j]
        weights[j] = step_to_zt * marg_at_s
    total = weights.sum()
    if total <= 0:
        raise ValueError(f"z_t={z_t} unreachable from x={x} at t={t}")
    return Categorical(weights / total)


def substituted_posterior_oracle(
    z_t: int, x_row: np.ndarray, t: float, s: float, prior: PriorSpec,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """Reference reverse distribution with a clean-token *distribution*
    substituted for the one-hot x, again normalized by explicit sum."""
    pi = prior.pi.probs
    n = pi.shape[0]
    a_s = schedule.alpha(s)
    a_ts = schedule.alpha_ratio(t, s)
    weights = np.zeros(n)
    for j in range(n):
        step_to_zt = a_ts * (1.0 if j == z_t else 0.0) + (1.0 - a_ts) * pi[z_t]
        marg_at_s = a_s * float(x_row[j]) + (1.0 - a_s) * pi[j]
        weights[j] = step_to_zt * marg_at_s
    total = weights.sum()
    if total <= 0:
        raise ValueError(f"z_t={z_t} has zero mass under the substituted row")
    return weights / total


def kl_rate_oracle(
    x: int, z_t: int, t: float, x_theta_row: np.ndarray, prior: PriorSpec,
    schedule: NoiseSchedule, ds: float = 1e-6,
) -> float:
    """lim_{s -> t} KL[q(z_s|z_t,x) || q(z_s|z_t,x_theta)] / (t - s),
    approximated at s = t - ds from the two posterior oracles above.
    This is the independent reference for the continuous-time integrand."""
    s = t - ds
    q = bayes_posterior_oracle(z_t, x, t, s, prior, schedule).probs
    p = substituted_posterior_oracle(z_t, x_theta_row, t, s, prior, schedule)
    kl = 0.0
    for j in range(q.shape[0]):
        if q[j] > 0:
            kl += q[j] * (np.log(q[j]) - np.log(p[j]))
    return kl / ds


# ---------------------------------------------------- reference denoisers
#
# Each provides the denoiser protocol: ``rows_batch(z, t, condition)``
# from (B, L) latents to (B, L, N) clean-token rows, and the ``prior`` and
# ``schedule`` those rows are read under.

def PerfectDenoiser(x_seq, n: int, kind: str = "uniform"):
    """Always predicts the clean sequence x_seq over N = n tokens; the
    zero-loss reference. An absorbing one masks with the last token."""
    vocab = Vocabulary(n, mask_index=n - 1 if kind == "absorbing" else None)
    return ConstantDenoiser.from_sequence(x_seq, vocab, kind=kind)


class TabularDenoiser:
    """Random but fixed rows per latent sequence, constant in t. Each
    position's row depends on the whole sequence (so the expectation over
    latents does not factorize), derived from (seed, sequence, position)
    and therefore reproducible without shared state."""

    schedule = NoiseSchedule()  # the fixed schedule; protocol member

    def __init__(self, n: int, seed: int = 0, kind: str = "uniform",
                 mask_index: int | None = None):
        self.prior = (PriorSpec.absorbing(Vocabulary(n, mask_index=mask_index))
                      if kind == "absorbing" else PriorSpec.uniform(n))
        self.seed = seed
        self._cache: dict = {}

    def _row(self, key: tuple) -> np.ndarray:
        if key not in self._cache:
            rng = np.random.default_rng((self.seed,) + key)
            logits = 1.5 * rng.standard_normal(self.prior.size)
            if self.prior.kind == "absorbing":
                logits[self.prior.mask_index] = -np.inf
            e = np.exp(logits - logits.max())
            self._cache[key] = e / e.sum()
        return self._cache[key]

    def rows_batch(self, z_batch, t, condition=None) -> np.ndarray:
        z = np.asarray(z_batch, dtype=np.int64)
        rows = [self._row(tuple(seq) + (pos,))
                for seq in z.tolist() for pos in range(len(seq))]
        return np.reshape(rows, z.shape + (self.prior.size,))


class OptimalDenoiser:
    """Exact Bayes posterior mean of the clean token given the latent,
    for a known finite data distribution. Built from the interpolating
    forward marginals by enumeration; the reference model for sampler
    distribution tests."""

    schedule = NoiseSchedule()  # the fixed schedule; protocol member

    def __init__(self, sequences: np.ndarray, prior: PriorSpec):
        seqs = np.asarray(sequences, dtype=np.int64)
        uniq, counts = np.unique(seqs, axis=0, return_counts=True)
        self.support = uniq                    # (M, L)
        self.weights = counts / counts.sum()   # (M,)
        self.prior = prior

    def _per_position(self, z: np.ndarray, t) -> np.ndarray:
        """(B, M, L) forward likelihood of each latent token given the
        clean token of each support sequence at that position."""
        a = np.reshape(self.schedule.alpha(t), (-1, 1, 1))  # shared or per row
        pi = self.prior.pi.probs
        return a * (self.support[None, :, :] == z[:, None, :]) \
            + (1.0 - a) * pi[z][:, None, :]

    def _posterior(self, per_pos: np.ndarray) -> np.ndarray:
        """(B, M) posterior over the support from the likelihoods of the
        positions in ``per_pos``."""
        lik = self.weights[None, :] * np.prod(per_pos, axis=2)
        totals = lik.sum(axis=1)
        if np.any(totals <= 0):
            raise ValueError("latent unreachable from the data support")
        return lik / totals[:, None]

    def rows_batch(self, z_batch, t, condition=None) -> np.ndarray:
        z = np.asarray(z_batch, dtype=np.int64)          # (B, L)
        post = self._posterior(self._per_position(z, t))  # (B, M)
        rows = np.zeros(z.shape + (self.prior.size,))
        for m in range(self.support.shape[0]):
            rows[:, np.arange(z.shape[1]), self.support[m]] += post[:, m][:, None]
        return rows


class LeaveOneOutDenoiser(OptimalDenoiser):
    """Bayes posterior mean of each clean token given the OTHER positions'
    latents only. For uniform diffusion these rows make the substituted
    one-step posterior reproduce the exact reverse transition rates, so
    they are the variational optimum of the continuous-time objective on
    a known data distribution. The full-posterior mean (OptimalDenoiser)
    is not: substituting a mean into a ratio of likelihoods differs from
    averaging the ratio, which biases reverse sampling toward the prior."""

    def rows_batch(self, z_batch, t, condition=None) -> np.ndarray:
        z = np.asarray(z_batch, dtype=np.int64)          # (B, L)
        length = z.shape[1]
        per_pos = self._per_position(z, t)               # (B, M, L)
        rows = np.zeros(z.shape + (self.prior.size,))
        for pos in range(length):
            keep = [k for k in range(length) if k != pos]
            post = self._posterior(per_pos[:, :, keep])  # (B, M)
            for m in range(self.support.shape[0]):
                rows[:, pos, self.support[m, pos]] += post[:, m]
        return rows


# ----------------------------------------------------- bound/limit oracles

def udlm_integral_reference(
    x_seq, denoiser, schedule: NoiseSchedule, n: int,
) -> float:
    """The T -> infinity value of the discrete NELBO: quadrature over t of
    the exact expectation (enumerating z_t) of the per-token integrand.
    The integrand's endpoint limits are finite, so truncating to
    [1e-12, 1 - 1e-9] loses O(1e-18). Each quadrature time scores every
    live latent and position in one call of the training loss kernel."""
    from scipy import integrate  # here alone: the CLI need not load SciPy

    from .loss import _udlm_rate

    x_seq = np.asarray(x_seq, dtype=np.int64)
    latents = enumerate_sequences(n, x_seq.shape[0])

    def expected_rate(t: float) -> float:
        a = schedule.alpha(t)
        marg = a * (latents == x_seq[None, :]) + (1.0 - a) / n
        weights = np.prod(marg, axis=1)
        live = weights != 0.0
        z = latents[live]
        rates = _udlm_rate(denoiser.rows_batch(z, t),
                           np.broadcast_to(x_seq, z.shape), z, t, schedule)
        return float(weights[live] @ rates.sum(axis=1))

    # quad(f, a, b, args, full_output, abs tol, rel tol, subinterval limit)
    value, _ = integrate.quad(expected_rate, 1e-12, 1.0 - 1e-9, (), 0,
                              1e-10, 1e-8, 300)
    return value


def exact_reverse_nll(
    denoiser, x_seq, T: int, prior: PriorSpec, schedule: NoiseSchedule,
) -> float:
    """-log p_theta(x) exactly, marginalizing the reverse chain over all
    latent paths on the grid t_i = i/T by forward propagation of the
    state distribution. The bound-validity oracle for the NELBO."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    length = x_seq.shape[0]
    n = prior.size
    num_states = n ** length
    if num_states ** 2 * T > 10 ** 7:
        raise ValueError("path marginalization budget exceeded")
    states = enumerate_sequences(n, length)
    mu = np.array([np.prod(prior.pi.probs[st]) for st in states])
    for i in range(T, 0, -1):
        t, s = i / T, (i - 1) / T
        step = np.zeros((num_states, num_states))
        rows_all = denoiser.rows_batch(states, t)
        for k, (z, rows) in enumerate(zip(states, rows_all)):
            per_pos = [
                substituted_posterior_oracle(int(z[l]), rows[l], t, s, prior,
                                             schedule)
                for l in range(length)
            ]
            row = per_pos[0]
            for l in range(1, length):
                row = np.multiply.outer(row, per_pos[l]).ravel()
            step[k] = row
        mu = mu @ step
    # t_0 = 0: the decode copies z_0, so p(x) is the mass on the clean state
    x_index = int(np.sum(x_seq * n ** np.arange(length - 1, -1, -1)))
    if mu[x_index] <= 0:
        return np.inf
    return -float(np.log(mu[x_index]))


# --------------------------------------------------------- guidance oracles

def tempered_token_oracle(
    classifier, z_t_seq, rows: np.ndarray, y: int, gamma: float,
    t_s: float,
) -> np.ndarray:
    """Literal per-position tempered distribution: weight every candidate
    token v by p(y | latent with position l set to v)^gamma times the
    reverse row, normalized by the explicit sum. Direct powers, no
    log-space tricks; the independent reference for the guidance module."""
    z = np.asarray(z_t_seq, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    length, n = rows.shape
    out = np.zeros((length, n))
    for pos in range(length):
        weights = np.zeros(n)
        for v in range(n):
            cand = z.copy()
            cand[pos] = v
            p_y = np.exp(float(classifier.log_probs(cand, t_s)[y]))
            weights[v] = (p_y ** gamma) * rows[pos, v]
        total = weights.sum()
        if total <= 0:
            raise ValueError(f"position {pos}: zero mass after tempering")
        out[pos] = weights / total
    return out


class AffineClassifier:
    """Synthetic classifier whose log p(y | z, t) is exactly affine in the
    one-hot encoding of z: b[y] + sum_l W[y, l, z_l]. (A softmax head is
    never affine, so the exactness case for the linearized guidance needs
    this double.) Unnormalized across y, which the tempering transform
    never needs."""

    def __init__(self, num_classes: int, length: int, n: int, seed: int = 0,
                 scale: float = 0.5):
        rng = np.random.default_rng(seed)
        self.w = scale * rng.standard_normal((num_classes, length, n))
        self.b = scale * rng.standard_normal(num_classes)

    def log_probs(self, z_seq, t) -> np.ndarray:
        """(K,) for one (L,) sequence, (B, K) for a (B, L) batch."""
        z = np.asarray(z_seq, dtype=np.int64)
        picked = self.w[:, np.arange(z.shape[-1]), z]     # (K, ..., L)
        return self.b + np.moveaxis(picked.sum(axis=-1), 0, -1)

    def grad_log_prob(self, z_seq, t, y: int):
        z = np.asarray(z_seq, dtype=np.int64)
        logp0 = self.log_probs(z, t)[..., y]
        grad = np.broadcast_to(self.w[y], z.shape + self.w.shape[-1:])
        return (float(logp0) if z.ndim == 1 else logp0), grad.copy()


class CallCountingClassifier:
    """Wrapper asserting the guidance cost contracts: counts calls, and
    the sequences (rows) those calls evaluate, one per sequence of a
    (B, L) batch."""

    def __init__(self, inner):
        self.inner = inner
        self.log_prob_calls = 0
        self.log_prob_rows = 0
        self.grad_calls = 0
        self.grad_rows = 0

    def log_probs(self, z_seq, t):
        self.log_prob_calls += 1
        self.log_prob_rows += _num_rows(z_seq)
        return self.inner.log_probs(z_seq, t)

    def grad_log_prob(self, z_seq, t, y):
        self.grad_calls += 1
        self.grad_rows += _num_rows(z_seq)
        return self.inner.grad_log_prob(z_seq, t, y)


def _num_rows(z_seq) -> int:
    z = np.asarray(z_seq)
    return 1 if z.ndim == 1 else z.shape[0]


# ------------------------------------------------------- ctmc equivalences

def ctmc_tv_sweep(kind: str, gamma: float, seed: int, dts, n: int = 3):
    """Total variation between one guided Euler step (rate-matrix route)
    and one guided posterior step (variational route), per step size.

    The two routes are independent implementations of the same guided
    reverse process; their one-step distributions must converge in TV as
    dt -> 0. Returns (dts, tvs) for slope fitting.
    """
    from . import ctmc, guidance
    from .forward import posterior_matrix

    t, schedule = 0.6, NoiseSchedule()
    rng = np.random.default_rng(seed)
    z = int(rng.integers(n))
    cond_row = np.maximum(rng.dirichlet(np.ones(n)), 1e-6)
    cond_row /= cond_row.sum()
    uncond_row = np.maximum(rng.dirichlet(np.ones(n)), 1e-6)
    uncond_row /= uncond_row.sum()
    prior = PriorSpec.uniform(n)
    forward_rate = ctmc.uniform_rate(schedule, t, n)
    clf = AffineClassifier(2, 1, n, seed=seed)

    if kind == "cfg":
        guided_x = guidance.cfg_combine(cond_row[None, :], uncond_row[None, :],
                                        gamma)[0]
        rate_c = ctmc.reverse_rate(forward_rate,
                                   ctmc.mixture_ratio(cond_row, t, schedule))
        rate_u = ctmc.reverse_rate(forward_rate,
                                   ctmc.mixture_ratio(uncond_row, t, schedule))
        guided_rate = ctmc.guided_rate_cfg(rate_c, rate_u, gamma)
    elif kind == "cbg":
        base_rate = ctmc.reverse_rate(forward_rate,
                                      ctmc.mixture_ratio(uncond_row, t, schedule))

        def clf_ratio(cand, cur):
            # affine classifier at L=1: the ratio reads off the weight table
            return np.exp(float(clf.w[0, 0, cand] - clf.w[0, 0, cur]))

        guided_rate = ctmc.guided_rate_cbg(base_rate, clf_ratio, gamma)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    tvs = []
    for dt in dts:
        s = t - dt
        if kind == "cfg":
            post = posterior_matrix(z, guided_x, t, s, prior, schedule)
        else:
            raw = posterior_matrix(z, uncond_row, t, s, prior, schedule)
            post = guidance.cbg_exact(clf, np.array([z]), s, raw[None, :],
                                      0, gamma)[0]
        euler = ctmc.euler_step_distribution(z, guided_rate, dt)
        tvs.append(0.5 * float(np.abs(post - euler).sum()))
    return np.asarray(dts, dtype=np.float64), np.asarray(tvs)


def fitted_exponent(dts: np.ndarray, tvs: np.ndarray) -> float:
    """Least-squares slope of log TV against log dt."""
    keep = tvs > 0
    if keep.sum() < 2:
        raise ValueError("not enough nonzero TV points to fit")
    return float(np.polyfit(np.log(dts[keep]), np.log(tvs[keep]), 1)[0])


# ------------------------------------------------------------ check suites

SUITE_NAMES = ("posteriors", "limits", "bound", "equivalence", "guidance",
               "ctmc", "gradients")


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.deviation <= self.tolerance


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list
    runtime: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_margin(self) -> float:
        """Largest deviation/tolerance ratio; > 1 means a failure."""
        return max((c.deviation / c.tolerance if c.tolerance > 0
                    else (0.0 if c.deviation == 0.0 else np.inf))
                   for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "runtime_s": round(self.runtime, 3),
            "worst_margin": self.worst_margin,
            "checks": [
                {
                    "name": c.name,
                    "deviation": c.deviation,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    **({"error": c.error} if c.error else {}),
                }
                for c in self.checks
            ],
        }

    def human(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.error}]" if c.error else ""
            lines.append(f"  {tag} {c.name:42s} deviation {c.deviation:9.3e}"
                         f"  tolerance {c.tolerance:g}{extra}")
        verdict = "all green" if self.passed else "FAILURES"
        lines.append(f"suite {self.suite}: {len(self.checks)} checks, "
                     f"{verdict}, worst margin {self.worst_margin:.3g}, "
                     f"{self.runtime:.2f}s")
        return "\n".join(lines)


def _checks_posteriors(seed: int) -> list:
    from .forward import posterior, posterior_matrix, posterior_uniform

    sched = NoiseSchedule()

    def worked_uniform():
        got = posterior_uniform(0, 0, 0.6, 0.2, 2, sched).probs
        return float(np.max(np.abs(got - np.array([27 / 28, 1 / 28])))), 1e-12

    def worked_absorbing():
        vocab = Vocabulary(3, mask_index=2)
        got = posterior(2, 0, 0.6, 0.2, PriorSpec.absorbing(vocab), sched).probs
        return float(np.max(np.abs(got - np.array([2 / 3, 0.0, 1 / 3])))), 1e-12

    def oracle_agreement():
        rng = np.random.default_rng((seed, 11))
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            pr = PriorSpec.general(
                Categorical.from_unnormalized(rng.random(n) + 0.05))
            s = float(rng.uniform(0.01, 0.49))
            t = float(rng.uniform(s + 0.01, 0.99))
            x, z = int(rng.integers(n)), int(rng.integers(n))
            a = posterior(z, x, t, s, pr, sched).probs
            b = bayes_posterior_oracle(z, x, t, s, pr, sched).probs
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst, 1e-12

    def absorbing_carry_over():
        vocab = Vocabulary(4, mask_index=3)
        pr = PriorSpec.absorbing(vocab)
        rng = np.random.default_rng((seed, 12))
        worst = 0.0
        for _ in range(50):
            x = int(rng.integers(3))
            s = float(rng.uniform(0.01, 0.49))
            t = float(rng.uniform(s + 0.01, 0.99))
            got = posterior(x, x, t, s, pr, sched).probs
            want = np.eye(4)[x]
            worst = max(worst, float(np.max(np.abs(got - want))))
        return worst, 1e-12

    def row_normalization():
        rng = np.random.default_rng((seed, 13))
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pr = PriorSpec.uniform(n)
            z = rng.integers(n, size=4)
            rows = rng.dirichlet(np.ones(n), size=4)
            s = float(rng.uniform(0.01, 0.49))
            t = float(rng.uniform(s + 0.01, 0.99))
            got = posterior_matrix(z, rows, t, s, pr, sched)
            worst = max(worst, float(np.max(np.abs(got.sum(axis=1) - 1.0))))
        return worst, 1e-12

    return [
        ("worked_uniform", worked_uniform),
        ("worked_absorbing", worked_absorbing),
        ("oracle_agreement", oracle_agreement),
        ("absorbing_carry_over", absorbing_carry_over),
        ("row_normalization", row_normalization),
    ]


def _checks_limits(seed: int) -> list:
    from .loss import udlm_integrand

    sched = NoiseSchedule()

    def worked_constant():
        got = udlm_integrand(0, 0, 0.5, np.array([0.75, 0.25]), sched)
        return abs(got - 0.07073777836596057), 1e-12

    def zero_at_truth():
        rng = np.random.default_rng((seed, 21))
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            x = int(rng.integers(n))
            t = float(rng.uniform(0.05, 0.95))
            z = int(rng.integers(n))
            row = np.zeros(n)
            row[x] = 1.0
            worst = max(worst, abs(udlm_integrand(x, z, t, row, sched)))
        return worst, 1e-12

    def kl_rate_agreement():
        rng = np.random.default_rng((seed, 22))
        worst = 0.0
        for _ in range(120):
            n = int(rng.integers(2, 5))
            pr = PriorSpec.uniform(n)
            x, z = int(rng.integers(n)), int(rng.integers(n))
            t = float(rng.uniform(0.05, 0.95))
            row = np.maximum(rng.dirichlet(np.ones(n)), 1e-4)
            row /= row.sum()
            a = udlm_integrand(x, z, t, row, sched)
            b = kl_rate_oracle(x, z, t, row, pr, sched)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-3))
        return worst, 1e-4

    def nonnegative():
        rng = np.random.default_rng((seed, 23))
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x, z = int(rng.integers(n)), int(rng.integers(n))
            t = float(rng.uniform(0.02, 0.98))
            row = np.maximum(rng.dirichlet(np.ones(n)), 1e-9)
            row /= row.sum()
            worst = max(worst, -udlm_integrand(x, z, t, row, sched))
        return max(worst, 0.0), 1e-12

    return [
        ("worked_constant", worked_constant),
        ("zero_at_truth", zero_at_truth),
        ("kl_rate_agreement", kl_rate_agreement),
        ("nonnegative", nonnegative),
    ]


def _checks_bound(seed: int) -> list:
    from .loss import nelbo_discrete

    sched = NoiseSchedule()

    def nll_le_nelbo():
        pr = PriorSpec.uniform(3)
        worst = -np.inf
        for k in range(10):
            den = TabularDenoiser(3, seed=seed * 31 + k)
            for T in (2, 4):
                for x in (np.array([0]), np.array([2])):
                    nelbo = nelbo_discrete(x, den, T, pr, sched)
                    nll = exact_reverse_nll(den, x, T, pr, sched)
                    worst = max(worst, nll - nelbo)
        return max(worst, 0.0), 1e-9

    def absorbing_perfect_zero():
        vocab = Vocabulary(3, mask_index=2)
        pr = PriorSpec.absorbing(vocab)
        x = np.array([0, 1])
        den = PerfectDenoiser(x, 3, kind="absorbing")
        return abs(nelbo_discrete(x, den, 8, pr, sched)), 1e-12

    def t1_closed_form():
        pr = PriorSpec.uniform(3)
        den = TabularDenoiser(3, seed=seed + 7)
        x = np.array([1])
        mass = 0.0
        for z in range(3):
            row = den.rows_batch(np.array([[z]]), 1.0)[0, 0]
            step = substituted_posterior_oracle(z, row, 1.0, 0.0, pr, sched)
            mass += step[x[0]] / 3.0
        direct = -np.log(mass)
        got = exact_reverse_nll(den, x, 1, pr, sched)
        return abs(got - direct), 1e-12

    return [
        ("nll_le_nelbo", nll_le_nelbo),
        ("absorbing_perfect_zero", absorbing_perfect_zero),
        ("t1_closed_form", t1_closed_form),
    ]


def _checks_equivalence(seed: int) -> list:
    from .loss import sedd_form_nelbo, udlm_integrand

    sched = NoiseSchedule()

    def sedd_equals_udlm():
        rng = np.random.default_rng((seed, 41))
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            x, z = int(rng.integers(n)), int(rng.integers(n))
            t = float(rng.uniform(0.02, 0.98))
            row = np.maximum(rng.dirichlet(np.full(n, 0.7)), 1e-12)
            row /= row.sum()
            a = udlm_integrand(x, z, t, row, sched)
            b = sedd_form_nelbo(x, z, t, row, sched)
            # the identity passes through zero, so scale by max(1, |a|, |b|)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        return worst, 1e-11

    return [("sedd_equals_udlm", sedd_equals_udlm)]


def _checks_guidance(seed: int) -> list:
    from .guidance import cbg_exact, cbg_taylor, cfg_combine

    def cfg_worked():
        got = cfg_combine(np.array([[0.8, 0.2]]), np.array([[0.5, 0.5]]), 2.0)
        return float(np.max(np.abs(got[0] - [16 / 17, 1 / 17]))), 1e-12

    def cfg_direct_powers():
        rng = np.random.default_rng((seed, 51))
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 6))
            cond = rng.dirichlet(np.ones(n), size=3)
            uncond = rng.dirichlet(np.ones(n), size=3)
            for gamma in (0.0, 0.5, 1.0, 2.0, 5.0):
                got = cfg_combine(cond, uncond, gamma)
                want = cond ** gamma * uncond ** (1.0 - gamma)
                want /= want.sum(axis=1, keepdims=True)
                worst = max(worst, float(np.max(np.abs(got - want))))
        return worst, 1e-12

    def cbg_exact_vs_oracle():
        rng = np.random.default_rng((seed, 52))
        clf = AffineClassifier(2, 3, 4, seed=seed + 1)
        worst = 0.0
        for _ in range(20):
            z = rng.integers(4, size=3)
            rows = rng.dirichlet(np.ones(4), size=3)
            for gamma in (0.0, 0.5, 1.0, 2.0, 5.0):
                got = cbg_exact(clf, z, 0.3, rows, 1, gamma)
                want = tempered_token_oracle(clf, z, rows, 1, gamma, 0.3)
                worst = max(worst, float(np.max(np.abs(got - want))))
        return worst, 1e-12

    def taylor_exact_for_affine():
        rng = np.random.default_rng((seed, 53))
        clf = AffineClassifier(2, 3, 4, seed=seed + 2)
        worst = 0.0
        for _ in range(20):
            z = rng.integers(4, size=3)
            rows = rng.dirichlet(np.ones(4), size=3)
            for gamma in (0.5, 2.0, 5.0):
                a = cbg_exact(clf, z, 0.3, rows, 0, gamma)
                b = cbg_taylor(clf, z, 0.3, rows, 0, gamma)
                worst = max(worst, float(np.max(np.abs(a - b))))
        return worst, 1e-9

    def call_count_contracts():
        rng = np.random.default_rng((seed, 54))
        length, n = 3, 4
        counter = CallCountingClassifier(AffineClassifier(2, length, n))
        z = rng.integers(n, size=length)
        rows = rng.dirichlet(np.ones(n), size=length)
        cbg_exact(counter, z, 0.4, rows, 0, 2.0)
        dev = abs(counter.log_prob_calls - length * n)
        counter2 = CallCountingClassifier(AffineClassifier(2, length, n))
        cbg_taylor(counter2, z, 0.4, rows, 0, 2.0)
        dev += abs(counter2.grad_calls - 1) + counter2.log_prob_calls
        return float(dev), 0.5

    return [
        ("cfg_worked", cfg_worked),
        ("cfg_direct_powers", cfg_direct_powers),
        ("cbg_exact_vs_oracle", cbg_exact_vs_oracle),
        ("taylor_exact_for_affine", taylor_exact_for_affine),
        ("call_count_contracts", call_count_contracts),
    ]


def _checks_ctmc(seed: int) -> list:
    from . import ctmc
    from .forward import posterior_matrix

    sched = NoiseSchedule()
    dts = np.geomspace(1e-5, 3e-4, 9)

    def cfg_route_slope():
        worst = 0.0
        for gamma in (0.5, 2.0, 5.0):
            d, tv = ctmc_tv_sweep("cfg", gamma, seed, dts)
            worst = max(worst, abs(fitted_exponent(np.asarray(d),
                                                   np.asarray(tv)) - 1.0))
        return worst, 0.2

    def cbg_route_slope():
        worst = 0.0
        for gamma in (0.5, 2.0, 5.0):
            d, tv = ctmc_tv_sweep("cbg", gamma, seed, dts)
            worst = max(worst, abs(fitted_exponent(np.asarray(d),
                                                   np.asarray(tv)) - 2.0))
        return worst, 0.2

    def euler_matches_posterior():
        rng = np.random.default_rng((seed, 61))
        row = np.maximum(rng.dirichlet(np.ones(3)), 1e-6)
        row /= row.sum()
        z = int(rng.integers(3))
        t = 0.6
        rev = ctmc.reverse_rate(ctmc.uniform_rate(sched, t, 3),
                                ctmc.mixture_ratio(row, t, sched))
        pr = PriorSpec.uniform(3)
        tvs = []
        for dt in dts:
            post = posterior_matrix(z, row, t, t - dt, pr, sched)
            post = post / post.sum()
            eul = ctmc.euler_step_distribution(z, rev, dt)
            tvs.append(0.5 * float(np.abs(post - eul).sum()))
        return abs(fitted_exponent(dts, np.array(tvs)) - 2.0), 0.2

    def reverse_flux_identity():
        rng = np.random.default_rng((seed, 62))
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q = rng.random(n) + 0.05
            q /= q.sum()
            fwd = ctmc.uniform_rate(sched, float(rng.uniform(0.1, 0.9)), n)
            rev = ctmc.reverse_rate(fwd, lambda j, i: q[j] / q[i])
            for i in range(n):
                for j in range(n):
                    if i != j:
                        worst = max(worst, abs(q[i] * rev.entries[i, j]
                                               - q[j] * fwd.entries[j, i]))
        return worst, 1e-12

    return [
        ("cfg_route_slope", cfg_route_slope),
        ("cbg_route_slope", cbg_route_slope),
        ("euler_matches_posterior", euler_matches_posterior),
        ("reverse_flux_identity", reverse_flux_identity),
    ]


def _checks_gradients(seed: int) -> list:
    from .loss import BOUNDS

    def objective_check(objective: str):
        def run():
            from . import model as model_mod
            from .loss import LossSpec, training_loss_node

            kind = BOUNDS[objective][0]  # a prior kind the objective bounds
            vocab = (Vocabulary(4, mask_index=3) if kind == "absorbing"
                     else Vocabulary(3))
            params = model_mod.init_denoiser(vocab, 2, 2, 4, kind=kind,
                                             seed=seed, scale=0.3)
            rng = np.random.default_rng((seed, 71))
            x = rng.integers(0, 3, size=(3, 2))
            cond = rng.integers(0, 2, size=3)
            spec = LossSpec(objective,
                            T=4 if objective == "nelbo_discrete" else None)
            arrays = [a for _, a in params.arrays()]

            def build(nodes):
                return training_loss_node(spec, nodes, params, x, cond,
                                          np.random.default_rng((seed, 72)))

            return gradient_check(build, arrays, h=1e-6), 1e-4
        return run

    def classifier_grad():
        from . import model as model_mod

        vocab = Vocabulary(3)
        clf = model_mod.init_classifier(vocab, 3, 2, 5, seed=seed)
        rng = np.random.default_rng((seed, 73))
        z = rng.integers(0, 3, size=3)
        one_hot = model_mod.one_hot_batch(z[None, :], 3)[0]
        _, grad = clf.grad_log_prob(z, 0.4, 1)

        def value(arrs):
            from . import autodiff as ad

            onehot = ad.constant(arrs[0][None, :, :])
            return float(model_mod.classifier_logprobs(
                model_mod.constant_nodes(clf), clf, onehot,
                np.array([0.4])).value[0, 1])

        numeric = finite_difference_grads(value, [one_hot.copy()], h=1e-6)[0]
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-3)
        return float(np.max(np.abs(grad - numeric) / denom)), 1e-4

    checks = [(f"{obj}_grads", objective_check(obj)) for obj in BOUNDS]
    checks.append(("classifier_grad_vs_fd", classifier_grad))
    return checks


_SUITE_BUILDERS = {
    "posteriors": _checks_posteriors,
    "limits": _checks_limits,
    "bound": _checks_bound,
    "equivalence": _checks_equivalence,
    "guidance": _checks_guidance,
    "ctmc": _checks_ctmc,
    "gradients": _checks_gradients,
}


def _run_check(fn) -> tuple:
    try:
        dev, tol = fn()
        return float(dev), float(tol), None
    except Exception as exc:  # a crashed check is a failed check
        return np.inf, 0.0, f"{type(exc).__name__}: {exc}"


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named check suite (or 'all'), one check after another in
    declaration order, so the report is deterministic for a given seed."""
    if name == "all":
        pairs = [(f"{suite}/{check}", fn)
                 for suite in SUITE_NAMES
                 for check, fn in _SUITE_BUILDERS[suite](seed)]
    elif name in _SUITE_BUILDERS:
        pairs = [(f"{name}/{check}", fn)
                 for check, fn in _SUITE_BUILDERS[name](seed)]
    else:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    start = time.perf_counter()
    checks = [CheckResult(label, *_run_check(fn)) for label, fn in pairs]
    return SuiteReport(name, seed, checks, time.perf_counter() - start)
