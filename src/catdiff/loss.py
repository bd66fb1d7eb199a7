"""Training and evaluation objectives.

Each continuous-time objective is one kernel batched over (B, L):
``_udlm_rate`` (the paper's uniform-noise bound), ``_sedd_rate`` (its
score-entropy form) and ``_mdlm_rate`` (absorbing). A kernel takes the
predicted rows as arrays or as autodiff Nodes, so training
(``training_loss_node``), evaluation (``udlm_loss``, ``mdlm_loss``, the
one-position ``udlm_integrand`` and ``sedd_form_nelbo``) and the oracles
in ``verify`` all run the same code. The denoiser is read only through
``rows_batch(z, t, condition)``, and the continuous-time losses take N
from its ``prior``. ``nelbo_discrete`` scores one sequence or a batch:
mc mode evaluates every sampled latent in one denoiser call, exact mode
one call per grid time over the enumerated latents of each sequence.

The forward process is not re-derived here: z_t comes from
``forward.corrupt``, marginals from ``forward.marginal_rows``, and every
posterior from ``forward.bayes_factors`` and ``forward.bayes_posterior``.
A KL term computes the factors once and applies them to the one-hot x
(q) and to the denoiser's rows (p), as arrays in evaluation and as
autodiff nodes in the training NELBO.

Conventions, resolved once here:

* Discrete-time grid: t_i = i/T for i = 0..T. The reconstruction term
  sits at t = 0 where the forward marginal is a point mass on the clean
  data and the predictor copies its input, so it is identically zero;
  the prior term sits at t = 1 where alpha = 0, so it is zero for both
  supported priors. Both are still computed generically.
* The UDLM rate carries the prefactor alpha'/(N alpha), which is
  negative; the bracketed term is negative as well, making the rate
  nonnegative. The verification suite pins this sign against
  an independent KL/(t - s) limit oracle.
* Monte Carlo losses draw t uniformly from the clamped schedule range
  and scale by the interval width, keeping the estimator unbiased.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .core import Categorical, NoiseSchedule
from .forward import (PriorSpec, bayes_factors, bayes_posterior, corrupt,
                      marginal_rows, posterior_matrix)
from .model import one_hot_batch

_SUPPORT_EPS = 1e-300  # posterior entries below this count as off-support

# Exact-mode NELBO: the most latents enumerated per sequence, T * N^L over
# the grid. Each grid time holds its N^L latents and their rows in memory
# at once, so this is also the memory bound.
EXACT_LATENT_BUDGET = 10 ** 5

OBJECTIVES = ("nelbo_discrete", "udlm_continuous", "mdlm_continuous", "sedd_form")


@dataclass(frozen=True)
class LossSpec:
    objective: str
    T: int | None = None
    mc_samples_per_example: int = 1
    exact_expectation: bool = False

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.objective == "nelbo_discrete" and (self.T is None or self.T < 1):
            raise ValueError("nelbo_discrete needs T >= 1")
        if self.mc_samples_per_example < 1:
            raise ValueError("mc_samples_per_example must be positive")


# ------------------------------------------------------------ KL building

def diffusion_kl(
    x: int, z_t: int, t: float, s: float, x_theta_row: np.ndarray,
    prior: PriorSpec, schedule: NoiseSchedule,
) -> float:
    """KL[q(z_s | z_t, x) || q(z_s | z_t, x = x_theta)], one position."""
    q = posterior_matrix(z_t, Categorical.one_hot(x, prior.size).probs, t, s,
                         prior, schedule)
    p = posterior_matrix(z_t, x_theta_row, t, s, prior, schedule)
    return _kl(q, p)


def _kl(q: np.ndarray, p: np.ndarray) -> float:
    support = q > _SUPPORT_EPS
    if np.any(support & (p <= 0)):
        return np.inf
    qs, ps = q[support], p[support]
    return float(np.sum(qs * (np.log(qs) - np.log(ps))))


# ---------------------------------------------------------- discrete-time

def check_exact_budget(T: int, n: int, length: int) -> None:
    """Raise ValueError when an exact-mode NELBO would enumerate more than
    EXACT_LATENT_BUDGET latents per sequence (N^L at each of T times)."""
    if T * n ** length > EXACT_LATENT_BUDGET:
        raise ValueError(
            f"exact NELBO over T={T} grid times of {n}^{length} latents "
            f"exceeds the budget of {EXACT_LATENT_BUDGET} latents")


def nelbo_discrete(
    x_seq, denoiser, T: int, prior: PriorSpec, schedule: NoiseSchedule,
    mode: str = "exact", rng: np.random.Generator | None = None,
    mc_samples: int = 1, condition=None,
):
    """Discrete-time NELBO in nats per sequence over the grid t_i = i/T.

    ``x_seq`` is one (L,) sequence, giving a float, or a (B, L) batch,
    giving a (B,) array; ``condition`` is shared or one per sequence.
    exact mode enumerates every latent sequence z_t at every grid time,
    weighting by the forward marginal (refused past EXACT_LATENT_BUDGET);
    mc mode samples mc_samples (grid index, z_t) pairs per sequence,
    drawing them sequence by sequence, so a batch consumes the rng
    exactly as the same sequences scored one at a time.
    """
    x = np.asarray(x_seq, dtype=np.int64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        check_exact_budget(T, prior.size, x.shape[1])
    elif rng is None:
        raise ValueError("mc mode needs an rng")
    per_row = np.ndim(condition) == 1
    total = _prior_kl(x, prior, schedule) + _reconstruction(x, schedule)
    if mode == "exact":
        latents = np.array(
            list(itertools.product(range(prior.size), repeat=x.shape[1])),
            dtype=np.int64).reshape(-1, x.shape[1])
        for b in range(x.shape[0]):
            cond = condition[b] if per_row else condition
            for i in range(1, T + 1):
                total[b] += _exact_kl_term(x[b], latents, denoiser, i / T,
                                           (i - 1) / T, prior, schedule, cond)
    else:
        cond = np.repeat(condition, mc_samples) if per_row else condition
        total += _mc_kl_terms(x, denoiser, T, prior, schedule, rng,
                              mc_samples, cond)
    return float(total[0]) if single else total


def _mc_kl_terms(x, denoiser, T, prior, schedule, rng, mc_samples,
                 condition) -> np.ndarray:
    """Mean over mc_samples draws of T * KL at a sampled grid rung, per
    sequence. All draws come first, in sequence-then-sample order; then
    one denoiser call and one KL evaluation cover every draw."""
    num, length = x.shape
    grid = np.empty(num * mc_samples, dtype=np.int64)
    z = np.empty((num * mc_samples, length), dtype=np.int64)
    for k in range(num * mc_samples):
        i = int(rng.integers(1, T + 1))
        grid[k] = i
        z[k] = corrupt(x[k // mc_samples], i / T, prior, schedule, rng)
    t, s = grid / T, (grid - 1) / T
    rows = denoiser.rows_batch(z, t, condition)
    kls = _kl_rows(z, np.repeat(x, mc_samples, axis=0), rows, t, s, prior,
                   schedule).reshape(num, mc_samples)
    acc = np.zeros(num)
    for m in range(mc_samples):
        acc += T * kls[:, m]
    return acc / mc_samples


def _exact_kl_term(x_seq, latents, denoiser, t, s, prior, schedule,
                   condition) -> float:
    """E_{q(z_t | x)} sum_l KL_l over the enumerated (N^L, L) latents: one
    denoiser call over every latent the forward marginal can reach."""
    length = x_seq.shape[0]
    marg = marginal_rows(x_seq, t, prior, schedule)  # (L, N)
    weights = np.prod(marg[np.arange(length)[None, :], latents], axis=1)
    live = weights > 0
    rows_all = denoiser.rows_batch(latents[live], t, condition)
    kls = _kl_rows(latents[live], x_seq, rows_all, t, s, prior, schedule)
    return float(weights[live] @ kls)


def _kl_rows(
    z: np.ndarray, x_seq: np.ndarray, rows: np.ndarray, t, s,
    prior: PriorSpec, schedule: NoiseSchedule,
) -> np.ndarray:
    """Per-sequence KL[q(z_s|z_t,x) || p_theta(z_s|z_t)] summed over
    positions, vectorized over a stack of latents: z (S, L), rows
    (S, L, N) predicted clean distributions -> (S,). The clean sequence
    x and the times t, s are shared by the stack or given one per latent
    ((S, L) and (S,)). The posterior's factors are computed once and
    applied to the one-hot x (q) and to the predicted rows (p)."""
    factors = bayes_factors(z, t, s, prior, schedule)
    q = bayes_posterior(factors, z, one_hot_batch(
        np.broadcast_to(x_seq, z.shape), prior.size))
    p = bayes_posterior(factors, z, rows)
    support = q > _SUPPORT_EPS
    out = np.sum(
        np.where(support, q * (np.log(np.where(support, q, 1.0))
                               - np.log(np.where(support & (p > 0), p, 1.0))),
                 0.0),
        axis=(1, 2),
    )
    bad = np.any(support & (p <= 0), axis=(1, 2))
    out[bad] = np.inf
    return out


def _prior_kl(x, prior, schedule) -> np.ndarray:
    """KL[q(z_1 | x) || pi] per position, summed per sequence of the
    (B, L) batch; zero when alpha(1) = 0. The per-position term depends
    on the token alone, so it is read from an N-entry table."""
    marg = marginal_rows(np.arange(prior.size), 1.0, prior, schedule)
    table = np.array([_kl(q, prior.pi.probs) for q in marg])
    return table[x].sum(axis=1)


def _reconstruction(x, schedule) -> np.ndarray:
    # alpha(0) = 1 makes z_0 = x almost surely and the decode is a copy,
    # so -log p(x | z_0) = 0 identically.
    return np.zeros(x.shape[0])


# -------------------------------------------------------- continuous-time
# Kernels: clean tokens x and latents z (B, L), t shared or one per
# sequence, predicted rows as arrays or Nodes -> per-position rate (B, L).

def _udlm_rate(xtheta, x, z, t, schedule: NoiseSchedule):
    """UDLM loss rate of predicted clean-token rows xtheta (B, L, N),
    uniform prior:

    (alpha'/(N alpha)) [N/xb_i - N/xbt_i
        - sum_{j != i} (xb_j/xb_i) log(xbt_i xb_j / (xbt_j xb_i))]

    with xb = N alpha onehot(x) + 1 - alpha the clean-data mixture, xbt the
    same mixture of xtheta, and i = z.
    """
    n = xtheta.shape[-1]
    ap = np.reshape(schedule.alpha_prime(t), (-1, 1))  # raises outside (0, 1)
    a = np.reshape(schedule.alpha(t), (-1, 1, 1))
    xb = n * a * one_hot_batch(x, n) + (1.0 - a)      # (B, L, N) constant
    xb_i = ad.gather_last(xb, z)                       # (B, L)
    xbt = n * (a * xtheta) + (1.0 - a)
    log_xbt = ad.log(xbt)
    xbt_i = ad.gather_last(xbt, z)
    log_xbt_i = ad.gather_last(log_xbt, z)
    # sum_{j != i} (xb_j / xb_i) [log xbt_i - log xbt_j + log xb_j - log xb_i]
    w = xb / xb_i[..., None] * (1.0 - one_hot_batch(z, n))
    const_part = np.log(xb) - np.log(xb_i)[..., None]
    diff = ad.reshape(log_xbt_i, log_xbt_i.shape + (1,)) - log_xbt + const_part
    cross = ad.nsum(w * diff, axis=-1)
    bracket = (n / xb_i) - (n / xbt_i) - cross
    return (ap / (n * a[..., 0])) * bracket


def _sedd_rate(xtheta, x, z, t, schedule: NoiseSchedule):
    """Score-entropy form of the same rate (Lou et al. 2023):

    sum_{j != i} R [s_j - ratio_j log s_j + K(ratio_j)]

    with R = -alpha'/(N alpha) the off-diagonal uniform rate, s_j = xbt_j /
    xbt_i the predicted mixture ratio, ratio_j = xb_j / xb_i the true one,
    and K(a) = a (log a - 1).
    """
    n = xtheta.shape[-1]
    rate = np.reshape(-schedule.alpha_prime(t) / (n * schedule.alpha(t)),
                      (-1, 1))
    a = np.reshape(schedule.alpha(t), (-1, 1, 1))
    xb = n * a * one_hot_batch(x, n) + (1.0 - a)
    ratio = xb / ad.gather_last(xb, z)[..., None]
    log_xbt = ad.log(n * (a * xtheta) + (1.0 - a))
    log_xbt_i = ad.gather_last(log_xbt, z)
    log_score = log_xbt - ad.reshape(log_xbt_i, log_xbt_i.shape + (1,))
    inner = (ad.exp(log_score) - ratio * log_score
             + ratio * (np.log(ratio) - 1.0))
    return rate * ad.nsum((1.0 - one_hot_batch(z, n)) * inner, axis=-1)


def _mdlm_rate(logrows, x, z, t, schedule: NoiseSchedule, mask_index: int):
    """Absorbing-state (MDLM) loss rate of predicted log rows (B, L, N):
    -alpha'/(1 - alpha) * -log x_theta[x] where z is masked, 0 elsewhere.
    Unmasked entries of logrows are multiplied by 0, so they must be
    finite."""
    a = np.reshape(schedule.alpha(t), (-1, 1))
    rate = -np.reshape(schedule.alpha_prime(t), (-1, 1)) / (1.0 - a)
    return (rate * (z == mask_index)) * -ad.gather_last(logrows, x)


def _at_one_position(kernel, x, z_t, t, x_theta_row, schedule) -> float:
    rows = np.asarray(x_theta_row, dtype=np.float64)[None, None]
    return float(kernel(rows, np.array([[x]]), np.array([[z_t]]), t,
                        schedule)[0, 0])


def udlm_integrand(
    x: int, z_t: int, t: float, x_theta_row: np.ndarray,
    schedule: NoiseSchedule,
) -> float:
    """Per-token continuous-time loss rate at latent z_t, uniform prior
    (``_udlm_rate`` at one position). Evaluable on all of (0, 1); the
    t_min/t_max clamp protects *training draws* from the endpoint
    cancellation, not point evaluation."""
    return _at_one_position(_udlm_rate, x, z_t, t, x_theta_row, schedule)


def sedd_form_nelbo(
    x: int, z_t: int, t: float, x_theta_row: np.ndarray,
    schedule: NoiseSchedule,
) -> float:
    """Score-parameterized form of the same per-token loss rate
    (``_sedd_rate`` at one position)."""
    return _at_one_position(_sedd_rate, x, z_t, t, x_theta_row, schedule)


def udlm_loss(
    x_seq, denoiser, rng: np.random.Generator, mc_samples: int,
    schedule: NoiseSchedule, condition=None,
) -> float:
    """Monte Carlo estimate of the sequence-level continuous-time loss,
    t ~ Uniform(t_min, t_max), z_t ~ forward marginal."""
    x = np.asarray(x_seq, dtype=np.int64)[None]
    prior = PriorSpec.uniform(denoiser.prior.size)
    width = schedule.t_max - schedule.t_min
    acc = 0.0
    for _ in range(mc_samples):
        t = float(schedule.draw_t(rng))
        z = corrupt(x, t, prior, schedule, rng)
        rows = denoiser.rows_batch(z, t, condition)
        val = float(np.sum(_udlm_rate(rows, x, z, t, schedule)))
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite integrand at t={t}, z={z[0]}")
        acc += width * val
    return acc / mc_samples


def mdlm_loss(
    x_seq, denoiser, rng: np.random.Generator, mc_samples: int,
    schedule: NoiseSchedule, mask_index: int, condition=None,
) -> float:
    """Continuous-time absorbing-state loss (adopted, and validated against
    nelbo_discrete at large T): only masked positions contribute
    -alpha'/(1 - alpha) * -log<x, x_theta>."""
    x = np.asarray(x_seq, dtype=np.int64)[None]
    width = schedule.t_max - schedule.t_min
    acc = 0.0
    for _ in range(mc_samples):
        t = float(schedule.draw_t(rng))
        z = np.where(rng.random(x.shape) < schedule.alpha(t), x, mask_index)
        rows = denoiser.rows_batch(z, t, condition)
        # log 1 = 0 at unmasked positions, which the rate weights by 0; the
        # zero mask column of absorbing rows gives a -inf that is not read
        with np.errstate(divide="ignore"):
            logrows = np.log(np.where((z == mask_index)[..., None], rows, 1.0))
        val = float(np.sum(_mdlm_rate(logrows, x, z, t, schedule,
                                      mask_index)))
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite integrand at t={t}, z={z[0]}")
        acc += width * val
    return acc / mc_samples


# ----------------------------------------------------------------- scores

def bpc(nelbo_nats: float, length: int) -> float:
    return nelbo_nats / (length * np.log(2.0))


def ppl(nelbo_nats: float, length: int) -> float:
    return float(np.exp(nelbo_nats / length))


# ------------------------------------------- batched graph builders (train)

def training_loss_node(
    spec: LossSpec, field_nodes: list, params, x: np.ndarray,
    cond_idx: np.ndarray, rng: np.random.Generator,
) -> ad.Node:
    """One minibatch loss as a scalar Node; draws (t, z_t) internally."""
    schedule = params.schedule
    prior = params.prior
    batch = x.shape[0]
    width = schedule.t_max - schedule.t_min
    parts = []
    for _ in range(spec.mc_samples_per_example):
        if spec.objective == "nelbo_discrete":
            i = rng.integers(1, spec.T + 1, size=batch)
            t, s = i / spec.T, (i - 1) / spec.T
        else:
            t = schedule.draw_t(rng, size=batch)
        z = corrupt(x, t, prior, schedule, rng)
        # looked up on the module, so a wrapper installed there sees it
        rows = model_mod.denoiser_logprob_rows(field_nodes, params, z, t,
                                               cond_idx)
        if spec.objective == "nelbo_discrete":
            parts.append(_nelbo_mc_batch_node(rows, x, z, t, s, spec.T,
                                              prior, schedule))
            continue
        if spec.objective == "mdlm_continuous":
            rate = _mdlm_rate(rows, x, z, t, schedule,
                              params.vocab.mask_index)
        elif spec.objective == "udlm_continuous":
            rate = _udlm_rate(ad.exp(rows), x, z, t, schedule)
        else:
            rate = _sedd_rate(ad.exp(rows), x, z, t, schedule)
        parts.append(width * ad.nmean(ad.nsum(rate, axis=1)))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total * (1.0 / len(parts))


def _nelbo_mc_batch_node(rows, x, z, t, s, T, prior, schedule) -> ad.Node:
    """T * KL[q(z_s|z_t,x) || p_theta(z_s|z_t)], one sampled grid rung."""
    factors = bayes_factors(z, t, s, prior, schedule)
    q = bayes_posterior(factors, z, one_hot_batch(x, prior.size))  # constant
    # model posterior (Node), x replaced by the predicted distribution
    xtheta = ad.exp(rows)
    x_at_z = ad.reshape(ad.gather_last(xtheta, z), z.shape + (1,))
    p = bayes_posterior(factors, z, xtheta, x_at_z)
    support = (q > _SUPPORT_EPS).astype(np.float64)
    q_masked = q * support
    entropy = np.sum(q_masked * np.log(np.where(support > 0, q, 1.0)),
                     axis=(1, 2))
    # off-support p entries are padded to 1 so the log stays finite; their
    # weight is zero so neither value nor gradient leaks through
    log_p = ad.log(p + (1.0 - support))
    cross = ad.nsum(ad.nsum(ad.mul(ad.constant(q_masked), log_p), axis=-1),
                    axis=-1)
    return float(T) * ad.nmean(ad.constant(entropy) - cross)
