"""Training and evaluation objectives.

Evaluation paths (plain numpy; the denoiser is read only through its
``rows_batch(z, t, condition)``, and the continuous-time losses take N
from its ``prior``) live alongside batched graph builders used by
model.train. ``nelbo_discrete`` scores one sequence or a batch: mc mode
evaluates every sampled latent of the batch in one denoiser call, exact
mode one call per grid time over the enumerated latents of each
sequence.

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
* The continuous-time integrand carries the prefactor alpha'/(N alpha),
  which is negative; the bracketed term is negative as well, making the
  integrand nonnegative. The verification suite pins this sign against
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

def _mixtures(x_onehot_or_row: np.ndarray, t: float, n: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """N alpha_t v + (1 - alpha_t) 1, the unnormalized time-t marginal."""
    a = schedule.alpha(t)
    return n * a * x_onehot_or_row + (1.0 - a)


def udlm_integrand(
    x: int, z_t: int, t: float, x_theta_row: np.ndarray,
    schedule: NoiseSchedule,
) -> float:
    """Per-token continuous-time loss rate at latent z_t, uniform prior.

    (alpha'/(N alpha)) [N/xb_i - N/xbt_i
        - sum_{j != i} (xb_j/xb_i) log(xbt_i xb_j / (xbt_j xb_i))]
    with xb the clean-data mixture, xbt the predicted mixture, i = z_t.
    """
    x_theta_row = np.asarray(x_theta_row, dtype=np.float64)
    n = x_theta_row.shape[0]
    # Evaluable on all of (0, 1); the t_min/t_max clamp protects *training
    # draws* from the endpoint cancellation, not point evaluation.
    if not 0.0 < t < 1.0:
        raise ValueError(f"t={t} outside (0, 1)")
    x_vec = np.zeros(n)
    x_vec[x] = 1.0
    xb = _mixtures(x_vec, t, n, schedule)
    xbt = _mixtures(x_theta_row, t, n, schedule)
    i = z_t
    log_ratio = (np.log(xbt[i]) - np.log(xbt)) + (np.log(xb) - np.log(xb[i]))
    weights = xb / xb[i]
    cross = float(np.sum(np.delete(weights * log_ratio, i)))
    bracket = n / xb[i] - n / xbt[i] - cross
    prefactor = schedule.alpha_prime(t) / (n * schedule.alpha(t))
    return float(prefactor * bracket)


def udlm_loss(
    x_seq, denoiser, rng: np.random.Generator, mc_samples: int,
    schedule: NoiseSchedule, condition=None,
) -> float:
    """Monte Carlo estimate of the sequence-level continuous-time loss,
    t ~ Uniform(t_min, t_max), z_t ~ forward marginal."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    prior = PriorSpec.uniform(denoiser.prior.size)
    width = schedule.t_max - schedule.t_min
    acc = 0.0
    for _ in range(mc_samples):
        t = float(schedule.draw_t(rng))
        z = corrupt(x_seq, t, prior, schedule, rng)
        rows = denoiser.rows_batch(z[None], t, condition)[0]
        val = sum(
            udlm_integrand(int(x_seq[l]), int(z[l]), t, rows[l], schedule)
            for l in range(x_seq.shape[0])
        )
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite integrand at t={t}, z={z}")
        acc += width * val
    return acc / mc_samples


def mdlm_loss(
    x_seq, denoiser, rng: np.random.Generator, mc_samples: int,
    schedule: NoiseSchedule, mask_index: int, condition=None,
) -> float:
    """Continuous-time absorbing-state loss (adopted, and validated against
    nelbo_discrete at large T): only masked positions contribute
    -alpha'/(1 - alpha) * -log<x, x_theta>."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    width = schedule.t_max - schedule.t_min
    acc = 0.0
    for _ in range(mc_samples):
        t = float(schedule.draw_t(rng))
        a = schedule.alpha(t)
        keep = rng.random(x_seq.shape) < a
        z = np.where(keep, x_seq, mask_index)
        masked = z == mask_index
        if not masked.any():
            continue
        rows = denoiser.rows_batch(z[None], t, condition)[0]
        logp = np.log(rows[np.arange(x_seq.shape[0]), x_seq])
        rate = -schedule.alpha_prime(t) / (1.0 - a)
        val = rate * float(np.sum(-logp[masked]))
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite integrand at t={t}, z={z}")
        acc += width * val
    return acc / mc_samples


def sedd_form_nelbo(
    x: int, z_t: int, t: float, x_theta_row: np.ndarray,
    schedule: NoiseSchedule,
) -> float:
    """Score-parameterized form of the same per-token loss rate.

    sum_{z' != z} R(z, z') [s(z') - ratio(z') log s(z') + K(ratio(z'))]
    with s the predicted mixture ratio, ratio the true one, and
    K(a) = a (log a - 1).
    """
    x_theta_row = np.asarray(x_theta_row, dtype=np.float64)
    n = x_theta_row.shape[0]
    a = schedule.alpha(t)
    rate = -schedule.alpha_prime(t) / (n * a)  # off-diagonal uniform rate
    x_vec = np.zeros(n)
    x_vec[x] = 1.0
    xb = _mixtures(x_vec, t, n, schedule)
    xbt = _mixtures(x_theta_row, t, n, schedule)
    i = z_t
    if xb[i] <= 0 or xbt[i] <= 0:
        raise ValueError("zero mixture ratio; t outside the valid range")
    total = 0.0
    for j in range(n):
        if j == i:
            continue
        score = xbt[j] / xbt[i]
        ratio = xb[j] / xb[i]
        total += score - ratio * np.log(score) + ratio * (np.log(ratio) - 1.0)
    return float(rate * total)


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
    n = prior.size
    batch = x.shape[0]
    parts = []
    for _ in range(spec.mc_samples_per_example):
        if spec.objective == "nelbo_discrete":
            i = rng.integers(1, spec.T + 1, size=batch)
            t, s = i / spec.T, (i - 1) / spec.T
        else:
            t = schedule.draw_t(rng, size=batch)
            s = None
        z = corrupt(x, t, prior, schedule, rng)
        # looked up on the module, so a wrapper installed there sees it
        rows = model_mod.denoiser_logprob_rows(field_nodes, params, z, t,
                                               cond_idx)
        if spec.objective == "udlm_continuous":
            parts.append(_udlm_batch_node(rows, x, z, t, n, schedule))
        elif spec.objective == "sedd_form":
            parts.append(_sedd_batch_node(rows, x, z, t, n, schedule))
        elif spec.objective == "mdlm_continuous":
            parts.append(_mdlm_batch_node(rows, x, z, t, schedule,
                                          params.vocab.mask_index))
        else:
            parts.append(_nelbo_mc_batch_node(rows, x, z, t, s, spec.T,
                                              prior, schedule))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total * (1.0 / len(parts))


def _udlm_batch_node(rows, x, z, t, n, schedule) -> ad.Node:
    """Mean over the batch of width * sum_l integrand, as a Node."""
    width = schedule.t_max - schedule.t_min
    a = schedule.alpha(t)[:, None, None]
    ap = schedule.alpha_prime(t)[:, None]
    xb = n * a * one_hot_batch(x, n) + (1.0 - a)      # (B, L, N) constant
    bl = np.arange(x.shape[0])[:, None], np.arange(x.shape[1])[None, :]
    xb_i = xb[bl[0], bl[1], z]                        # (B, L)
    xtheta = ad.exp(rows)
    xbt = n * ad.mul(ad.constant(a), xtheta) + (1.0 - a)
    log_xbt = ad.log(xbt)
    xbt_i = ad.gather_last(xbt, z)
    log_xbt_i = ad.gather_last(log_xbt, z)
    # sum_{j != i} (xb_j / xb_i) [log xbt_i - log xbt_j + log xb_j - log xb_i]
    w = xb / xb_i[..., None] * (1.0 - one_hot_batch(z, n))
    const_part = np.log(xb) - np.log(xb_i)[..., None]
    diff = ad.reshape(log_xbt_i, log_xbt_i.shape + (1,)) - log_xbt + const_part
    cross = ad.nsum(ad.mul(ad.constant(w), diff), axis=-1)          # (B, L)
    bracket = (n / xb_i) - (n / xbt_i) - cross
    integrand = ad.mul(ad.constant(ap / (n * schedule.alpha(t)[:, None])),
                       bracket)
    return width * ad.nmean(ad.nsum(integrand, axis=1))


def _sedd_batch_node(rows, x, z, t, n, schedule) -> ad.Node:
    width = schedule.t_max - schedule.t_min
    a = schedule.alpha(t)[:, None, None]
    rate = (-schedule.alpha_prime(t) / (n * schedule.alpha(t)))[:, None]
    xb = n * a * one_hot_batch(x, n) + (1.0 - a)
    bl = np.arange(x.shape[0])[:, None], np.arange(x.shape[1])[None, :]
    xb_i = xb[bl[0], bl[1], z]
    off = 1.0 - one_hot_batch(z, n)
    ratio = xb / xb_i[..., None]
    k_of_ratio = ratio * (np.log(ratio) - 1.0)
    xtheta = ad.exp(rows)
    xbt = n * ad.mul(ad.constant(a), xtheta) + (1.0 - a)
    log_xbt = ad.log(xbt)
    log_xbt_i = ad.gather_last(log_xbt, z)
    log_score = log_xbt - ad.reshape(log_xbt_i, log_xbt_i.shape + (1,))
    score = ad.exp(log_score)
    inner = score - ad.mul(ad.constant(ratio), log_score) + k_of_ratio
    per_pos = ad.nsum(ad.mul(ad.constant(off), inner), axis=-1)
    integrand = ad.mul(ad.constant(rate), per_pos)
    return width * ad.nmean(ad.nsum(integrand, axis=1))


def _mdlm_batch_node(rows, x, z, t, schedule, mask_index) -> ad.Node:
    width = schedule.t_max - schedule.t_min
    a = schedule.alpha(t)[:, None]
    rate = -schedule.alpha_prime(t)[:, None] / (1.0 - a)
    weight = rate * (z == mask_index)
    logp_x = ad.gather_last(rows, x)
    per_ex = ad.nsum(ad.mul(ad.constant(weight), -logp_x), axis=1)
    return width * ad.nmean(per_ex)


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
