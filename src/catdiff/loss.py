"""Training and evaluation objectives.

Each objective is one kernel batched over (B, L): ``_kl_terms`` (the
discrete-time KL), ``_udlm_rate`` (the paper's uniform-noise bound),
``_sedd_rate`` (its score-entropy form) and ``_mdlm_rate`` (absorbing).
``BOUNDS`` records the prior kinds each objective bounds; training and
``udlm_loss`` refuse any other. A kernel takes the predicted rows as
arrays or as autodiff Nodes, so training (``training_loss_node``),
evaluation (``nelbo_discrete``, ``udlm_loss``, ``mdlm_loss``, the
one-position ``udlm_integrand`` and ``sedd_form_nelbo``) and the oracles
in ``verify`` all run the same code. The denoiser is read only through
``rows_batch(z, t, condition)`` and its ``prior``. ``nelbo_discrete``
scores one sequence or a batch: mc mode evaluates every sampled latent in
one denoiser call, exact mode one call per grid time over the enumerated
latents the batch's sequences reach (one per sequence under per-sequence
conditions). ``diffusion_kl`` is the independent one-position reference
for ``_kl_terms``.

The forward process is not re-derived here: z_t comes from
``forward.corrupt``, marginals from ``forward.marginal_rows``, and every
posterior, of the one-hot x and of the predicted rows alike, from
``forward.posterior_matrix``.

Conventions, resolved once here:

* Discrete-time grid: t_i = i/T for i = 0..T; the NELBO is the sum of the
  T diffusion KL terms. Its reconstruction term is 0 (at t = 0, z_0 = x and
  the decode copies it), and so is its prior term KL[q(z_1 | x) || pi]: the
  one schedule, log-linear, has alpha(1) = 0, so q(z_1 | x) = pi. Neither
  is computed; a schedule with alpha(1) > 0 would need the prior term.
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
from .core import Categorical, NoiseSchedule, check_token_range
from .forward import (PriorSpec, corrupt, corrupt_from_uniforms,
                      marginal_rows, posterior_bridge, posterior_matrix)
from .model import one_hot_batch

_SUPPORT_EPS = 1e-300  # posterior entries below this count as off-support

# Exact-mode NELBO: the most latents enumerated per sequence, T * N^L over
# the grid. Each grid time holds its N^L latents and their rows in memory
# at once, so this is also the memory bound.
EXACT_LATENT_BUDGET = 10 ** 5

# The prior kinds each objective bounds: the discrete-time KL holds for
# any forward process, the UDLM rate and its score-entropy form are
# derived for uniform noise and the MDLM rate for absorbing noise.
BOUNDS = {"nelbo_discrete": ("uniform", "absorbing"),
          "udlm_continuous": ("uniform",), "mdlm_continuous": ("absorbing",),
          "sedd_form": ("uniform",)}
OBJECTIVES = tuple(BOUNDS)


@dataclass(frozen=True)
class LossSpec:
    objective: str
    T: int | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, "
                             f"got {self.objective!r}")
        if self.objective == "nelbo_discrete":
            if self.T is None or self.T < 1:
                raise ValueError("objective nelbo_discrete needs T >= 1")
        elif self.T is not None:
            raise ValueError(f"objective {self.objective!r} does not take T")


def _check_bounds(objective: str, kind: str) -> None:
    """Raise ValueError unless ``objective`` bounds a ``kind`` prior."""
    if kind not in BOUNDS[objective]:
        raise ValueError(f"objective {objective!r} bounds a "
                         f"{' or '.join(BOUNDS[objective])} prior, not {kind}")


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
    check_token_range(x, prior.size)
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        check_exact_budget(T, prior.size, x.shape[1])
    elif rng is None:
        raise ValueError("mc mode needs an rng")
    per_row = np.ndim(condition) == 1
    total = np.zeros(x.shape[0])
    if mode == "exact":
        latents = np.array(
            list(itertools.product(range(prior.size), repeat=x.shape[1])),
            dtype=np.int64).reshape(-1, x.shape[1])
        # a shared condition gives every sequence the same rows at a
        # latent, so the batch shares one call per grid time
        groups = (np.arange(x.shape[0])[:, None] if per_row
                  else [np.arange(x.shape[0])])
        for i in range(1, T + 1):
            for group in groups:
                cond = condition[group[0]] if per_row else condition
                total[group] += _exact_kl_terms(
                    x[group], latents, denoiser, i / T, (i - 1) / T, prior,
                    schedule, cond)
    else:
        cond = ([c for c in condition for _ in range(mc_samples)] if per_row
                else condition)
        total += _mc_kl_terms(x, denoiser, T, prior, schedule, rng,
                              mc_samples, cond)
    return float(total[0]) if single else total


def _mc_kl_terms(x, denoiser, T, prior, schedule, rng, mc_samples,
                 condition) -> np.ndarray:
    """Mean over mc_samples draws of T * KL at a sampled grid rung, per
    sequence. All draws come first, in sequence-then-sample order, each
    a rung and then ``corrupt``'s two uniforms per token; then one
    corruption, one denoiser call and one KL evaluation cover every
    draw."""
    num, length = x.shape
    grid = np.empty(num * mc_samples, dtype=np.int64)
    keep_u = np.empty((num * mc_samples, length))
    noise_u = np.empty((num * mc_samples, length))
    for k in range(num * mc_samples):
        grid[k] = rng.integers(1, T + 1)
        rng.random(out=keep_u[k])
        rng.random(out=noise_u[k])
    t, s = grid / T, (grid - 1) / T
    x_rep = np.repeat(x, mc_samples, axis=0)
    z = corrupt_from_uniforms(x_rep, t, keep_u, noise_u, prior, schedule)
    rows = denoiser.rows_batch(z, t, condition)
    kls = _kl_terms(rows, x_rep, z, t, s, prior, schedule).reshape(
        num, mc_samples)
    acc = np.zeros(num)
    for m in range(mc_samples):
        acc += T * kls[:, m]
    return acc / mc_samples


def _exact_kl_terms(x, latents, denoiser, t, s, prior, schedule,
                    condition) -> np.ndarray:
    """E_{q(z_t | x_b)} sum_l KL_l for each (L,) sequence x_b of x, over
    the enumerated (N^L, L) latents: one denoiser call over every latent
    that some sequence's forward marginal can reach, and each sequence's
    KL terms on the rows of the latents its own marginal reaches. Past
    the first sequence the weights are computed again in the second
    pass, so at most two sequences' (N^L,) weights are held at once."""
    if not len(x):
        return np.zeros(0)
    at = np.arange(x.shape[1])[None, :]

    def weights(x_seq):
        return np.prod(marginal_rows(x_seq, t, prior, schedule)[at, latents],
                       axis=1)

    first = weights(x[0])
    live = first > 0
    for x_seq in x[1:]:
        live |= weights(x_seq) > 0
    reached = latents[live]
    rows = denoiser.rows_batch(reached, t, condition)
    out = np.empty(x.shape[0])
    for b, x_seq in enumerate(x):
        w = (weights(x_seq) if b else first)[live]
        own = w > 0
        if own.all():  # a view, not a copy, when every row is the sequence's
            own = slice(None)
        kls = _kl_terms(rows[own], x_seq, reached[own], t, s, prior,
                        schedule)
        out[b] = w[own] @ kls
    return out


def _kl_terms(xtheta, x, z, t, s, prior: PriorSpec, schedule: NoiseSchedule):
    """KL[q(z_s|z_t,x) || p_theta(z_s|z_t)] summed over positions, for a
    stack of latents z (S, L) with predicted clean-token rows xtheta
    (S, L, N), as arrays or autodiff Nodes -> (S,). The clean tokens x and
    the times t, s are shared by the stack or given one per latent. q is
    the posterior of the one-hot x and p that of xtheta. The sum is the
    entropy minus the cross term; p is padded to 1 off q's support, so
    neither value nor gradient leaks from there, and a zero p where q has
    mass gives inf. q and p share the x-free bridge."""
    z = np.asarray(z, dtype=np.int64)
    bridge = posterior_bridge(z, t, s, prior, schedule)
    q = posterior_matrix(z, one_hot_batch(np.broadcast_to(x, z.shape),
                                          prior.size), t, s, prior, schedule,
                         bridge)
    p = posterior_matrix(z, xtheta, t, s, prior, schedule, bridge)
    support = (q > _SUPPORT_EPS).astype(np.float64)
    q_masked = q * support
    entropy = np.sum(q_masked * np.log(np.where(support > 0, q, 1.0)),
                     axis=(1, 2))
    with np.errstate(divide="ignore"):
        log_p = ad.log(p + (1.0 - support))
    return entropy - ad.nsum(ad.nsum(q_masked * log_p, axis=-1), axis=-1)


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
    prior = denoiser.prior
    _check_bounds("udlm_continuous", prior.kind)
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
    """One minibatch loss as a scalar Node; draws (t, z_t) internally.
    An objective that does not bound the denoiser's prior kind is refused
    (ValueError) before any draw. An absorbing denoiser's rows come for
    its masked positions alone (``model.masked_rows``): each is scored as
    a sequence of one and its term goes back to its place; the KL and the
    MDLM rate are 0 at a carried-over unmasked position."""
    _check_bounds(spec.objective, params.kind)
    schedule, prior, shape = params.schedule, params.prior, x.shape
    if spec.objective == "nelbo_discrete":
        i = rng.integers(1, spec.T + 1, size=shape[0])
        t, s, scale = i / spec.T, (i - 1) / spec.T, float(spec.T)
    else:
        t, s = schedule.draw_t(rng, size=shape[0]), None
        scale = schedule.t_max - schedule.t_min
    z = corrupt(x, t, prior, schedule, rng)
    # looked up on the module, so a wrapper installed there sees it
    rows = model_mod.denoiser_logprob_rows(field_nodes, params, z, t,
                                           cond_idx)
    live = model_mod.masked_rows(params, z)
    if live is not None:
        one = (len(live), 1)
        x, z = (a.reshape(-1)[live].reshape(one) for a in (x, z))
        t, s = (None if a is None else np.repeat(a, shape[1])[live]
                for a in (t, s))
        rows = ad.reshape(rows, one + (prior.size,))
    if spec.objective == "nelbo_discrete":
        terms = _kl_terms(ad.exp(rows), x, z, t, s, prior, schedule)
    elif spec.objective == "mdlm_continuous":
        terms = _mdlm_rate(rows, x, z, t, schedule, params.vocab.mask_index)
    else:
        kernel = (_udlm_rate if spec.objective == "udlm_continuous"
                  else _sedd_rate)
        terms = kernel(ad.exp(rows), x, z, t, schedule)
    if live is not None:
        terms = ad.scatter(terms, live, shape)
    return scale * ad.nmean(ad.nsum(ad.reshape(terms, (shape[0], -1)),
                                    axis=1))
