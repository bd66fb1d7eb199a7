"""The forward corruption process q and its exact posteriors.

The forward marginal interpolates between clean data and a prior pi:
q(z_t | x) = Cat(alpha_t x + (1 - alpha_t) pi). The reverse-time posterior
q(z_s | z_t, x) follows from Bayes over one interpolating transition.

Each computation is implemented once, batched over any leading shape:
``marginal_rows`` (the forward marginal), ``corrupt`` (a draw of z_t) and
the posterior, written as ``bayes_factors`` (the factors that do not
depend on x) and ``bayes_posterior`` (their application to one-hot or
substituted clean-token rows, arrays or autodiff nodes), which
``posterior_matrix`` chains. The sampler, the losses and the scalar
entry points ``marginal`` and ``posterior`` all go through them. The
uniform and absorbing closed forms are only references that the general
kernel is checked against, since the specializations are where sign and
normalization bugs creep in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Categorical, NoiseSchedule, Vocabulary


@dataclass(frozen=True)
class PriorSpec:
    """Noise prior: uniform 1/N, absorbing mask one-hot, or a general vector."""

    kind: str
    pi: Categorical
    mask_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "absorbing", "general"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "uniform":
            expected = np.full(self.pi.size, 1.0 / self.pi.size)
            if not np.allclose(self.pi.probs, expected, atol=1e-12):
                raise ValueError("uniform prior must have pi = 1/N everywhere")
        if self.kind == "absorbing":
            if self.mask_index is None:
                raise ValueError("absorbing prior requires a mask_index")
            expected = np.zeros(self.pi.size)
            expected[self.mask_index] = 1.0
            if not np.array_equal(self.pi.probs, expected):
                raise ValueError("absorbing prior must be one-hot at mask_index")

    @classmethod
    def uniform(cls, n: int) -> "PriorSpec":
        return cls("uniform", Categorical.uniform(n))

    @classmethod
    def absorbing(cls, vocab: Vocabulary) -> "PriorSpec":
        if vocab.mask_index is None:
            raise ValueError("absorbing prior needs a vocabulary with a mask token")
        return cls(
            "absorbing",
            Categorical.one_hot(vocab.mask_index, vocab.size),
            mask_index=vocab.mask_index,
        )

    @classmethod
    def general(cls, pi: Categorical) -> "PriorSpec":
        return cls("general", pi)

    @property
    def size(self) -> int:
        return self.pi.size

    @classmethod
    def for_vocab(cls, vocab: Vocabulary) -> "PriorSpec":
        if vocab.is_absorbing:
            return cls.absorbing(vocab)
        return cls.uniform(vocab.size)


def _per_row(value, ndim: int):
    """A schedule value shared by every row (a float, returned as is), or
    one value per leading row of an ndim-dimensional array, shaped to
    broadcast against it."""
    if isinstance(value, float):
        return value
    return value.reshape(value.shape + (1,) * (ndim - value.ndim))


def marginal_rows(
    x, t: float, prior: PriorSpec, schedule: NoiseSchedule
) -> np.ndarray:
    """q(z_t | x) = alpha_t onehot(x) + (1 - alpha_t) pi for integer tokens
    x of any shape: (..., N) rows."""
    x = np.asarray(x, dtype=np.int64)
    n = prior.size
    a_t = schedule.alpha(t)
    rows = np.tile((1.0 - a_t) * prior.pi.probs, x.shape + (1,))
    rows.reshape(-1, n)[np.arange(x.size), x.reshape(-1)] += a_t
    return rows


def marginal(
    x: int, t: float, prior: PriorSpec, schedule: NoiseSchedule
) -> Categorical:
    """q(z_t | x) for one token."""
    return Categorical(marginal_rows(x, t, prior, schedule))


def corrupt(
    x, t, prior: PriorSpec, schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw z_t ~ q(z_t | x) for every token of x, positions independent.

    ``t`` is shared or one value per leading row of x. The draw order is
    fixed: one uniform per token (keep x when below alpha_t), then one
    prior token per token, whether it is used or not.
    """
    x = np.asarray(x, dtype=np.int64)
    keep = rng.random(x.shape) < _per_row(schedule.alpha(t), x.ndim)
    noise = rng.choice(prior.size, size=x.shape, p=prior.pi.probs)
    return np.where(keep, x, noise)


def bayes_factors(z, t, s, prior: PriorSpec, schedule: NoiseSchedule):
    """The factors of q(z_s | z_t = z, x) that do not depend on x, for
    latents z of any shape and t, s shared or one per leading row.

    Returns (bridge, a_s, a_t, pi_z, pi): the (..., N) bridge rows
    q(z_t = z | z_s = j) = a_ts 1[j=z] + (1 - a_ts) pi[z], then alpha at s,
    alpha at t and pi[z], each shaped (..., 1) to broadcast against rows,
    and the prior vector pi.
    """
    z = np.asarray(z, dtype=np.int64)
    pi = prior.pi.probs
    n = pi.shape[0]
    a_s = _per_row(schedule.alpha(s), z.ndim + 1)
    a_t = _per_row(schedule.alpha(t), z.ndim + 1)
    a_ts = _per_row(schedule.alpha_ratio(t, s), z.ndim + 1)
    pi_z = pi[z][..., None]
    off = (1.0 - a_ts) * pi_z
    bridge = np.repeat(off, n, axis=-1)
    bridge.reshape(-1, n)[np.arange(z.size), z.reshape(-1)] = (
        off + a_ts).reshape(-1)
    return bridge, a_s, a_t, pi_z, pi


def bayes_posterior(factors, z, x_rows, x_at_z=None):
    """Bayes over one interpolating transition, for clean-token rows x
    (one-hot, or any distribution substituted for it):

        q(z_s = j | z_t = z, x) = bridge[j] (a_s x[j] + (1 - a_s) pi[j])
                                  / (a_t x[z] + (1 - a_t) pi[z]).

    ``factors`` come from ``bayes_factors`` for the latents z. ``x_at_z``,
    the rows' entries at z shaped (..., 1), is read from x_rows when not
    given. Only arithmetic operators touch x_rows, so an autodiff Node
    works too (passing its own gather); plain arrays raise ValueError
    where the latent has zero mass.
    """
    bridge, a_s, a_t, pi_z, pi = factors
    if x_at_z is None:
        z = np.asarray(z, dtype=np.int64)
        x_at_z = x_rows.reshape(-1, pi.shape[0])[
            np.arange(z.size), z.reshape(-1)].reshape(z.shape + (1,))
    den = a_t * x_at_z + (1.0 - a_t) * pi_z
    if isinstance(den, np.ndarray) and (den <= 0).any():
        bad = tuple(int(i) for i in np.argwhere(den <= 0)[0][:-1])
        raise ValueError(f"latent {np.asarray(z)[bad]} at position {bad} has "
                         f"probability zero under the clean-token rows")
    return bridge * (a_s * x_rows + (1.0 - a_s) * pi) / den


def posterior_matrix(
    z,
    x_rows: np.ndarray,
    t,
    s,
    prior: PriorSpec,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """The posterior q(z_s | z_t = z, x) over a batch of latents.

    Latents z of any leading shape (a scalar included) with clean-token
    rows x_rows of shape (..., N) give (..., N) posterior rows. Each row of
    x_rows is a one-hot x (the true posterior) or any distribution over
    clean tokens (the x-substituted reverse distribution of the sampler
    and of the NELBO's model term). ``t`` and ``s`` are shared or one value
    per leading row.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.shape[-1:] != (prior.size,):
        raise ValueError(f"x_rows shape {x_rows.shape} does not match "
                         f"N={prior.size}")
    return bayes_posterior(bayes_factors(z, t, s, prior, schedule), z, x_rows)


def posterior(
    z_t: int, x: int, t: float, s: float, prior: PriorSpec,
    schedule: NoiseSchedule,
) -> Categorical:
    """Exact posterior q(z_s | z_t, x) for any prior, s <= t."""
    return Categorical(posterior_matrix(
        z_t, Categorical.one_hot(x, prior.size).probs, t, s, prior, schedule))


def posterior_uniform(
    z_t: int, x: int, t: float, s: float, n: int, schedule: NoiseSchedule
) -> Categorical:
    """Closed-form uniform-prior posterior (fast path).

    probs[j] = [N a_t 1[j=i=x] + (a_ts - a_t) 1[j=i] + (a_s - a_t) 1[j=x]
                + (1-a_ts)(1-a_s)/N] / (N a_t 1[i=x] + 1 - a_t)
    """
    a_s = schedule.alpha(s)
    a_t = schedule.alpha(t)
    a_ts = schedule.alpha_ratio(t, s)
    vec = np.full(n, (1.0 - a_ts) * (1.0 - a_s) / n)
    vec[z_t] += a_ts - a_t
    vec[x] += a_s - a_t
    if z_t == x:
        vec[x] += n * a_t
    den = n * a_t * (1.0 if z_t == x else 0.0) + 1.0 - a_t
    return Categorical(vec / den)


def posterior_absorbing(
    z_t: int, x: int, t: float, s: float, vocab: Vocabulary,
    schedule: NoiseSchedule,
) -> Categorical:
    """Absorbing-prior posterior: carry-over for unmasked z_t, otherwise
    unmask to x with probability (a_s - a_t) / (1 - a_t)."""
    mask = vocab.mask_index
    if mask is None:
        raise ValueError("absorbing posterior needs a mask token")
    if z_t != mask:
        # Unmasked latents are fixed points of the reverse process.
        return Categorical.one_hot(z_t, vocab.size)
    a_s = schedule.alpha(s)
    a_t = schedule.alpha(t)
    vec = np.zeros(vocab.size)
    vec[x] = (a_s - a_t) / (1.0 - a_t)
    vec[mask] += (1.0 - a_s) / (1.0 - a_t)
    return Categorical(vec)
