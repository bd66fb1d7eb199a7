"""Continuous-time Markov chain view of the same diffusion.

Verification-only module: production sampling goes through the
variational path (sampler.py); these rate matrices exist so the two
formulations can be cross-checked against each other. Convention:
entries[i, j] is the instantaneous rate of jumping from state i to
state j, so rows sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseSchedule

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RateMatrix:
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"rate matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite rate entry")
        off = m[~np.eye(m.shape[0], dtype=bool)]
        if off.size and off.min() < 0.0:
            raise ValueError(f"negative off-diagonal rate {off.min()}")
        worst = np.max(np.abs(m.sum(axis=1)))
        if worst > ROW_SUM_TOL * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"rows must sum to 0, worst {worst}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _with_diagonal(off: np.ndarray) -> RateMatrix:
    m = off.copy()
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix(m)


def uniform_rate(schedule: NoiseSchedule, t: float, n: int) -> RateMatrix:
    """Forward noising rate for the uniform prior:
    -alpha'/(N alpha) * (ones - N I)."""
    rate = -schedule.alpha_prime(t) / (n * schedule.alpha(t))
    return RateMatrix(rate * (np.ones((n, n)) - n * np.eye(n)))


def reverse_rate(forward: RateMatrix, marginal_ratio) -> RateMatrix:
    """Time reversal: rate(i -> j) = forward rate(j -> i) scaled by the
    marginal ratio q_t(j)/q_t(i); marginal_ratio(target, current)."""
    n = forward.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = forward.entries[j, i] * float(marginal_ratio(j, i))
    return _with_diagonal(out)


def mixture_ratio(x_row: np.ndarray, t: float, schedule: NoiseSchedule):
    """Marginal-ratio function induced by a predicted clean-token row
    under the uniform prior: the ratio of time-t mixtures."""
    row = np.asarray(x_row, dtype=np.float64)
    n = row.shape[0]
    a = schedule.alpha(t)
    mix = n * a * row + (1.0 - a)

    def ratio(target: int, current: int) -> float:
        return mix[target] / mix[current]

    return ratio


def euler_step_distribution(z_t: int, rate: RateMatrix, dt: float) -> np.ndarray:
    """Cat(onehot(z_t) + dt * rate[z_t]); errors when dt pushes any entry
    out of [0, 1]."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    probs = np.eye(rate.n)[z_t] + dt * rate.entries[z_t]
    if probs.min() < 0.0 or probs.max() > 1.0 + 1e-12:
        raise ValueError(
            f"dt={dt} too large for rate row {rate.entries[z_t]}; "
            f"max stable dt is {max_stable_dt(rate):.3g}"
        )
    return probs


def max_stable_dt(rate: RateMatrix) -> float:
    worst = np.max(np.abs(np.diag(rate.entries)))
    return np.inf if worst == 0.0 else 1.0 / worst


def guided_rate_cfg(cond_rate: RateMatrix, uncond_rate: RateMatrix,
                    gamma: float) -> RateMatrix:
    """Off-diagonal geometric blend cond^gamma * uncond^(1-gamma),
    diagonal rebuilt. Endpoints are returned bit-exactly."""
    if gamma == 0.0:
        return uncond_rate
    if gamma == 1.0:
        return cond_rate
    c, u = cond_rate.entries, uncond_rate.entries
    if c.shape != u.shape:
        raise ValueError("rate shape mismatch")
    support = (c > 0.0) & (u > 0.0)
    if gamma > 1.0 and np.any((u == 0.0) & (c > 0.0) & ~np.eye(c.shape[0], dtype=bool)):
        raise ValueError("zero unconditional rate with gamma > 1 "
                         "(negative exponent) is undefined")
    off = np.where(
        support,
        np.exp(gamma * np.log(np.where(support, c, 1.0))
               + (1.0 - gamma) * np.log(np.where(support, u, 1.0))),
        0.0,
    )
    return _with_diagonal(off)


def guided_rate_cbg(rate: RateMatrix, classifier_ratio, gamma: float) -> RateMatrix:
    """Scale each off-diagonal rate by
    (p(y | candidate) / p(y | current))^gamma;
    classifier_ratio(candidate, current)."""
    if gamma == 0.0:
        return rate
    n = rate.n
    off = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                off[i, j] = rate.entries[i, j] * float(classifier_ratio(j, i)) ** gamma
    return _with_diagonal(off)
