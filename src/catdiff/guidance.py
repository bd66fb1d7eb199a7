"""Guidance transforms for reverse-process token distributions.

Three mechanisms, all operating on per-position categorical rows:

* classifier-free: geometric interpolation between conditional and
  unconditional predictions, applied to the clean-token probabilities
  before they enter the posterior. The sampler takes the gamma = 1
  endpoint itself, by asking the denoiser for the conditional rows
  alone, and calls ``cfg_combine`` at every other gamma.
* classifier-based (exact): tempering of the reverse distribution by
  p(y | single-token edit)^gamma, normalized over the N candidate
  tokens at each position; costs one classifier call per (position,
  token) slot, L*N in all, each over that slot's candidate for every
  sequence of the batch.
* classifier-based (Taylor): same transform, but the N candidate
  log-probs per position are linearized around the current latent
  using one gradient with respect to the relaxed one-hot input; one
  gradient call for the whole batch.

Both classifier-based transforms take one latent (L,) with its (L, N)
rows, or a batch (B, L) with (B, L, N) rows, through the same code. The
classifier protocol takes either shape, ``log_probs(z, t)`` giving (K,)
or (B, K) and ``grad_log_prob(z, t, y)`` (log p, gradient) per sequence;
``sampler.generate`` also reads its ``num_classes``, ``vocab`` (of the
denoiser's size) and ``length`` (the request's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import check_row_totals, row_reduce

MODES = ("none", "cfg", "cbg_exact", "cbg_taylor")


@dataclass(frozen=True)
class GuidanceConfig:
    mode: str = "none"
    gamma: float = 1.0
    target_class: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.mode in ("cfg", "cbg_exact", "cbg_taylor") \
                and self.target_class is None:
            raise ValueError(f"mode {self.mode!r} needs a target_class")

    @property
    def needs_classifier(self) -> bool:
        return self.mode in ("cbg_exact", "cbg_taylor")


def cfg_combine(cond_rows: np.ndarray, uncond_rows: np.ndarray,
                gamma: float) -> np.ndarray:
    """normalize(p_cond^gamma * p_uncond^(1-gamma)) along the last axis.

    Log-space with max-subtraction; tokens at zero probability in either
    input get an -inf logit (mass 0), never NaN. The gamma = 0 and
    gamma = 1 endpoints return the corresponding input bit-exactly.
    Raises FloatingPointError when an input row has a non-finite entry or
    total mass <= 0.
    """
    cond = np.asarray(cond_rows, dtype=np.float64)
    uncond = np.asarray(uncond_rows, dtype=np.float64)
    if cond.shape != uncond.shape:
        raise ValueError(f"shape mismatch {cond.shape} vs {uncond.shape}")
    check_row_totals(row_reduce(cond, np.add))
    check_row_totals(row_reduce(uncond, np.add))
    if gamma == 0.0:
        return uncond.copy()
    if gamma == 1.0:
        return cond.copy()
    support = (cond > 0.0) & (uncond > 0.0)
    logits = np.where(
        support,
        gamma * np.log(np.where(support, cond, 1.0))
        + (1.0 - gamma) * np.log(np.where(support, uncond, 1.0)),
        -np.inf,
    )
    return _normalize_logits(logits)


def cbg_exact(classifier, z_t_seq, t_s: float, rows: np.ndarray,
              y: int, gamma: float) -> np.ndarray:
    """Temper each position's reverse row by p(y | single-token edit)^gamma.

    Candidate v at position l is the current latent with that one token
    replaced. Exactly L*N classifier calls, one per (l, v) slot over
    every sequence's candidate at once; the cost contract holds even at
    gamma = 0. ``z_t_seq`` is (L,) or (B, L), rows (L, N) or (B, L, N).
    """
    z = np.asarray(z_t_seq, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    length, n = rows.shape[-2:]
    log_phi = np.empty(rows.shape)
    cand = z.copy()
    for pos in range(length):
        for v in range(n):
            cand[..., pos] = v
            log_phi[..., pos, v] = classifier.log_probs(cand, t_s)[..., y]
        cand[..., pos] = z[..., pos]
    return _temper(rows, log_phi, gamma)


def cbg_taylor(classifier, z_t_seq, t_s: float, rows: np.ndarray,
               y: int, gamma: float) -> np.ndarray:
    """Like cbg_exact, with candidate log-probs linearized around z_t.

    log p(y | edit v at l) ~ log p(y | z_t) + (e_v - e_{z_l}) . grad_l,
    one gradient call for the whole batch instead of L*N forward calls.
    """
    z = np.asarray(z_t_seq, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    logp0, grad = classifier.grad_log_prob(z, t_s, y)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != rows.shape:
        raise ValueError(f"gradient shape {grad.shape} != rows {rows.shape}")
    at_current = ad.gather_last(grad, z)[..., None]
    log_phi = np.asarray(logp0, dtype=np.float64)[..., None, None] \
        + grad - at_current
    return _temper(rows, log_phi, gamma)


def _temper(rows: np.ndarray, log_phi: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 0.0:
        totals = row_reduce(rows, np.add)[..., None]
        if np.any(totals <= 0):
            raise ValueError("cannot normalize an all-zero row")
        return rows / totals
    support = rows > 0.0
    logits = np.where(
        support, gamma * log_phi + np.log(np.where(support, rows, 1.0)),
        -np.inf,
    )
    return _normalize_logits(logits)


def _normalize_logits(logits: np.ndarray) -> np.ndarray:
    peak = row_reduce(logits, np.maximum)[..., None]
    if np.any(np.isneginf(peak)):
        raise ValueError("a position lost all probability mass under guidance")
    weights = np.exp(logits - peak)
    return weights / row_reduce(weights, np.add)[..., None]
