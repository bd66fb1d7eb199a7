"""Guidance transforms for reverse-process token distributions.

Three mechanisms, all operating on per-position categorical rows:

* classifier-free: geometric interpolation between conditional and
  unconditional predictions, applied to the clean-token probabilities
  before they enter the posterior.
* classifier-based (exact): tempering of the reverse distribution by
  p(y | single-token edit)^gamma, normalized over the N candidate
  tokens at each position; costs one classifier call per candidate.
* classifier-based (Taylor): same transform, but the N candidate
  log-probs per position are linearized around the current latent
  using one gradient with respect to the relaxed one-hot input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_row_totals

MODES = ("none", "cfg", "cbg_exact", "cbg_taylor")


@dataclass(frozen=True)
class GuidanceConfig:
    mode: str = "none"
    gamma: float = 1.0
    target_class: int | None = None
    # which time endpoint the classifier sees for candidate latents; the
    # candidates are z_s hypotheses, so "s" is the default
    classifier_time: str = "s"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.classifier_time not in ("s", "t"):
            raise ValueError(f"classifier_time must be 's' or 't'")
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
    check_row_totals(cond.sum(axis=-1))
    check_row_totals(uncond.sum(axis=-1))
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


def cbg_exact(classifier, z_t_seq, t_s: float, denoiser_rows: np.ndarray,
              y: int, gamma: float) -> np.ndarray:
    """Temper each position's reverse row by p(y | single-token edit)^gamma.

    Candidate v at position l is the current latent with that one token
    replaced; the classifier is evaluated on every candidate (exactly
    L*N calls -- the cost contract holds even at gamma = 0).
    """
    z = np.asarray(z_t_seq, dtype=np.int64)
    rows = np.asarray(denoiser_rows, dtype=np.float64)
    length, n = rows.shape
    log_phi = np.empty((length, n))
    for pos in range(length):
        cand = z.copy()
        for v in range(n):
            cand[pos] = v
            log_phi[pos, v] = float(classifier.log_probs(cand, t_s)[y])
        cand[pos] = z[pos]
    return _temper(rows, log_phi, gamma)


def cbg_taylor(classifier, z_t_seq, t_s: float, denoiser_rows: np.ndarray,
               y: int, gamma: float) -> np.ndarray:
    """Like cbg_exact, with candidate log-probs linearized around z_t.

    log p(y | edit v at l) ~ log p(y | z_t) + (e_v - e_{z_l}) . grad_l,
    one forward/backward pass total instead of L*N forward passes.
    """
    z = np.asarray(z_t_seq, dtype=np.int64)
    rows = np.asarray(denoiser_rows, dtype=np.float64)
    logp0, grad = classifier.grad_log_prob(z, t_s, y)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != rows.shape:
        raise ValueError(f"gradient shape {grad.shape} != rows {rows.shape}")
    at_current = np.take_along_axis(grad, z[:, None], axis=1)
    log_phi = float(logp0) + grad - at_current
    return _temper(rows, log_phi, gamma)


def _temper(rows: np.ndarray, log_phi: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 0.0:
        totals = rows.sum(axis=-1, keepdims=True)
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
    peak = np.max(logits, axis=-1, keepdims=True)
    if np.any(np.isneginf(peak)):
        raise ValueError("a position lost all probability mass under guidance")
    weights = np.exp(logits - peak)
    return weights / weights.sum(axis=-1, keepdims=True)
