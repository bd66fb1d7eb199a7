"""Ancestral reverse-process generation for uniform and absorbing models.

A run draws z at t = 1 from the prior, walks the uniform grid
t = T/T, (T-1)/T, ..., 1/T with guided reverse steps, and decodes the
final latent with one more posterior step to time zero. Classifier-free
guidance blends the clean-token rows before they enter the posterior;
classifier-based guidance tempers the posterior rows themselves.

The model is read only through the denoiser protocol: its ``prior``
gives the t = 1 draw and the posterior, its ``schedule`` the posterior's
alphas, and ``rows_batch(z, t, condition)`` the clean-token rows of the
whole (B, L) batch in one call per step (two under classifier-free
guidance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Vocabulary, sample_rows
from .forward import PriorSpec, posterior_matrix
from .guidance import GuidanceConfig, cbg_exact, cbg_taylor, cfg_combine

DECODES = ("sample", "argmax")


@dataclass(frozen=True)
class SampleRequest:
    num_sequences: int
    length: int
    T: int
    guidance: GuidanceConfig = GuidanceConfig()
    seed: int = 0
    final_decode: str = "sample"

    def __post_init__(self) -> None:
        if self.num_sequences < 1 or self.length < 1 or self.T < 1:
            raise ValueError("num_sequences, length, and T must be >= 1")
        if self.final_decode not in DECODES:
            raise ValueError(f"final_decode must be one of {DECODES}")


def prior_draw(prior: PriorSpec, length: int, rng: np.random.Generator):
    """t = 1 draw: i.i.d. prior tokens (all-mask for absorbing)."""
    return _prior_batch(prior, 1, length, rng)[0]


def _prior_batch(prior: PriorSpec, num: int, length: int,
                 rng: np.random.Generator) -> np.ndarray:
    if prior.kind == "absorbing":
        return np.full((num, length), prior.mask_index, dtype=np.int64)
    rows = np.tile(prior.pi.probs, (num * length, 1))
    return sample_rows(rows, rng).reshape(num, length)


def _guided_x_rows(denoiser, z, t, config: GuidanceConfig) -> np.ndarray:
    if config.mode == "cfg":
        cond = denoiser.rows_batch(z, t, config.target_class)
        uncond = denoiser.rows_batch(z, t, None)
        return cfg_combine(cond, uncond, config.gamma)
    condition = config.target_class if config.mode == "none" else None
    return denoiser.rows_batch(z, t, condition)


def _apply_cbg(post, z, t_clf, config, classifier) -> np.ndarray:
    """Classifier-based tempering of the (B, L, N) posterior rows of the
    (B, L) latents: one guidance call for the whole batch, so one
    gradient call (Taylor) or L*N classifier calls (exact) per step."""
    transform = cbg_exact if config.mode == "cbg_exact" else cbg_taylor
    return transform(classifier, z, t_clf, post, config.target_class,
                     config.gamma)


def _step_batch(z, t, s, denoiser, config, rng, classifier, prior,
                schedule) -> np.ndarray:
    x_rows = _guided_x_rows(denoiser, z, t, config)
    post = posterior_matrix(z, x_rows, t, s, prior, schedule)
    if config.needs_classifier:
        t_clf = s if config.classifier_time == "s" else t
        post = _apply_cbg(post, z, t_clf, config, classifier)
    return sample_rows(post, rng)


def reverse_step(z_t_seq, t: float, s: float, denoiser,
                 guidance: GuidanceConfig, rng: np.random.Generator,
                 classifier=None) -> np.ndarray:
    """One guided ancestral step z_t -> z_s, every position sampled
    independently from its substituted posterior."""
    if not s < t:
        raise ValueError(f"need s < t, got s={s}, t={t}")
    if guidance.needs_classifier and classifier is None:
        raise ValueError(f"guidance mode {guidance.mode!r} needs a classifier")
    z = np.asarray(z_t_seq, dtype=np.int64)
    return _step_batch(z[None, :], float(t), float(s), denoiser, guidance,
                       rng, classifier, denoiser.prior, denoiser.schedule)[0]


def _decode_batch(z, t, denoiser, config, rng, classifier, prior, schedule,
                  final_decode) -> np.ndarray:
    """Final posterior step t -> 0. The time-zero posterior reduces to the
    bridge times the guided x-row, so absorbing models keep every unmasked
    token and fill residual masks from x, while uniform models copy z with
    probability -> 1 as T grows."""
    x_rows = _guided_x_rows(denoiser, z, t, config)
    post = posterior_matrix(z, x_rows, t, 0.0, prior, schedule)
    if config.needs_classifier:
        t_clf = 0.0 if config.classifier_time == "s" else t
        post = _apply_cbg(post, z, t_clf, config, classifier)
    if final_decode == "argmax":
        return np.argmax(post, axis=-1)
    return sample_rows(post, rng)


def _count_edits(old, new, prior) -> np.ndarray:
    changed = new != old
    if prior.kind == "absorbing":
        changed &= old != prior.mask_index  # unmasking is not an edit
    return changed.sum(axis=1)


def generate(request: SampleRequest, model, classifier=None):
    """Sample request.num_sequences sequences; returns (tokens array of
    shape (num, L), per-sequence diagnostics). Deterministic per seed."""
    config = request.guidance
    if config.needs_classifier and classifier is None:
        raise ValueError(f"guidance mode {config.mode!r} needs a classifier")
    prior = model.prior
    schedule = model.schedule
    rng = np.random.default_rng(request.seed)
    z = _prior_batch(prior, request.num_sequences, request.length, rng)
    edits = np.zeros(request.num_sequences, dtype=np.int64)
    for i in range(request.T, 1, -1):
        stepped = _step_batch(z, i / request.T, (i - 1) / request.T, model,
                              config, rng, classifier, prior, schedule)
        edits += _count_edits(z, stepped, prior)
        z = stepped
    decoded = _decode_batch(z, 1.0 / request.T, model, config, rng,
                            classifier, prior, schedule, request.final_decode)
    edits += _count_edits(z, decoded, prior)
    diagnostics = [
        {"steps": request.T, "edits": int(e)} for e in edits
    ]
    return decoded, diagnostics


def write_samples(path, sequences, vocab: Vocabulary,
                  request: SampleRequest | None = None) -> None:
    """One detokenized sequence per line; when the request is given, a
    sidecar JSON records how to reproduce the batch."""
    from .data import detokenize

    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(sequences, dtype=np.int64):
            fh.write(detokenize(row, vocab) + "\n")
    if request is not None:
        meta = {
            "seed": request.seed,
            "T": request.T,
            "gamma": request.guidance.gamma,
            "mode": request.guidance.mode,
            "target_class": request.guidance.target_class,
            "num_sequences": request.num_sequences,
            "final_decode": request.final_decode,
        }
        with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
