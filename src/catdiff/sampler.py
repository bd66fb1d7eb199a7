"""Ancestral reverse-process generation for uniform and absorbing models.

A run draws z at t = 1 from the prior and takes one guided reverse step
(``_step_batch``) from each grid time t = i/T to s = (i-1)/T, i = T..1.
The last step, to s = 0, decodes: the time-zero posterior reduces to the
bridge times the guided x-row, so absorbing models keep every unmasked
token and fill the remaining masks from x, while uniform models copy z
with probability -> 1 as T grows; it alone may take the argmax instead of
a draw. Classifier-free guidance blends the clean-token rows before they
enter the posterior; classifier-based guidance tempers the posterior rows
themselves, with the classifier read at s.

The model is read only through the denoiser protocol: its ``prior``
gives the t = 1 draw and the posterior, its ``schedule`` the posterior's
alphas, and ``rows_batch(z, t, condition)`` the clean-token rows of the
whole (B, L) batch in one call per step. Classifier-free guidance makes
that one call over the batch stacked on itself, with a per-example
condition (the label, then None), except at gamma = 1, where the guided
rows are the conditional rows alone.
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


def _prior_batch(prior: PriorSpec, num: int, length: int,
                 rng: np.random.Generator) -> np.ndarray:
    """t = 1 draw: i.i.d. prior tokens (all-mask for absorbing), (num, L)."""
    if prior.kind == "absorbing":
        return np.full((num, length), prior.mask_index, dtype=np.int64)
    rows = np.tile(prior.pi.probs, (num * length, 1))
    return sample_rows(rows, rng).reshape(num, length)


def _guided_x_rows(denoiser, z, t, config: GuidanceConfig) -> np.ndarray:
    """The step's clean-token rows from one ``rows_batch`` call. cfg at
    gamma = 1 is the conditional rows, ``cfg_combine``'s endpoint, so it
    asks for those alone, as mode none with a label does. At any other
    gamma one call over the batch stacked on itself gives the conditional
    rows (first half, labelled) and the unconditional ones (second half,
    None); gamma = 0 keeps the labelled half so a bad label still
    raises."""
    if config.mode == "cfg" and config.gamma != 1.0:
        batch = len(z)
        rows = denoiser.rows_batch(
            np.concatenate([z, z]), t,
            [config.target_class] * batch + [None] * batch)
        return cfg_combine(rows[:batch], rows[batch:], config.gamma)
    condition = None if config.needs_classifier else config.target_class
    return denoiser.rows_batch(z, t, condition)


def _step_batch(z, t, s, denoiser, config, rng, classifier, prior, schedule,
                decode: str = "sample") -> np.ndarray:
    """One guided reverse step t -> s over the (B, L) latents z, with one
    denoiser call under every guidance mode (``_guided_x_rows``). Under
    classifier-based guidance one guidance call tempers the whole batch's
    posterior rows, with the classifier read at s: one gradient call
    (Taylor) or L*N classifier calls (exact). ``decode`` "argmax" takes
    each row's mode instead of drawing from it."""
    x_rows = _guided_x_rows(denoiser, z, t, config)
    post = posterior_matrix(z, x_rows, t, s, prior, schedule)
    if config.needs_classifier:
        transform = cbg_exact if config.mode == "cbg_exact" else cbg_taylor
        post = transform(classifier, z, s, post, config.target_class,
                         config.gamma)
    if decode == "argmax":
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
    if (classifier is not None) != config.needs_classifier:
        raise ValueError(f"guidance mode {config.mode!r} "
                         f"{'needs a' if classifier is None else 'reads no'} "
                         f"classifier; only cbg_exact and cbg_taylor take one")
    if classifier is not None:
        if not 0 <= config.target_class < classifier.num_classes:
            raise ValueError(f"target_class {config.target_class} out of "
                             f"range [0, {classifier.num_classes})")
        got = (classifier.vocab.size, classifier.length)
        want = (model.prior.size, request.length)
        if got != want:
            raise ValueError(f"the classifier reads (N, L) = {got}, the "
                             f"denoiser {want}")
    prior = model.prior
    schedule = model.schedule
    rng = np.random.default_rng(request.seed)
    z = _prior_batch(prior, request.num_sequences, request.length, rng)
    edits = np.zeros(request.num_sequences, dtype=np.int64)
    for i in range(request.T, 0, -1):
        decode = request.final_decode if i == 1 else "sample"
        stepped = _step_batch(z, i / request.T, (i - 1) / request.T, model,
                              config, rng, classifier, prior, schedule, decode)
        edits += _count_edits(z, stepped, prior)
        z = stepped
    diagnostics = [
        {"steps": request.T, "edits": int(e)} for e in edits
    ]
    return z, diagnostics


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
