"""Tokenization, dataset IO, and synthetic corpora with known statistics.

Corpora are fixed-length (no padding token). Their ground truth is what
the caller holds: a Markov corpus follows the transition matrix passed
in, and labels follow ``rule_label``, the metrics module's control
oracle, so samples are scored against exact references, not estimates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Vocabulary, check_sequence, sample_rows

RULES = ("majority_token", "prefix_class")


@dataclass
class Dataset:
    sequences: np.ndarray                 # (count, L) int64
    labels: np.ndarray | None = None      # (count,) int64

    def __post_init__(self) -> None:
        self.sequences = np.asarray(self.sequences, dtype=np.int64)
        if self.sequences.ndim != 2 or self.sequences.shape[0] == 0:
            raise ValueError("sequences must be a nonempty (count, L) array")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.sequences.shape[0],):
                raise ValueError(
                    f"{self.labels.shape[0]} labels for "
                    f"{self.sequences.shape[0]} sequences"
                )

    @property
    def count(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


# ------------------------------------------------------------- tokenization

def tokenize(text: str, vocab: Vocabulary) -> np.ndarray:
    if len(text) == 0:
        raise ValueError("empty string (sequences have length >= 1)")
    index = {sym: i for i, sym in enumerate(vocab.symbols)}
    out = np.empty(len(text), dtype=np.int64)
    for pos, ch in enumerate(text):
        if ch not in index:
            raise ValueError(f"character {ch!r} at position {pos} "
                             f"is not in the vocabulary")
        out[pos] = index[ch]
    return out


def detokenize(seq, vocab: Vocabulary) -> str:
    seq = np.asarray(seq, dtype=np.int64)
    check_sequence(seq, vocab)
    return "".join(vocab.symbols[i] for i in seq)


# ----------------------------------------------------------------- file IO

def load_text_dataset(
    path, vocab: Vocabulary, length: int, labels_path=None,
    num_classes: int | None = None,
) -> Dataset:
    """One sequence per line, strict length; labels one integer per line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if len(line) != length:
                raise ValueError(f"{path}:{lineno}: length {len(line)}, "
                                 f"expected {length}")
            rows.append(tokenize(line, vocab))
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    labels = None
    if labels_path is not None:
        bound = 2 ** 63 if num_classes is None else num_classes
        labels = []
        with open(labels_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    labels.append(int(line.strip()))
                except ValueError:
                    raise ValueError(f"{labels_path}:{lineno}: not an integer")
                if not 0 <= labels[-1] < bound:
                    raise ValueError(f"{labels_path}:{lineno}: label out of "
                                     f"range [0, {bound})")
    return Dataset(np.stack(rows), labels)


def save_text_dataset(path, dataset: Dataset, vocab: Vocabulary,
                      labels_path=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in dataset.sequences:
            fh.write(detokenize(row, vocab) + "\n")
    if labels_path is not None:
        if dataset.labels is None:
            raise ValueError("dataset has no labels to save")
        with open(labels_path, "w", encoding="utf-8") as fh:
            for lab in dataset.labels:
                fh.write(f"{int(lab)}\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return Vocabulary(len(doc["symbols"]), mask_index=doc.get("mask_index"),
                      symbols="".join(doc["symbols"]))


# -------------------------------------------------------------- generators

def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, via the Cesaro
    average limit (handles periodic chains, e.g. permutations)."""
    p = np.asarray(transition, dtype=np.float64)
    n = p.shape[0]
    if p.shape != (n, n) or np.any(p < 0) \
            or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition must be a row-stochastic square matrix")
    # pi (P + P^2 + ... + P^m)/m converges; accelerate by squaring the
    # averaged kernel
    avg = 0.5 * (np.eye(n) + p)
    for _ in range(64):
        avg = avg @ avg
        avg /= avg.sum(axis=1, keepdims=True)
    pi = avg.mean(axis=0)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if np.max(np.abs(pi @ p - pi)) > 1e-8:
        raise ValueError("no stationary distribution found")
    return pi


def gen_markov_corpus(n: int, length: int, transition: np.ndarray,
                      count: int, seed: int) -> Dataset:
    """First token from the stationary distribution, then per-row draws
    from ``transition``."""
    transition = np.asarray(transition, dtype=np.float64)
    if transition.shape != (n, n):
        raise ValueError(f"transition shape {transition.shape}, "
                         f"expected ({n}, {n})")
    pi = stationary_distribution(transition)
    rng = np.random.default_rng(seed)
    seqs = np.empty((count, length), dtype=np.int64)
    seqs[:, 0] = sample_rows(np.tile(pi, (count, 1)), rng)
    for pos in range(1, length):
        seqs[:, pos] = sample_rows(transition[seqs[:, pos - 1]], rng)
    return Dataset(seqs)


def rule_label(seq, rule: str, n: int, num_classes: int) -> int:
    """The exact labeling rule; doubles as the control oracle in metrics."""
    seq = np.asarray(seq, dtype=np.int64)
    if rule == "majority_token":
        if num_classes != n:
            raise ValueError("majority_token needs num_classes == n")
        return int(np.bincount(seq, minlength=n).argmax())  # ties -> smallest
    if rule == "prefix_class":
        return int(seq[0] * num_classes // n)
    raise ValueError(f"unknown rule {rule!r}")


def gen_labeled_corpus(n: int, length: int, count: int, rule: str,
                       seed: int) -> Dataset:
    """Uniform random sequences, each labeled by ``rule`` into n classes."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    rng = np.random.default_rng(seed)
    seqs = rng.integers(0, n, size=(count, length))
    return Dataset(seqs, [rule_label(s, rule, n, n) for s in seqs])
