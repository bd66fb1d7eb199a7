"""Desk-scale generation-quality and controllability metrics.

Sample quality is scored by base-2 Jensen-Shannon divergence between
k-mer histograms; controllability by agreement with the exact labeling
rule that generated the training corpus (no learned oracle at this
scale); novelty by set difference against the training data. Every
fixed-length sequence over the vocabulary is valid, so validity counts
all samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Dataset


def _seqs(corpus) -> np.ndarray:
    if isinstance(corpus, Dataset):
        return corpus.sequences
    arr = np.asarray(corpus, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a Dataset or a (count, L) token array")
    return arr


def _kmer_counts(seqs: np.ndarray, k: int) -> Counter:
    counts: Counter = Counter()
    for row in seqs:
        for start in range(seqs.shape[1] - k + 1):
            counts[tuple(row[start:start + k])] += 1
    return counts


def kmer_js(samples, reference, k: int) -> float:
    """Base-2 Jensen-Shannon divergence between k-mer histograms over the
    union support; 0 for identical corpora, 1 for disjoint support."""
    a, b = _seqs(samples), _seqs(reference)
    if k < 1 or k > a.shape[1] or k > b.shape[1]:
        raise ValueError(f"k={k} outside [1, L]")
    ca, cb = _kmer_counts(a, k), _kmer_counts(b, k)
    support = sorted(set(ca) | set(cb))
    p = np.array([ca.get(key, 0) for key in support], dtype=np.float64)
    q = np.array([cb.get(key, 0) for key in support], dtype=np.float64)
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)

    def half_kl(u: np.ndarray) -> float:
        live = u > 0
        return float(np.sum(u[live] * np.log2(u[live] / m[live])))

    return 0.5 * half_kl(p) + 0.5 * half_kl(q)


@dataclass(frozen=True)
class ControlReport:
    accuracy: float
    macro_recall: float
    confusion: np.ndarray  # [requested, rule-derived] counts


def control_accuracy(samples, labels_requested, rule_oracle,
                     num_classes: int) -> ControlReport:
    """Fraction of samples whose rule-derived label matches the request,
    plus per-class confusion counts and macro-averaged recall."""
    seqs = _seqs(samples)
    requested = np.asarray(labels_requested, dtype=np.int64)
    if seqs.shape[0] == 0:
        raise ValueError("no samples to score")
    if requested.shape != (seqs.shape[0],):
        raise ValueError(f"{requested.shape[0]} requests for "
                         f"{seqs.shape[0]} samples")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for row, want in zip(seqs, requested):
        got = int(rule_oracle(row))
        confusion[want, got] += 1
    hits = np.trace(confusion)
    support = confusion.sum(axis=1)
    present = support > 0
    recalls = np.diag(confusion)[present] / support[present]
    return ControlReport(
        accuracy=float(hits / seqs.shape[0]),
        macro_recall=float(recalls.mean()),
        confusion=confusion,
    )


def validity_novelty_property(samples, train_set) -> dict:
    """num_valid: every sample; num_novel: the distinct samples absent from
    the training set."""
    seqs = _seqs(samples)
    train = {tuple(row) for row in _seqs(train_set)}
    novel = {tuple(row) for row in seqs} - train
    return {"num_valid": seqs.shape[0], "num_novel": len(novel)}
