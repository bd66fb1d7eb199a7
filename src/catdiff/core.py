"""Vocabulary, categorical distributions, and the noise schedule.

Everything here is immutable after construction; the rest of the package
builds on these primitives. The schedule is fixed (alpha_t = 1 - t, the
one the paper's models run under), so ``NoiseSchedule`` has no settings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Construction rejects probability vectors whose sum is farther than this
# from 1; stored vectors are renormalized exactly so downstream code can
# rely on sum == 1 within 1e-12.
PROB_SUM_ATOL = 1e-9

# rows per block of ``sample_rows``'s running sums: a block's N x 4,096
# sums (1.2 MB at N = 36) stay in L2 cache while each column is added
# (timings in CHANGES.md)
SAMPLE_BLOCK_ROWS = 4096

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
MASK_SYMBOL = "#"


@dataclass(frozen=True)
class Vocabulary:
    """Token index space of size N, optionally with a mask token.

    ``symbols`` are the display strings used by tokenize/detokenize; when
    omitted they default to the first N characters of a fixed alphabet
    (with ``#`` at the mask position for absorbing models).
    """

    size: int
    mask_index: int | None = None
    symbols: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary needs at least 2 tokens, got {self.size}")
        if self.mask_index is not None and not 0 <= self.mask_index < self.size:
            raise ValueError(
                f"mask_index {self.mask_index} outside [0, {self.size})"
            )
        if self.symbols is None:
            object.__setattr__(self, "symbols", self._default_symbols())
        else:
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) != self.size:
            raise ValueError(
                f"expected {self.size} symbols, got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != self.size:
            raise ValueError("symbols must be unique")

    def _default_symbols(self) -> tuple[str, ...]:
        if self.size > len(DEFAULT_ALPHABET):
            raise ValueError(
                f"no default symbols for N={self.size}; pass symbols explicitly"
            )
        syms = list(DEFAULT_ALPHABET[: self.size])
        if self.mask_index is not None:
            syms[self.mask_index] = MASK_SYMBOL
        return tuple(syms)

    @property
    def is_absorbing(self) -> bool:
        return self.mask_index is not None


def check_sequence(tokens: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """Validate a token sequence (1-D integer array, entries in [0, N))."""
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"sequence must be 1-D and non-empty, got shape {arr.shape}")
    check_token_range(arr, vocab.size)
    return arr


def check_token_range(tokens: np.ndarray, n: int) -> None:
    """Raise ValueError unless every entry of an int64 array lies in
    [0, n). Tables are indexed by token, so an unchecked -1 would silently
    read the last row (the mask row of an absorbing vocabulary). One
    reduction: read as unsigned, a negative token is huge."""
    if tokens.dtype != np.int64:
        raise TypeError(f"tokens must be int64, not {tokens.dtype}")
    if tokens.size and tokens.view(np.uint64).max() >= n:
        raise ValueError(f"token indices must lie in [0, {n}), got range "
                         f"[{tokens.min()}, {tokens.max()}]")


def flat_index(idx, n: int) -> np.ndarray:
    """Flat positions of idx[...] along the last axis of (..., n) rows;
    ValueError (``check_token_range``) for an entry outside [0, n), which
    would read another row."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    check_token_range(idx, n)
    return np.arange(0, idx.size * n, n) + idx


def enumerate_sequences(n: int, length: int) -> np.ndarray:
    """All n^length token sequences in lexicographic order, as an
    (n^length, length) array."""
    if n ** length > 10 ** 6:
        raise ValueError(f"refusing to enumerate {n}^{length} sequences")
    combos = itertools.product(range(n), repeat=length)
    return np.array(list(combos), dtype=np.int64).reshape(n ** length, length)


def one_hot_batch(tokens, n: int) -> np.ndarray:
    """Integer tokens of any shape to (..., n) one-hot rows."""
    out = np.zeros(np.shape(tokens) + (n,))
    out.reshape(-1)[flat_index(tokens, n)] = 1.0
    return out


class Categorical:
    """A probability vector over N tokens.

    Construction validates non-negativity, finiteness, and that the sum is
    within ``PROB_SUM_ATOL`` of 1, then renormalizes exactly; normalization
    is therefore idempotent.
    """

    __slots__ = ("probs",)

    def __init__(self, probs: np.ndarray) -> None:
        vec = np.asarray(probs, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(f"probs must be 1-D, got shape {vec.shape}")
        # Two reductions on the common path: a NaN or inf entry makes the
        # total non-finite, which fails the sum test; the message names
        # the first failing condition in the order finite, >= 0, sum.
        total = vec.sum()
        if not (abs(total - 1.0) <= PROB_SUM_ATOL and vec.min() >= 0.0):
            if not np.all(np.isfinite(vec)):
                raise ValueError("probs contain NaN or inf")
            if np.any(vec < 0):
                raise ValueError(f"negative probability entry: min={vec.min()}")
            raise ValueError(f"probabilities sum to {float(total)!r}, "
                             "expected 1")
        object.__setattr__(self, "probs", vec / total)
        self.probs.setflags(write=False)

    @classmethod
    def from_unnormalized(cls, vec: np.ndarray) -> "Categorical":
        """Normalize a non-negative vector with positive total mass."""
        arr = np.asarray(vec, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("unnormalized vector contains NaN or inf")
        if np.any(arr < 0):
            raise ValueError("unnormalized vector has negative entries")
        total = arr.sum()
        if total <= 0:
            raise ValueError("cannot normalize a zero-mass vector")
        return cls(arr / total)

    @classmethod
    def one_hot(cls, index: int, size: int) -> "Categorical":
        return cls(one_hot_batch(index, size))

    @classmethod
    def uniform(cls, size: int) -> "Categorical":
        return cls(np.full(size, 1.0 / size))

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Categorical) and np.array_equal(
            self.probs, other.probs
        )

    def __repr__(self) -> str:
        return f"Categorical({np.array2string(self.probs, precision=6)})"


def check_row_totals(totals: np.ndarray) -> None:
    """Raise FloatingPointError unless every row total is finite and > 0.

    A total is non-finite exactly when some entry of its row is, so the
    totals alone catch NaN and infinite entries as well as zero-mass rows.
    """
    ok = totals > 0.0
    ok &= totals < np.inf
    if np.count_nonzero(ok) != ok.size:  # cheaper than ok.all() on few rows
        bad = np.argwhere(~ok)[0]
        raise FloatingPointError(
            f"row {tuple(int(i) for i in bad)} has total mass "
            f"{float(totals[tuple(bad)])}; expected finite and > 0")


def row_reduce(rows: np.ndarray, ufunc, loop_max: int = 7) -> np.ndarray:
    """Row sums (np.add) or maxima (np.maximum): column by column to loop_max
    columns (np.sum's bytes to 7, and faster), ufunc.reduce above them."""
    if rows.shape[-1] > loop_max:
        return ufunc.reduce(rows, axis=-1)
    out = rows[..., 0].copy()
    for j in range(1, rows.shape[-1]):
        ufunc(out, rows[..., j], out=out)
    return out


def sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sample of one index per row of a (..., N) probability
    array: the number of running sums below u, with u drawn uniformly
    below the row total, which tolerates 1-ulp normalization drift.
    Raises FloatingPointError on a row with a non-finite entry or with
    total mass <= 0, before any draw, instead of returning a
    plausible-looking index.

    The running sums are built column by column, left to right, in an
    (N, rows) array, one block of SAMPLE_BLOCK_ROWS rows at a time so the
    block stays in cache: the same additions in the same order as
    ``np.cumsum`` along the rows, whose small-axis loop is far slower
    (timings in CHANGES.md). The last sum is the total, and u = U * total
    with U < 1 never exceeds it, so only the first N - 1 sums are counted.
    """
    rows = np.asarray(rows, dtype=np.float64)
    lead, n = rows.shape[:-1], rows.shape[-1]
    flat = rows.reshape(-1, n)
    cum = np.empty((n, len(flat)))
    for lo in range(0, len(flat), SAMPLE_BLOCK_ROWS):
        block = cum[:, lo:lo + SAMPLE_BLOCK_ROWS]
        block[...] = flat[lo:lo + SAMPLE_BLOCK_ROWS].T
        for prev, out in zip(block, block[1:]):
            out += prev
    totals = cum[-1]
    check_row_totals(totals.reshape(lead))
    u = rng.random(lead + (1,)).reshape(-1)
    u *= totals
    return (cum[:-1] < u).sum(axis=0).reshape(lead)[()]


def _plain(value):
    """A time for an error message: a NumPy scalar or 0-d array as the
    plain float it holds, so it prints as 1.1 and not np.float64(1.1)."""
    return float(value) if np.ndim(value) == 0 else value


class NoiseSchedule:
    """The one signal-retention schedule, log-linear: alpha(t) = 1 - t on
    [0, 1], so alpha'(t) = -1. It has no settings. Stochastic evaluations
    draw t from the clamped interval [t_min, t_max] because the alpha'/alpha
    factor of the continuous-time loss suffers cancellation as alpha -> 0,
    even though its limit is finite.
    """

    kind = "log_linear"
    t_min = 1e-5
    t_max = 1.0 - 1e-5

    def alpha(self, t):
        """alpha(t) = 1 - t, elementwise over scalars or arrays."""
        if type(t) is float:  # fast path: posteriors call this in tight loops
            if t < 0.0 or t > 1.0:
                raise ValueError(f"t outside [0, 1]: {t!r}")
            return 1.0 - t
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError(f"t outside [0, 1]: {_plain(t)!r}")
        out = 1.0 - t
        return float(out) if out.ndim == 0 else out

    def alpha_prime(self, t):
        """d alpha / dt; constant -1 for the log-linear schedule."""
        if type(t) is float:
            if t <= 0.0 or t >= 1.0:
                raise ValueError(f"t outside (0, 1): {t!r}")
            return -1.0
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0) or np.any(t >= 1):
            raise ValueError(f"t outside (0, 1): {_plain(t)!r}")
        out = np.full_like(t, -1.0)
        return float(out) if out.ndim == 0 else out

    def alpha_ratio(self, t, s):
        """alpha(t) / alpha(s) for s <= t; requires alpha(s) > 0."""
        if type(t) is float and type(s) is float:
            if s > t:
                raise ValueError(f"need s <= t, got s={s!r}, t={t!r}")
            a_s = self.alpha(s)
            a_t = self.alpha(t)
            if a_s == 0.0:
                raise ZeroDivisionError("alpha(s) = 0; ratio undefined")
            return a_t / a_s
        t_arr = np.asarray(t, dtype=np.float64)
        s_arr = np.asarray(s, dtype=np.float64)
        if np.any(s_arr > t_arr):
            raise ValueError(f"need s <= t, got s={_plain(s)!r}, "
                             f"t={_plain(t)!r}")
        a_s = self.alpha(s_arr)
        a_t = self.alpha(t_arr)
        if np.any(np.asarray(a_s) == 0):
            raise ZeroDivisionError("alpha(s) = 0; ratio undefined")
        out = np.asarray(a_t) / np.asarray(a_s)
        return float(out) if out.ndim == 0 else out

    def draw_t(self, rng: np.random.Generator, size=None):
        """Uniform t over the clamped interval [t_min, t_max]."""
        return rng.uniform(self.t_min, self.t_max, size=size)
