"""Trainable clean-data predictor and noised-latent classifier.

Both networks share the same position-wise trunk: per-position feature =
token embedding + position encoding + mean-pooled sequence embedding +
time features + (denoiser only) condition embedding, through one or more
tanh hidden layers to a linear head. The denoiser emits one distribution
over clean tokens per position; the classifier mean-pools the trunk
output and emits one distribution over classes per sequence.

The unconditional branch of a conditional denoiser is the extra
condition-embedding row at index K (condition None, for the batch or for
one example); condition dropout during training swaps real labels for
that row. Absorbing denoisers pin the mask column of the logits to -inf
so the predictor never emits mask, and carry unmasked tokens over: the
row at an unmasked position is one-hot at its latent, as the absorbing
posterior there is, whatever the network says. Only the first layer and
the mean-pool see those positions; the hidden layers, the head, the
softmax and the training loss run on the masked positions
(``masked_rows``) alone.

Time enters as the pair (alpha_t, 1 - alpha_t) through a learned 2 x d
projection: the simplest injective encoding under a monotone schedule.

Each trunk concept is written once for both networks: ``_init_trunk``
draws the parameters, ``_fit`` is the one Adam training loop (``train``
and ``train_classifier`` pass it their own batch loss), and the trunk
has one forward and one backward. ``_trunk_forward`` is plain NumPy on
a ``_Folded`` trunk: the arrays with the first linear map folded into
the embedding tables, in one dtype. Training folds its parameter Nodes'
values once per step, in float64. Inference (denoise, denoise_batch,
classify) runs the forward alone on the snapshot ``_Trunk.prepared``
keeps per parameter version: the parameter arrays are read-only, and
``set_arrays`` and each training step bump the version. classify and the
Taylor gradient read the float64 snapshot. denoise_batch runs the
forward and the softmax's exponentials in float32, on the float32
snapshot, whose head is padded with zero columns to a multiple of 16,
and returns float64 rows normalised in float64.

denoise_batch runs on cache-sized blocks of whole sequences, one after
another on the calling thread; a sequence's rows do not depend on its
block or batch (one position runs as two copies, off BLAS's vector
path).

``_trunk_backward`` is written by hand and keeps the first layer
folded. Training wraps the pair as one autodiff Node
(``_trunk_node``, under denoiser_logprob_rows and classifier_logprobs)
beneath the log-softmax and the loss; classify_grad_wrt_onehot, the
Taylor-guidance gradient, calls the same backward for the input
gradient alone and builds no graph.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import (NoiseSchedule, Vocabulary, check_sequence,
                   check_token_range, row_reduce)
from .forward import PriorSpec, corrupt

MASK_LOGIT = -1e30
# positions per block of the inference denoiser forward: a block's
# (rows, d) activations stay in cache (sweep in CHANGES.md)
BLOCK_ROWS = 8192


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------- params

class _Trunk:
    """Parameter arrays of the trunk both networks share, in checkpoint
    order: the leading tables named by LEADING, each hidden layer's
    weight and bias (at least one layer), then the head.

    The arrays are read-only from construction on. Two writers change
    them: ``set_arrays`` stores new ones, and a training step (``_fit``)
    lifts the flag for Adam's in-place update alone; each bumps
    ``version``. Any other in-place write raises ValueError, so the
    folded snapshot ``prepared`` keeps per version cannot go stale; an
    array assigned directly to a field is seen by its identity."""

    LEADING: tuple = ()
    schedule = NoiseSchedule()  # the fixed schedule; protocol member
    version = 0  # bumped by set_arrays and by each training step

    def __post_init__(self) -> None:
        _freeze(self.values())
        self._snapshots = {}

    def arrays(self) -> list:
        """(name, array) pairs; this order is the checkpoint order."""
        out = [(name, getattr(self, name)) for name in self.LEADING]
        for i, (w, b) in enumerate(self.hidden):
            out += [(f"hidden_w{i}", w), (f"hidden_b{i}", b)]
        out.append(("output_head", self.output_head))
        return out

    def values(self) -> list:
        """The arrays alone, in checkpoint order, without arrays()'s names."""
        return [getattr(self, name) for name in self.LEADING] + [
            a for layer in self.hidden for a in layer] + [self.output_head]

    def set_arrays(self, pairs: list) -> None:
        """Store the (name, array) pairs arrays() returns, in its order,
        as they are, made read-only."""
        names = [name for name, _ in self.arrays()]
        if [p[0] if isinstance(p, tuple) else None for p in pairs] != names:
            raise ValueError(f"expected (name, array) pairs named {names}")
        named = dict(pairs)
        _freeze(named.values())
        for name in self.LEADING:
            setattr(self, name, named[name])
        self.hidden = [
            (named[f"hidden_w{i}"], named[f"hidden_b{i}"])
            for i in range(len(self.hidden))
        ]
        self.output_head = named["output_head"]
        self.version += 1

    def prepared(self, dtype=np.float64) -> "_Folded":
        """The folded trunk of the current arrays in ``dtype``: float64
        for the classifier, float32 for ``denoise_batch``. The head gains
        zero columns up to a multiple of 16, whose logits the callers drop:
        OpenBLAS's product with a narrow head gives bytes that depend on
        the row count. Built once per version and reused while every array
        it was built from is still in place; it reads nothing of the
        tokens. FloatingPointError if a folded entry times 2 (max(L, d) +
        5), the most a forward's sums and products can reach, exceeds the
        dtype's range: a forward cannot overflow."""
        arrays = self.values()
        version, sources, fold = self._snapshots.get(dtype, (None, (), None))
        if version == self.version and all(map(operator.is_, sources,
                                               arrays)):
            return fold
        _freeze(arrays)  # an array assigned to a field directly, too
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            work = [a.astype(dtype, copy=False) for a in arrays[:-1]]
            n = arrays[-1].shape[1]
            work.append(np.zeros((self.d, -(-n // 16) * 16), dtype=dtype))
            work[-1][:, :n] = arrays[-1]
            fold = _Folded(self, work)
        largest = np.max([np.abs(a).max(initial=0.0) for a in (
            fold.token, fold.position, fold.time, fold.condition,
            *sum(fold.maps, ())) if a is not None])
        bound = np.finfo(dtype).max / (2 * max(self.length, self.d) + 10)
        if not largest <= bound:  # NaN too
            raise FloatingPointError(f"parameters too large: {largest:.3g}")
        self._snapshots[dtype] = (self.version, tuple(arrays), fold)
        return fold


def _freeze(arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


class _Folded:
    """A trunk's arrays in one dtype with the first linear map folded into
    the tables before it. The features before that map are a sum of table
    rows, so each table (token, position plus the map's bias, time, and
    the denoiser's condition) is multiplied through W0 once and the
    forward gathers rows already projected. ``maps`` holds the remaining
    (weight, bias) pairs and then (head, None); ``last_t`` the blended
    time row of the last scalar t, as one (t, row) tuple that is only
    ever replaced whole, so a concurrent reader never pairs one t with
    another t's row."""

    def __init__(self, params, arrays: list) -> None:
        lead = len(params.LEADING)
        w0, b0 = arrays[lead], arrays[lead + 1]
        self.token = arrays[0] @ w0                                # (N, d0)
        self.position = arrays[1] @ w0                             # (L, d0)
        self.position += b0
        self.time = arrays[2] @ w0                                 # (2, d0)
        self.condition = arrays[3] @ w0 if lead == 4 else None     # (K+1, d0)
        self.maps = list(zip(arrays[lead + 2:-1:2], arrays[lead + 3:-1:2]))
        self.maps.append((arrays[-1], None))
        self.last_t = (None, None)


@dataclass
class DenoiserParams(_Trunk):
    kind: str  # uniform | absorbing
    vocab: Vocabulary
    length: int
    num_classes: int  # K real classes; 0 means unconditional-only
    d: int
    token_embedding: np.ndarray
    position_encoding: np.ndarray
    time_projection: np.ndarray
    condition_embedding: np.ndarray
    hidden: list  # [(W d x d, b d), ...]
    output_head: np.ndarray

    LEADING = ("token_embedding", "position_encoding", "time_projection",
               "condition_embedding")

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(
            self.kind, self.vocab, self.length, self.num_classes, self.d,
            self.token_embedding.copy(),
            self.position_encoding.copy(), self.time_projection.copy(),
            self.condition_embedding.copy(),
            [(w.copy(), b.copy()) for w, b in self.hidden],
            self.output_head.copy(),
        )

    # Denoiser protocol: ``rows_batch``, ``prior`` and ``schedule``.
    @property
    def prior(self) -> PriorSpec:
        return PriorSpec.for_vocab(self.vocab)

    def rows_batch(self, z_batch, t, condition=None) -> np.ndarray:
        return denoise_batch(self, z_batch, t, condition)


@dataclass
class ClassifierParams(_Trunk):
    vocab: Vocabulary
    length: int
    num_classes: int
    d: int
    token_embedding: np.ndarray
    position_encoding: np.ndarray
    time_projection: np.ndarray
    hidden: list
    output_head: np.ndarray

    LEADING = ("token_embedding", "position_encoding", "time_projection")

    # Classifier protocol used by guidance: log p(y | z) at time t for all
    # y, for one (L,) sequence or a (B, L) batch, and the gradient of
    # log p(y | z) with respect to the relaxed one-hot input; generate
    # also reads ``num_classes`` to range-check the target class.
    def log_probs(self, z_seq, t) -> np.ndarray:
        return classify(self, z_seq, t)

    def grad_log_prob(self, z_seq, t, y) -> tuple:
        return classify_grad_wrt_onehot(self, z_seq, t, y)


@dataclass
class ConstantDenoiser:
    """Fixed per-position clean-token rows, independent of the latent, the
    time, and any condition. Zero parameters, nothing to train; with one-hot
    rows it is the exact denoiser for a single-sequence dataset (the
    zero-loss reference case), with marginal rows a position-wise baseline.
    """

    kind: str  # uniform | absorbing
    vocab: Vocabulary
    rows_table: np.ndarray  # (L, N), each row a distribution over tokens

    num_classes = 0  # reads no condition, so no label is in range
    schedule = NoiseSchedule()  # the fixed schedule; protocol member

    def __post_init__(self) -> None:
        _check_kind(self.kind, self.vocab)
        table = np.asarray(self.rows_table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != self.vocab.size:
            raise ValueError(f"rows_table shape {table.shape}, expected "
                             f"(L, {self.vocab.size})")
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("rows_table rows must be distributions")
        if self.kind == "absorbing" \
                and np.any(table[:, self.vocab.mask_index] > 0):
            raise ValueError("clean-token rows cannot put mass on the mask")
        self.rows_table = table / table.sum(axis=1, keepdims=True)
        self.rows_table.setflags(write=False)

    @classmethod
    def from_sequence(cls, x_seq, vocab: Vocabulary, *, kind: str = "uniform",
                      ) -> "ConstantDenoiser":
        """One-hot rows at a single clean sequence."""
        return cls(kind, vocab,
                   one_hot_batch(check_sequence(x_seq, vocab), vocab.size))

    @property
    def length(self) -> int:
        return self.rows_table.shape[0]

    @property
    def prior(self) -> PriorSpec:
        return PriorSpec.for_vocab(self.vocab)

    def rows_batch(self, z_batch, t, condition=None) -> np.ndarray:
        z = _token_batch(self, z_batch)
        return np.tile(self.rows_table, (z.shape[0], 1, 1))


def _check_kind(kind: str, vocab: Vocabulary) -> None:
    """The kind must name the prior ``PriorSpec.for_vocab`` picks:
    absorbing with a mask token, uniform without one."""
    if kind not in ("uniform", "absorbing"):
        raise ValueError(f"unknown model kind {kind!r}")
    if vocab.is_absorbing != (kind == "absorbing"):
        need = "with" if kind == "absorbing" else "without"
        raise ValueError(f"{kind} denoiser needs a vocabulary {need} a mask token")


def init_denoiser(
    vocab: Vocabulary, length: int, num_classes: int, d: int,
    *, kind: str, n_layers: int = 1, seed: int = 0, scale: float = 0.1,
) -> DenoiserParams:
    _check_kind(kind, vocab)
    return _init_trunk(DenoiserParams, vocab, length, num_classes, d,
                       n_layers, seed, scale, kind=kind)


def init_classifier(
    vocab: Vocabulary, length: int, num_classes: int, d: int,
    *, n_layers: int = 1, seed: int = 0, scale: float = 0.1,
) -> ClassifierParams:
    return _init_trunk(ClassifierParams, vocab, length, num_classes, d,
                       n_layers, seed, scale)


def trunk_shapes(cls, vocab: Vocabulary, length: int, num_classes: int,
                 d: int, n_layers: int) -> list:
    """(name, shape) of each array of a ``cls`` trunk in checkpoint order,
    building none; the head is over the tokens (denoiser) or the K
    classes. ValueError on d, length or n_layers below 1 or num_classes
    below 0."""
    if min(n_layers, d, length) < 1 or num_classes < 0:
        raise ValueError(f"a trunk needs at least one hidden layer, d and "
                         f"length of at least 1 and num_classes of at least "
                         f"0, got {n_layers}, {d}, {length}, {num_classes}")
    rows = [vocab.size, length, 2, num_classes + 1]  # the last: denoiser's
    shapes = [(name, (k, d)) for name, k in zip(cls.LEADING, rows)]
    for i in range(n_layers):
        shapes += [(f"hidden_w{i}", (d, d)), (f"hidden_b{i}", (d,))]
    n_out = vocab.size if cls is DenoiserParams else num_classes
    return shapes + [("output_head", (d, n_out))]


def _init_trunk(cls, vocab, length, num_classes, d, n_layers, seed, scale,
                **fields):
    """Draw ``scale`` * standard normals in checkpoint order; the hidden
    biases start at zero and draw nothing."""
    rng = np.random.default_rng(seed)
    arrays = [np.zeros(shape) if name.startswith("hidden_b")
              else scale * rng.standard_normal(shape) for name, shape
              in trunk_shapes(cls, vocab, length, num_classes, d, n_layers)]
    lead = len(cls.LEADING)
    return cls(vocab=vocab, length=length, num_classes=num_classes, d=d,
               hidden=list(zip(arrays[lead:-1:2], arrays[lead + 1:-1:2])),
               output_head=arrays[-1], **dict(zip(cls.LEADING, arrays)),
               **fields)


# --------------------------------------------------------------- forward

def _condition_indices(condition, num_classes: int, batch: int) -> np.ndarray:
    """Map a condition to one embedding row index per example. The
    condition is None (every example unconditional), one label for the
    batch, or one entry per example: an integer array, or a list or tuple
    whose None entries select the unconditional row. Real labels are
    Python or NumPy integers, not bools, in [0, num_classes); only None
    reaches the unconditional row num_classes."""
    if condition is None:
        return np.full(batch, num_classes, dtype=np.int64)
    if isinstance(condition, (list, tuple)):
        bad = [tp.__name__ for tp in set(map(type, condition)) - {type(None)}
               if tp is bool or not issubclass(tp, (int, np.integer))]
        if bad:
            raise ValueError(f"condition labels must be integers or None, "
                             f"not {', '.join(sorted(bad))}")
        # entries are None or integers now: parse a run of equal ones once
        runs = [(c, len(list(g))) for c, g in itertools.groupby(condition)]
        labels = np.array([c for c, _ in runs if c is not None], np.int64)
        idx = np.repeat(np.array([num_classes if c is None else c for c, _
                                  in runs], np.int64), [k for _, k in runs])
    else:
        labels = np.asarray(condition)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"condition labels must be integers, not "
                             f"{labels.dtype}")
        idx = labels = labels.astype(np.int64)
        if idx.ndim == 0:
            idx = np.full(batch, int(idx), dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"condition label out of range [0, {num_classes}); "
                         f"pass None for the unconditional row")
    if idx.shape != (batch,):
        raise ValueError(f"expected one condition per example ({batch}), "
                         f"got shape {idx.shape}")
    return idx


def param_nodes(params) -> list:
    return [ad.param(a) for a in params.values()]


def constant_nodes(params) -> list:
    return [ad.constant(a) for a in params.values()]


def _time_features(schedule: NoiseSchedule, t) -> np.ndarray:
    """(alpha_t, 1 - alpha_t) as a (len(t), 2) array; a scalar t gives
    one row."""
    if type(t) is float:  # fast path, same bytes: guidance calls per step
        a = schedule.alpha(t)
        return np.array([[a, 1.0 - a]])
    alpha = np.atleast_1d(schedule.alpha(t))
    return np.stack([alpha, 1.0 - alpha], axis=1)


def _token_batch(params, z_batch) -> np.ndarray:
    """``z_batch`` as a (B, L) int64 array of the network's length whose
    tokens all lie in [0, N)."""
    z = np.asarray(z_batch, dtype=np.int64)
    if z.ndim != 2 or z.shape[1] != params.length:
        raise ValueError(f"expected (B, {params.length}) latents, "
                         f"got shape {z.shape}")
    check_token_range(z, params.vocab.size)
    return z


def masked_rows(params, z: np.ndarray) -> np.ndarray | None:
    """Carry-over: the flat indices, in (B, L) order, of the positions of
    the (B, L) latents z that hold the mask token, for an absorbing
    denoiser; None for a uniform denoiser and for the classifier. An
    absorbing posterior at an unmasked latent is one-hot at that token,
    whatever x_theta says there, so the denoiser's row at an unmasked
    position is defined as one-hot at its latent (MDLM's carry-over,
    Sahoo et al. 2024). The hidden layers, the head, the softmax and the
    training loss run on these rows alone."""
    if not isinstance(params, DenoiserParams) or params.kind != "absorbing":
        return None
    return np.flatnonzero(z == params.vocab.mask_index)


def _trunk_forward(params, fold: _Folded, z_batch, t,
                   cond_idx: np.ndarray | None = None, pool: bool = False,
                   keep: list | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Autodiff-free forward of the trunk both networks share, on the
    folded arrays ``fold``: (B, L) int64 tokens, which the caller has
    range-checked with ``_token_batch``, or a Node of (B, L, N) relaxed
    one-hot rows, to (B, L, out) head logits, or (B, out) with ``pool``,
    which mean-pools the positions before the head (the classifier
    readout). ``t`` is one time for the batch or one per example.

    The first layer's pre-activation is built at every position, so the
    mean-pool sees every token. ``rows``, flat indices into the (B, L)
    positions (``masked_rows``), keeps only those rows after it: the tanh
    layers and the head run on them alone, giving (len(rows), out)
    logits. A lone row runs as two copies, off BLAS's one-row vector path,
    so its bytes do not depend on how many rows its call keeps.

    A ``keep`` list receives what ``_trunk_backward`` reads: the input,
    the time features, ``cond_idx``, the folded token table, ``rows`` and
    then each tanh output; with both ``keep`` and ``rows`` (training's
    absorbing step) the kept rows' products run as ``_kept_product``. The
    activations and logits take the dtype of ``fold``; the time features
    stay float64.

    Inference passes the trunk's ``prepared`` snapshot, training a fold
    of its parameter Nodes' values made once per step.
    """
    length = params.length
    token_table = fold.token
    if isinstance(z_batch, ad.Node):  # relaxed one-hot rows
        z_batch = z_batch.value
        h = z_batch @ token_table
    else:
        h = token_table[z_batch]                                   # (B, L, d0)
    per_seq = _pool_sum(h)[:, None, :]                             # (B, 1, d0)
    per_seq /= length
    per_seq += _time_rows(fold, params.schedule, t)[..., None, :]
    if cond_idx is not None:
        per_seq += fold.condition[cond_idx][:, None, :]
    h += per_seq
    h += fold.position
    if keep is not None:
        keep += [z_batch, _time_features(params.schedule, t), cond_idx,
                 token_table, rows]
    count = None  # h's rows to return
    if rows is not None:
        count = len(rows)
        taken = rows if count != 1 else np.repeat(rows, 2)
        h = h.reshape(-1, h.shape[-1])[taken]
    for w, b in fold.maps:
        np.tanh(h, out=h)
        if keep is not None:
            keep.append(h[:count])
        if pool and b is None:  # the classifier pools before its head
            h = _pool_sum(h) / length
        flat = h.reshape(-1, h.shape[-1])
        if rows is not None and keep is not None:
            flat = _kept_product(flat, w)
        else:
            flat = flat @ w
        h = flat.reshape(h.shape[:-1] + flat.shape[-1:])
        if b is not None:
            h += b
    return h[:count]


def _time_rows(fold: _Folded, schedule: NoiseSchedule, t) -> np.ndarray:
    """alpha_t and 1 - alpha_t blending the folded time rows: one (d0,)
    row for a shared t, (B, d0) rows for one t per example. The blend is
    elementwise: as a (B, 2) x (2, d0) product BLAS takes its vector path
    for one row and its matrix path for more, so a sequence's rows would
    depend on its batch. A shared t blends from the two scalars, with the
    same bytes. The row of the last scalar float t is kept in ``fold``:
    guidance asks for one t L*N times a step."""
    last_t, row = fold.last_t
    if type(t) is float and t == last_t:
        return row
    time_in = _time_features(schedule, t)
    a, b = time_in[0] if len(time_in) == 1 else time_in.T[..., None]
    row = a * fold.time[0] + b * fold.time[1]
    if type(t) is float:
        fold.last_t = (t, row)
    return row


def _pool_sum(h: np.ndarray) -> np.ndarray:
    """h.sum(axis=1) by einsum, 3x faster, same bytes; d = 1 sums pairwise."""
    return h.sum(axis=1) if h.shape[-1] == 1 else np.einsum("bld->bd", h)


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I, J) sum over the leading axes of a[..., i] * b[..., j]."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _trunk_backward(params, arrays: list, keep: list, g: np.ndarray,
                    needs: list) -> list:
    """Reverse pass of ``_trunk_forward`` from the gradient ``g`` of its
    output, ``keep`` as that forward filled it: one gradient per flag in
    ``needs``, which holds one flag per array and optionally one for the
    input read as relaxed one-hot rows. The input's gradient is computed
    only if its flag is set, and the arrays' gradients, all of them, only
    if some array's flag is; the rest are None.

    The first layer stays folded. With delta the gradient at its
    pre-activation, each folded table's gradient is a sum of delta: over
    the batch (position), times the time features (time), scattered by
    label (condition), or plus its mean over positions and scattered by
    token (token). An unfolded table's gradient is its folded one times
    W0^T and W0's is the sum of table^T times folded one, so no
    (B L, d) x (d, d) product runs. A forward on ``rows`` alone hands
    ``g`` for those rows; their delta is scattered back into zeros at the
    first layer's pre-activation, which every position reaches."""
    inp, time_in, cond_idx, token_table, rows, *acts = keep
    lead, head = len(params.LEADING), len(arrays) - 1
    grads = [None] * len(needs)
    param_grads = any(needs[:len(arrays)])
    batch, length = len(inp), params.length
    pooled = rows is None and g.ndim == 2
    if rows is not None:
        # allocated before the kept rows' arrays, whose size changes each
        # step: after them, the heap placed it in fresh pages (CHANGES.md)
        full = np.zeros((batch, length, acts[0].shape[-1]))
    if param_grads:  # back through the head to the last tanh output
        last = _pool_sum(acts[-1]) / length if pooled else acts[-1]
        grads[head] = _outer_sum(last, g)
    delta = (g @ arrays[head].T if rows is None
             else _kept_product(g, arrays[head].T))
    if pooled:  # the mean-pool hands each position an equal share
        delta = np.broadcast_to((delta / length)[:, None, :],
                                (batch, length, delta.shape[1]))
    for i in range(len(acts) - 1, -1, -1):
        delta = delta * (1.0 - acts[i] * acts[i])
        if i:  # every tanh layer but the first has a weight behind it
            if param_grads:
                grads[lead + 2 * i] = _outer_sum(acts[i - 1], delta)
                grads[lead + 2 * i + 1] = delta.sum(
                    axis=tuple(range(delta.ndim - 1)))
            delta = (delta @ arrays[lead + 2 * i].T if rows is None
                     else _kept_product(delta, arrays[lead + 2 * i].T))
    if rows is not None:
        full.reshape(-1, full.shape[-1])[rows] = delta
        delta = full
    per_seq = _pool_sum(delta)                                     # (B, d0)
    front = delta + (per_seq / length)[:, None, :]
    if any(needs[len(arrays):]):
        grads[-1] = front @ token_table.T                          # (B, L, N)
    if param_grads:
        x = inp if inp.ndim == 3 else one_hot_batch(inp, len(token_table))
        folded = [_outer_sum(x, front), delta.sum(axis=0),
                  _outer_sum(np.broadcast_to(time_in, (batch, 2)), per_seq)]
        if cond_idx is not None:
            folded.append(_outer_sum(
                one_hot_batch(cond_idx, len(arrays[3])), per_seq))
        grads[lead] = sum(arrays[j].T @ f for j, f in enumerate(folded))
        for j, f in enumerate(folded):
            grads[j] = f @ arrays[lead].T
        grads[lead + 1] = delta.sum(axis=(0, 1))
    return grads


def _kept_product(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h @ w for training's kept rows, written as (w^T h^T)^T. OpenBLAS
    computes h @ w column-major, with the rows of h as its output's
    columns, and its threads split those columns at buffer offsets that
    scale with their number: a row count that changes each step faults in
    fresh pages until every offset has been seen (about 100 pages per new
    count at d 48). As w^T h^T the rows of h are the output's rows, and
    the offsets stay put."""
    return np.matmul(w.T, h.T).T


def _trunk_node(field_nodes: list, params, z, t, cond_idx=None,
                pool: bool = False) -> ad.Node:
    """``_trunk_forward`` as one autodiff Node of the parameter Nodes and,
    if it is a Node of relaxed one-hot rows, of ``z``; its backward is
    ``_trunk_backward`` for the parents that require a gradient. The
    arrays are the Nodes' values, folded here once per call; ``params``
    gives shapes and schedule. An absorbing denoiser's Node holds the
    logits of its ``masked_rows`` alone."""
    arrays = [n.value for n in field_nodes]
    rows = None
    if not isinstance(z, ad.Node):
        z = _token_batch(params, z)
        rows = None if pool else masked_rows(params, z)
    parents = list(field_nodes) + ([z] if isinstance(z, ad.Node) else [])
    needs = [p.requires_grad for p in parents]
    keep = []
    out = _trunk_forward(params, _Folded(params, arrays), z, t, cond_idx,
                         pool, keep, rows=rows)
    return ad.Node(out, tuple(parents),
                   lambda g: _trunk_backward(params, arrays, keep, g, needs))


def denoiser_logprob_rows(
    field_nodes: list, params: DenoiserParams,
    z_batch: np.ndarray, t: np.ndarray, cond_idx: np.ndarray,
) -> ad.Node:
    """Batched forward pass on parameter Nodes: (B, L) latents to
    (B, L, N) per-position log-probabilities over clean tokens. An
    absorbing denoiser gives (M, N), the rows of its M ``masked_rows``
    in flat order; its other positions carry their latent over."""
    logits = _trunk_node(field_nodes, params, z_batch, t, cond_idx)
    if params.kind == "absorbing":
        suppress = np.zeros(params.vocab.size)
        suppress[params.vocab.mask_index] = MASK_LOGIT
        logits = logits + ad.constant(suppress)
    return ad.log_softmax(logits)


def classifier_logprobs(
    field_nodes: list, params: ClassifierParams, z, t: np.ndarray,
) -> ad.Node:
    """Batched classifier forward on parameter Nodes: (B, L) tokens, or a
    Node of (B, L, N) relaxed one-hot rows, to (B, K) log class
    probabilities."""
    return ad.log_softmax(_trunk_node(field_nodes, params, z, t, pool=True))


def denoise(
    params: DenoiserParams, z_seq, t: float, condition=None
) -> np.ndarray:
    """Per-position clean-token distributions x_theta(z_t, t) as an
    (L, N) array of rows, each summing to 1."""
    return denoise_batch(params, np.asarray(z_seq)[None], t, condition)[0]


def denoise_batch(
    params: DenoiserParams, z_batch: np.ndarray, t, cond_idx
) -> np.ndarray:
    """(B, L) latents to (B, L, N) probability rows, shared or per-example
    t. ``cond_idx`` is None (unconditional), a label, or one entry per
    example: a label, or None for the unconditional row. Classifier-free
    guidance stacks the batch on itself and asks for both rows in one
    call, the first half labelled and the second None. Raises ValueError
    on a label outside [0, K), K included.

    The network and the softmax's exponentials run in float32; the rows
    come back as float64, normalised there, so each sums to 1 to within
    float64 rounding and an absorbing denoiser's mask column is exactly 0.
    An absorbing denoiser runs its hidden layers, head and softmax on its
    ``masked_rows`` alone and writes a one-hot row at each unmasked
    position, at its latent (carry-over).
    """
    _keep_heap()
    z = _token_batch(params, z_batch)
    cond = _condition_indices(cond_idx, params.num_classes, asked := len(z))
    if z.size == 1:  # two copies, off BLAS's one-row vector path
        z, cond = np.repeat(z, 2, axis=0), np.repeat(cond, 2)
    batch, length = z.shape
    n = params.vocab.size
    # the float32 arrays, padded head and folded tables of this version
    fold = params.prepared(np.float32)
    per_example_t = np.size(t) > 1
    out = np.empty((batch, length, n))
    if not batch:
        return out
    rows = batch * length
    # blocks of whole sequences whose sizes differ by at most one; a
    # sequence's rows do not depend on the rest of its block
    blocks = max(1, min(-(-rows // BLOCK_ROWS), batch))
    bounds = [k * batch // blocks for k in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        live = masked_rows(params, z[lo:hi])
        logits = _trunk_forward(
            params, fold, z[lo:hi],
            np.asarray(t)[lo:hi] if per_example_t else t, cond[lo:hi],
            rows=live)[..., :n]
        if live is not None:
            logits[..., params.vocab.mask_index] = MASK_LOGIT
            probs = np.empty(logits.shape)
        else:
            probs = out[lo:hi]
        # column by column at any N: the order its rows' bytes follow
        np.subtract(logits, row_reduce(logits, np.maximum, n)[..., None],
                    out=logits)
        np.exp(logits, out=probs)  # float32 exp, stored as float64
        probs /= row_reduce(probs, np.add, n)[..., None]
        if live is not None:
            block = out[lo:hi].reshape(-1, n)
            block.fill(0.0)
            block.reshape(-1)[ad.flat_index(z[lo:hi], n)] = 1.0
            block[live] = probs
    return out[:asked]


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64
    MiB, once per process; nothing where ``mallopt`` is missing. Under the
    dynamic defaults a training step's freed arrays go back to the kernel
    and the next step faults the same pages in again, a third of a step's
    time at batch 256 (measured in CHANGES.md). Only where freed memory
    goes changes, never a number."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def one_hot_batch(z_batch: np.ndarray, n: int) -> np.ndarray:
    """Integer tokens of any shape to (..., n) one-hot rows."""
    out = np.zeros(np.shape(z_batch) + (n,))
    out.reshape(-1)[ad.flat_index(z_batch, n)] = 1.0
    return out


def _classify_forward(params: ClassifierParams, z: np.ndarray, t,
                      keep: list | None = None) -> np.ndarray:
    """The forward ``classify`` and ``classify_grad_wrt_onehot`` share, on
    (B, L) tokens ``_token_batch`` has checked: (B, K) log-probabilities.
    A batch of one runs as two copies, off BLAS's one-row vector path for
    the pooled head product, so a lone sequence's rows have the bytes they
    have in any batch; the caller keeps the first row."""
    if len(z) == 1:
        z = np.repeat(z, 2, axis=0)
    logits = _trunk_forward(params, params.prepared(), z, t, pool=True,
                            keep=keep)
    return ad.log_softmax(logits[:, :params.num_classes])


def classify(params: ClassifierParams, z_seq, t) -> np.ndarray:
    """Log p_phi(y | z, t) over the K classes: (K,) for one (L,) sequence,
    (B, K) for a (B, L) batch, with t shared or one per sequence."""
    z = np.asarray(z_seq)
    single = z.ndim == 1
    z = _token_batch(params, z[None] if single else z)
    logp = _classify_forward(params, z, t)
    return logp[0] if single else logp[:len(z)]


def classify_grad_wrt_onehot(
    params: ClassifierParams, z_seq, t: float, y: int
) -> tuple:
    """(log p_phi(y | z, t), d log p_phi(y | z, t) / d input) with each
    input treated as a relaxed one-hot L x N matrix: (float, (L, N)) for
    one (L,) sequence, ((B,), (B, L, N)) for a (B, L) batch.

    The forward is ``classify``'s, so the log-prob has its bytes. The
    backward is ``_trunk_backward`` from e_y - softmax, asked for the input
    gradient only: it builds no autodiff graph and computes no parameter
    gradient. The examples do not interact, so each gets its own."""
    z = np.asarray(z_seq)
    single = z.ndim == 1
    z = _token_batch(params, z[None] if single else z)
    keep = []
    logp = _classify_forward(params, z, t, keep)
    delta = -np.exp(logp)                                          # (B, K)
    delta[:, y] += 1.0
    arrays = params.values()
    grad = _trunk_backward(params, arrays, keep, delta,
                           [False] * len(arrays) + [True])[-1]
    if single:
        return float(logp[0, y]), grad[0]
    return logp[:len(z), y].copy(), grad[:len(z)]


# ------------------------------------------------------------ optimizers

class AdamState:
    """Adam with beta = (0.9, 0.999) and eps = 1e-8, bias-corrected."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, arrays: list):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step_count = 0

    def step(self, arrays: list, grads: list, lr: float) -> list:
        _check_finite(grads)
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            step = lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2)
                                             + self.EPS)
            # a trunk's arrays are read-only but for this write
            writeable = a.flags.writeable
            a.setflags(write=True)
            try:
                a -= step
            finally:
                a.setflags(write=writeable)
        return arrays


def _check_finite(grads: list) -> None:
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            bad = np.argwhere(~np.isfinite(g))[0]
            raise TrainingError(
                f"non-finite gradient in array {i} at index {tuple(bad)}"
            )


# -------------------------------------------------------------- training

def dropout_indices(labels: np.ndarray, rate: float, num_classes: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Replace each label by the unconditional row index num_classes with
    probability rate."""
    labels = np.asarray(labels, dtype=np.int64)
    dropped = rng.random(labels.shape) < rate
    return np.where(dropped, num_classes, labels)


def _as_xy(dataset):
    """Accept a data.Dataset, (X, y) pair, or bare array of sequences;
    refuse an empty one. Labels keep their dtype for the trainer's check."""
    if hasattr(dataset, "sequences"):
        x, y = dataset.sequences, getattr(dataset, "labels", None)
    elif isinstance(dataset, tuple):
        x, y = dataset
    else:
        x, y = dataset, None
    x = np.asarray(x, dtype=np.int64)
    if x.size == 0:
        raise TrainingError("empty dataset")
    return x, None if y is None else np.asarray(y)


def _fit(params, count: int, batch_loss, *, epochs: int, batch_size: int,
         lr: float, rng: np.random.Generator) -> tuple:
    """Adam on ``params`` over shuffled minibatches of ``count`` examples;
    returns (params, per-epoch mean loss trace). ``batch_loss(nodes, idx)``
    makes the batch's own draws from ``rng`` and returns its mean loss as a
    scalar Node of the parameter Nodes. Adam updates the parameter arrays
    in place, and each step bumps the trunk's version."""
    _keep_heap()
    opt = AdamState(params.values())
    trace = []
    for _ in range(epochs):
        order = rng.permutation(count)
        epoch_loss = 0.0
        for start in range(0, count, batch_size):
            idx = order[start:start + batch_size]
            nodes = param_nodes(params)
            loss_node = batch_loss(nodes, idx)
            if not np.isfinite(loss_node.value):
                raise TrainingError(f"non-finite loss {loss_node.value!r}")
            grads = ad.backprop(loss_node, nodes)
            params.version += 1  # the step writes the arrays in place
            opt.step(params.values(), grads, lr)
            epoch_loss += float(loss_node.value) * idx.shape[0]
        trace.append(epoch_loss / count)
    return params, trace


def train(
    dataset, loss_spec, *, kind: str, vocab: Vocabulary,
    num_classes: int = 0, d: int = 32, n_layers: int = 1,
    epochs: int = 10, batch_size: int = 128, lr: float = 0.01,
    condition_dropout: float = 0.10, seed: int = 0,
    params: DenoiserParams | None = None,
) -> tuple:
    """Train a denoiser; returns (params, per-epoch mean loss trace).

    One seeded generator drives shuffling, condition dropout, t draws and
    latent corruption in a fixed order, so a fixed seed reproduces the
    final parameters bitwise. Labels must be integers in [0, K); a model
    without classes takes none, condition_dropout lies in [0, 1], and
    the objective must bound the kind's prior (``loss.BOUNDS``); each is
    refused with ValueError before the first step.
    """
    from . import loss as loss_mod

    if not 0.0 <= condition_dropout <= 1.0:  # refuses NaN too
        raise ValueError("condition_dropout must lie in [0, 1]")
    x_all, y_all = _as_xy(dataset)
    if params is None:
        params = init_denoiser(vocab, x_all.shape[1], num_classes, d,
                               kind=kind, n_layers=n_layers, seed=seed)
    if y_all is not None:  # a model without classes takes no labels
        y_all = _condition_indices(y_all, params.num_classes, len(x_all))
    rng = np.random.default_rng(seed)

    def batch_loss(nodes, idx):
        if y_all is not None:
            cond = dropout_indices(y_all[idx], condition_dropout,
                                   params.num_classes, rng)
        else:
            cond = np.full(idx.shape[0], params.num_classes, dtype=np.int64)
        return loss_mod.training_loss_node(loss_spec, nodes, params,
                                           x_all[idx], cond, rng)

    return _fit(params, x_all.shape[0], batch_loss, epochs=epochs,
                batch_size=batch_size, lr=lr, rng=rng)


def train_classifier(
    dataset, *, vocab: Vocabulary, num_classes: int, d: int = 32,
    n_layers: int = 1, epochs: int = 10, batch_size: int = 128,
    lr: float = 0.01, seed: int = 0,
    params: ClassifierParams | None = None,
) -> tuple:
    """Train the classifier on noised latents: draw t uniform over the
    clamped range, corrupt x to z_t, minimize -log p_phi(y | z_t, t).
    Labels must be integers in [0, K) (ValueError)."""
    x_all, y_all = _as_xy(dataset)
    if y_all is None:
        raise TrainingError("classifier training needs labels")
    if params is None:
        params = init_classifier(vocab, x_all.shape[1], num_classes, d,
                                 n_layers=n_layers, seed=seed)
    y_all = _condition_indices(y_all, params.num_classes, len(x_all))
    schedule = params.schedule
    prior = PriorSpec.for_vocab(vocab)
    rng = np.random.default_rng(seed)

    def batch_loss(nodes, idx):
        t = schedule.draw_t(rng, size=idx.shape[0])
        z = corrupt(x_all[idx], t, prior, schedule, rng)
        logp = classifier_logprobs(nodes, params, z, t)
        return -ad.nmean(ad.gather_last(logp, y_all[idx]))

    return _fit(params, x_all.shape[0], batch_loss, epochs=epochs,
                batch_size=batch_size, lr=lr, rng=rng)
