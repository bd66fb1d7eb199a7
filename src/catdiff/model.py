"""Trainable clean-data predictor and noised-latent classifier.

Both networks share the same position-wise trunk: per-position feature =
token embedding + position encoding + mean-pooled sequence embedding +
time features + (denoiser only) condition embedding, through tanh hidden
layers to a linear head. The denoiser emits one distribution over clean
tokens per position; the classifier mean-pools the trunk output and
emits one distribution over classes per sequence.

The unconditional branch of a conditional denoiser is the extra
condition-embedding row at index K ("DROPPED"); condition dropout during
training swaps real labels for that row. Absorbing denoisers pin the
mask column of the logits to -inf so the predictor never emits mask.

Time enters as the pair (alpha_t, 1 - alpha_t) through a learned 2 x d
projection: the simplest injective encoding under a monotone schedule.

Inference (denoise, denoise_batch, classify, classify_batch) runs one
plain-NumPy trunk forward. The autodiff graphs (denoiser_logprob_rows,
classifier_logprobs) serve only where a gradient is taken: training and
classify_grad_wrt_onehot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .core import NoiseSchedule, Vocabulary, check_sequence

DROPPED = "dropped"  # sentinel accepted wherever a condition index is

MASK_LOGIT = -1e30


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------- params

@dataclass
class DenoiserParams:
    kind: str  # uniform | absorbing
    vocab: Vocabulary
    length: int
    num_classes: int  # K real classes; 0 means unconditional-only
    d: int
    schedule: NoiseSchedule
    token_embedding: np.ndarray
    position_encoding: np.ndarray
    time_projection: np.ndarray
    condition_embedding: np.ndarray
    hidden: list  # [(W d x d, b d), ...]
    output_head: np.ndarray

    def arrays(self) -> list:
        """(name, array) pairs in the declared field order; this order is
        the checkpoint serialization order."""
        out = [
            ("token_embedding", self.token_embedding),
            ("position_encoding", self.position_encoding),
            ("time_projection", self.time_projection),
            ("condition_embedding", self.condition_embedding),
        ]
        for i, (w, b) in enumerate(self.hidden):
            out.append((f"hidden_w{i}", w))
            out.append((f"hidden_b{i}", b))
        out.append(("output_head", self.output_head))
        return out

    def set_arrays(self, values: list) -> None:
        named = dict(zip([n for n, _ in self.arrays()], values))
        self.token_embedding = named["token_embedding"]
        self.position_encoding = named["position_encoding"]
        self.time_projection = named["time_projection"]
        self.condition_embedding = named["condition_embedding"]
        self.hidden = [
            (named[f"hidden_w{i}"], named[f"hidden_b{i}"])
            for i in range(len(self.hidden))
        ]
        self.output_head = named["output_head"]

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(
            self.kind, self.vocab, self.length, self.num_classes, self.d,
            self.schedule, self.token_embedding.copy(),
            self.position_encoding.copy(), self.time_projection.copy(),
            self.condition_embedding.copy(),
            [(w.copy(), b.copy()) for w, b in self.hidden],
            self.output_head.copy(),
        )

    # Protocol used by sampler/guidance: per-sequence clean-token rows.
    def rows(self, z_seq, t, condition=None) -> np.ndarray:
        return denoise(self, z_seq, t, condition)

    def rows_batch(self, z_batch, t, cond_idx) -> np.ndarray:
        return denoise_batch(self, z_batch, t, cond_idx)


@dataclass
class ClassifierParams:
    vocab: Vocabulary
    length: int
    num_classes: int
    d: int
    schedule: NoiseSchedule
    token_embedding: np.ndarray
    position_encoding: np.ndarray
    time_projection: np.ndarray
    hidden: list
    output_head: np.ndarray

    def arrays(self) -> list:
        out = [
            ("token_embedding", self.token_embedding),
            ("position_encoding", self.position_encoding),
            ("time_projection", self.time_projection),
        ]
        for i, (w, b) in enumerate(self.hidden):
            out.append((f"hidden_w{i}", w))
            out.append((f"hidden_b{i}", b))
        out.append(("output_head", self.output_head))
        return out

    def set_arrays(self, values: list) -> None:
        named = dict(zip([n for n, _ in self.arrays()], values))
        self.token_embedding = named["token_embedding"]
        self.position_encoding = named["position_encoding"]
        self.time_projection = named["time_projection"]
        self.hidden = [
            (named[f"hidden_w{i}"], named[f"hidden_b{i}"])
            for i in range(len(self.hidden))
        ]
        self.output_head = named["output_head"]

    # Protocol used by guidance: log p(y | z_seq) at time t for all y.
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
    schedule: NoiseSchedule = None
    num_classes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "absorbing"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.schedule is None:
            self.schedule = NoiseSchedule()
        table = np.asarray(self.rows_table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != self.vocab.size:
            raise ValueError(f"rows_table shape {table.shape}, expected "
                             f"(L, {self.vocab.size})")
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("rows_table rows must be distributions")
        if self.kind == "absorbing":
            if self.vocab.mask_index is None:
                raise ValueError("absorbing model needs a mask token")
            if np.any(table[:, self.vocab.mask_index] > 0):
                raise ValueError("clean-token rows cannot put mass on the mask")
        self.rows_table = table / table.sum(axis=1, keepdims=True)
        self.rows_table.setflags(write=False)

    @classmethod
    def from_sequence(cls, x_seq, vocab: Vocabulary, *, kind: str = "uniform",
                      schedule: NoiseSchedule | None = None,
                      ) -> "ConstantDenoiser":
        """One-hot rows at a single clean sequence."""
        x = check_sequence(x_seq, vocab)
        table = np.zeros((x.shape[0], vocab.size))
        table[np.arange(x.shape[0]), x] = 1.0
        return cls(kind, vocab, table, schedule=schedule)

    @property
    def length(self) -> int:
        return self.rows_table.shape[0]

    def rows(self, z_seq, t, condition=None) -> np.ndarray:
        z = check_sequence(z_seq, self.vocab)
        if z.shape[0] != self.length:
            raise ValueError(f"expected length {self.length}, got {z.shape[0]}")
        return self.rows_table.copy()

    def rows_batch(self, z_batch, t, cond_idx=None) -> np.ndarray:
        z = np.asarray(z_batch, dtype=np.int64)
        return np.tile(self.rows_table, (z.shape[0], 1, 1))


def init_denoiser(
    vocab: Vocabulary, length: int, num_classes: int, d: int,
    *, kind: str, n_layers: int = 1, seed: int = 0, scale: float = 0.1,
    schedule: NoiseSchedule | None = None,
) -> DenoiserParams:
    if kind not in ("uniform", "absorbing"):
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "absorbing" and vocab.mask_index is None:
        raise ValueError("absorbing denoiser needs a vocabulary with a mask token")
    rng = np.random.default_rng(seed)
    n = vocab.size

    def mat(*shape):
        return scale * rng.standard_normal(shape)

    return DenoiserParams(
        kind=kind, vocab=vocab, length=length, num_classes=num_classes, d=d,
        schedule=schedule or NoiseSchedule(),
        token_embedding=mat(n, d),
        position_encoding=mat(length, d),
        time_projection=mat(2, d),
        condition_embedding=mat(num_classes + 1, d),
        hidden=[(mat(d, d), np.zeros(d)) for _ in range(n_layers)],
        output_head=mat(d, n),
    )


def init_classifier(
    vocab: Vocabulary, length: int, num_classes: int, d: int,
    *, n_layers: int = 1, seed: int = 0, scale: float = 0.1,
    schedule: NoiseSchedule | None = None,
) -> ClassifierParams:
    rng = np.random.default_rng(seed)
    n = vocab.size

    def mat(*shape):
        return scale * rng.standard_normal(shape)

    return ClassifierParams(
        vocab=vocab, length=length, num_classes=num_classes, d=d,
        schedule=schedule or NoiseSchedule(),
        token_embedding=mat(n, d),
        position_encoding=mat(length, d),
        time_projection=mat(2, d),
        hidden=[(mat(d, d), np.zeros(d)) for _ in range(n_layers)],
        output_head=mat(d, num_classes),
    )


# --------------------------------------------------------------- forward

def _condition_indices(condition, num_classes: int, batch: int) -> np.ndarray:
    """Map a condition (None/DROPPED/int/array) to embedding row indices.
    Real labels lie in [0, num_classes); only None and DROPPED select the
    unconditional row num_classes."""
    if condition is None or (isinstance(condition, str) and condition == DROPPED):
        return np.full(batch, num_classes, dtype=np.int64)
    idx = np.asarray(condition, dtype=np.int64)
    if idx.ndim == 0:
        idx = np.full(batch, int(idx), dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= num_classes):
        raise ValueError(f"condition label out of range [0, {num_classes}); "
                         f"pass None or DROPPED for the unconditional row")
    return idx


def denoiser_logprob_rows(
    field_nodes: list, params: DenoiserParams,
    z_batch: np.ndarray, t: np.ndarray, cond_idx: np.ndarray,
) -> ad.Node:
    """Batched forward pass on parameter Nodes: (B, L) latents to
    (B, L, N) per-position log-probabilities over clean tokens."""
    tok, pos, time_w, cond_e = field_nodes[:4]
    head = field_nodes[-1]
    hidden = [
        (field_nodes[4 + 2 * i], field_nodes[5 + 2 * i])
        for i in range(len(params.hidden))
    ]
    batch = z_batch.shape[0]
    time_in = _time_features(params.schedule, t)                   # (B, 2)

    feats = ad.take(tok, z_batch)                                  # (B, L, d)
    feats = feats + ad.nmean(feats, axis=1, keepdims=True)
    feats = feats + ad.reshape(pos, (1, params.length, params.d))
    feats = feats + ad.reshape(ad.matmul(ad.constant(time_in), time_w),
                               (batch, 1, params.d))
    feats = feats + ad.reshape(ad.take(cond_e, cond_idx), (batch, 1, params.d))

    h = feats
    for w, b in hidden:
        h = ad.tanh(ad.matmul(h, w) + b)
    logits = ad.matmul(h, head)                                    # (B, L, N)
    if params.kind == "absorbing":
        suppress = np.zeros(params.vocab.size)
        suppress[params.vocab.mask_index] = MASK_LOGIT
        logits = logits + ad.constant(suppress)
    return ad.log_softmax(logits)


def param_nodes(params) -> list:
    return [ad.param(a) for _, a in params.arrays()]


def constant_nodes(params) -> list:
    return [ad.constant(a) for _, a in params.arrays()]


def _time_features(schedule: NoiseSchedule, t) -> np.ndarray:
    """(alpha_t, 1 - alpha_t) as a (len(t), 2) array; a scalar t gives
    one row."""
    alpha = np.atleast_1d(schedule.alpha(t))
    return np.stack([alpha, 1.0 - alpha], axis=1)


def _trunk_forward(params, z_batch, t,
                   cond_idx: np.ndarray | None = None,
                   pool: bool = False) -> np.ndarray:
    """Autodiff-free forward of the trunk both networks share: (B, L)
    tokens to (B, L, out) head logits, or (B, out) with ``pool``, which
    mean-pools the positions before the head (the classifier readout).
    ``t`` is one time for the batch or one per example.

    The features before the first linear map are a sum of table rows, so
    the map is folded into each table (token, position, time, condition)
    and the features are gathered already projected. The tables are
    rebuilt on every call from the current parameter arrays: they are
    small (N, L, 2 and K + 1 rows) and can never go stale.
    """
    z_batch = np.asarray(z_batch, dtype=np.int64)
    if z_batch.ndim != 2 or z_batch.shape[1] != params.length:
        raise ValueError(f"expected (B, {params.length}) latents, "
                         f"got shape {z_batch.shape}")
    length = params.length
    maps = list(params.hidden) + [(params.output_head, None)]
    w0, b0 = maps[0]
    h = (params.token_embedding @ w0)[z_batch]                     # (B, L, d0)
    per_seq = h.sum(axis=1, keepdims=True)                         # (B, 1, d0)
    per_seq /= length
    per_seq += (_time_features(params.schedule, t)
                @ (params.time_projection @ w0))[:, None, :]
    if cond_idx is not None:
        per_seq += (params.condition_embedding @ w0)[cond_idx][:, None, :]
    per_pos = params.position_encoding @ w0                        # (L, d0)
    if b0 is not None:
        per_pos += b0
    h += per_seq
    h += per_pos
    for w, b in maps[1:]:
        np.tanh(h, out=h)
        if pool and b is None:  # the classifier pools before its head
            h = h.sum(axis=1) / length
            pool = False
        h = (h.reshape(-1, h.shape[-1]) @ w).reshape(h.shape[:-1] + (-1,))
        if b is not None:
            h += b
    return h.sum(axis=1) / length if pool else h


def denoise(
    params: DenoiserParams, z_seq, t: float, condition=None
) -> np.ndarray:
    """Per-position clean-token distributions x_theta(z_t, t) as an
    (L, N) array of rows, each summing to 1."""
    z = check_sequence(z_seq, params.vocab)
    return denoise_batch(params, z[None, :], t, condition)[0]


def denoise_batch(
    params: DenoiserParams, z_batch: np.ndarray, t, cond_idx
) -> np.ndarray:
    """(B, L) latents to (B, L, N) probability rows, shared or per-example
    t. ``cond_idx`` is None/DROPPED (unconditional), a label, or one label
    per example."""
    cond = _condition_indices(cond_idx, params.num_classes, len(z_batch))
    logits = _trunk_forward(params, z_batch, t, cond)
    if params.kind == "absorbing":
        logits[..., params.vocab.mask_index] = MASK_LOGIT
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def denoise_with_copy_floor(
    params: DenoiserParams, z_seq, t: float, condition=None,
    t_floor: float = 1e-4,
) -> np.ndarray:
    """Below t_floor the uniform-noise predictor copies its input
    (one-hot rows); elsewhere defers to denoise."""
    if params.kind != "uniform":
        raise ValueError("copy floor applies to uniform-noise models only")
    if t <= t_floor:
        z = check_sequence(z_seq, params.vocab)
        rows = np.zeros((params.length, params.vocab.size))
        rows[np.arange(params.length), z] = 1.0
        return rows
    return denoise(params, z_seq, t, condition)


def classifier_logprobs(
    field_nodes: list, params: ClassifierParams,
    z_onehot: ad.Node, t: np.ndarray,
) -> ad.Node:
    """Batched classifier forward on a relaxed one-hot input Node
    (B, L, N) to (B, K) log class probabilities."""
    tok, pos, time_w = field_nodes[:3]
    head = field_nodes[-1]
    hidden = [
        (field_nodes[3 + 2 * i], field_nodes[4 + 2 * i])
        for i in range(len(params.hidden))
    ]
    batch = z_onehot.value.shape[0]
    time_in = _time_features(params.schedule, t)

    feats = ad.matmul(z_onehot, tok)                               # (B, L, d)
    feats = feats + ad.nmean(feats, axis=1, keepdims=True)
    feats = feats + ad.reshape(pos, (1, params.length, params.d))
    feats = feats + ad.reshape(ad.matmul(ad.constant(time_in), time_w),
                               (batch, 1, params.d))
    h = feats
    for w, b in hidden:
        h = ad.tanh(ad.matmul(h, w) + b)
    pooled = ad.nmean(h, axis=1)                                   # (B, d)
    return ad.log_softmax(ad.matmul(pooled, head))


def one_hot_batch(z_batch: np.ndarray, n: int) -> np.ndarray:
    z_batch = np.asarray(z_batch, dtype=np.int64)
    out = np.zeros(z_batch.shape + (n,))
    np.put_along_axis(out, z_batch[..., None], 1.0, axis=-1)
    return out


def classify(params: ClassifierParams, z_seq, t: float) -> np.ndarray:
    """Log p_phi(y | z_seq, t) over the K classes."""
    z = check_sequence(z_seq, params.vocab)
    return classify_batch(params, z[None, :], t)[0]


def classify_batch(params: ClassifierParams, z_batch, t) -> np.ndarray:
    """(B, L) latents to (B, K) log class probabilities, shared or
    per-example t."""
    logits = _trunk_forward(params, z_batch, t, pool=True)
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def classify_grad_wrt_onehot(
    params: ClassifierParams, z_seq, t: float, y: int
) -> tuple:
    """(log p_phi(y | z_seq, t), d log p_phi / d input) with the input
    treated as a relaxed one-hot L x N matrix. One forward + one backward."""
    z = check_sequence(z_seq, params.vocab)
    inp = ad.param(one_hot_batch(z[None, :], params.vocab.size))
    logp = classifier_logprobs(constant_nodes(params), params, inp,
                               np.array([t]))
    target = ad.nsum(ad.gather_last(logp, np.array([y])))
    (grad,) = ad.backprop(target, [inp])
    return float(target.value), grad[0]


# ------------------------------------------------------------ optimizers

def sgd_step(arrays: list, grads: list, lr: float, momentum_state=None,
             momentum: float = 0.0) -> list:
    """Plain (optionally momentum) SGD; mutates and returns arrays."""
    _check_finite(grads)
    for i, (a, g) in enumerate(zip(arrays, grads)):
        if momentum_state is not None:
            momentum_state[i] = momentum * momentum_state[i] + g
            g = momentum_state[i]
        a -= lr * g
    return arrays


class AdamState:
    """Adam with beta = (0.9, 0.999), bias-corrected."""

    def __init__(self, arrays: list, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step_count = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, arrays: list, grads: list, lr: float) -> list:
        _check_finite(grads)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            a -= lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)
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
    """Replace each label by the DROPPED row index with probability rate."""
    labels = np.asarray(labels, dtype=np.int64)
    dropped = rng.random(labels.shape) < rate
    return np.where(dropped, num_classes, labels)


def _as_xy(dataset):
    """Accept a data.Dataset, (X, y) pair, or bare array of sequences."""
    if hasattr(dataset, "sequences"):
        return np.asarray(dataset.sequences, dtype=np.int64), getattr(
            dataset, "labels", None)
    if isinstance(dataset, tuple):
        x, y = dataset
        return np.asarray(x, dtype=np.int64), (
            None if y is None else np.asarray(y, dtype=np.int64))
    return np.asarray(dataset, dtype=np.int64), None


def train(
    dataset, loss_spec, *, kind: str, vocab: Vocabulary,
    num_classes: int = 0, d: int = 32, n_layers: int = 1,
    epochs: int = 10, batch_size: int = 128, lr: float = 0.01,
    condition_dropout: float = 0.10, seed: int = 0,
    params: DenoiserParams | None = None,
) -> tuple:
    """Train a denoiser; returns (params, per-epoch mean loss trace).

    One seeded generator drives shuffling, t draws, latent corruption,
    and condition dropout in a fixed order, so a fixed seed reproduces
    the final parameters bitwise.
    """
    from . import loss as loss_mod

    x_all, y_all = _as_xy(dataset)
    if x_all.size == 0:
        raise TrainingError("empty dataset")
    length = x_all.shape[1]
    if params is None:
        params = init_denoiser(vocab, length, num_classes, d, kind=kind,
                               n_layers=n_layers, seed=seed)
    rng = np.random.default_rng(seed)
    opt = AdamState([a for _, a in params.arrays()])
    trace = []
    for _ in range(epochs):
        order = rng.permutation(x_all.shape[0])
        epoch_loss, seen = 0.0, 0
        for start in range(0, x_all.shape[0], batch_size):
            idx = order[start:start + batch_size]
            x = x_all[idx]
            if y_all is not None and params.num_classes > 0:
                cond = dropout_indices(y_all[idx], condition_dropout,
                                       params.num_classes, rng)
            else:
                cond = np.full(x.shape[0], params.num_classes, dtype=np.int64)
            nodes = param_nodes(params)
            loss_node = loss_mod.training_loss_node(
                loss_spec, nodes, params, x, cond, rng)
            if not np.isfinite(loss_node.value):
                raise TrainingError(f"non-finite loss {loss_node.value!r}")
            grads = ad.backprop(loss_node, nodes)
            arrays = [a for _, a in params.arrays()]
            opt.step(arrays, grads, lr)
            params.set_arrays(arrays)
            epoch_loss += float(loss_node.value) * x.shape[0]
            seen += x.shape[0]
        trace.append(epoch_loss / seen)
    return params, trace


def train_classifier(
    dataset, *, vocab: Vocabulary, num_classes: int, d: int = 32,
    n_layers: int = 1, epochs: int = 10, batch_size: int = 128,
    lr: float = 0.01, seed: int = 0,
    params: ClassifierParams | None = None,
) -> tuple:
    """Train the classifier on noised latents: draw t uniform over the
    clamped range, corrupt x to z_t, minimize -log p_phi(y | z_t, t)."""
    from .forward import PriorSpec

    x_all, y_all = _as_xy(dataset)
    if x_all.size == 0:
        raise TrainingError("empty dataset")
    if y_all is None:
        raise TrainingError("classifier training needs labels")
    length = x_all.shape[1]
    if params is None:
        params = init_classifier(vocab, length, num_classes, d,
                                 n_layers=n_layers, seed=seed)
    schedule = params.schedule
    prior = PriorSpec.for_vocab(vocab)
    rng = np.random.default_rng(seed)
    opt = AdamState([a for _, a in params.arrays()])
    trace = []
    for _ in range(epochs):
        order = rng.permutation(x_all.shape[0])
        epoch_loss, seen = 0.0, 0
        for start in range(0, x_all.shape[0], batch_size):
            idx = order[start:start + batch_size]
            x, y = x_all[idx], y_all[idx]
            t = schedule.draw_t(rng, size=x.shape[0])
            keep = rng.random(x.shape) < schedule.alpha(t)[:, None]
            noise = rng.choice(vocab.size, size=x.shape, p=prior.pi.probs)
            z = np.where(keep, x, noise)
            nodes = param_nodes(params)
            onehot = ad.constant(one_hot_batch(z, vocab.size))
            logp = classifier_logprobs(nodes, params, onehot, t)
            loss_node = -ad.nmean(ad.gather_last(logp, y))
            if not np.isfinite(loss_node.value):
                raise TrainingError(f"non-finite loss {loss_node.value!r}")
            grads = ad.backprop(loss_node, nodes)
            arrays = [a for _, a in params.arrays()]
            opt.step(arrays, grads, lr)
            params.set_arrays(arrays)
            epoch_loss += float(loss_node.value) * x.shape[0]
            seen += x.shape[0]
        trace.append(epoch_loss / seen)
    return params, trace
