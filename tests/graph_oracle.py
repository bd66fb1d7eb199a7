"""The trunk as a graph of small autodiff nodes: the reference that the
trunk primitive of ``catdiff.model`` (``_trunk_forward`` and its
hand-written backward) is pinned to.

The graph is the network written out the long way. It gathers the token
rows unfolded, adds their mean over positions, the position rows, the
time features times the time table and the condition rows, and runs
every layer as an explicit matmul node, so it shares no arithmetic with
the folded forward or the hand-written backward. The three ops it needs
beyond ``catdiff.autodiff`` live here, and ``tests/test_autodiff.py``
checks them against finite differences.
"""

import numpy as np

from catdiff import autodiff as ad
from catdiff.model import MASK_LOGIT, _time_features


def matmul(a, b) -> ad.Node:
    a, b = ad.as_node(a), ad.as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = a.value @ b.value

    def bwd(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        return (ad._unbroadcast(ga, a.value.shape),
                ad._unbroadcast(gb, b.value.shape))

    return ad.Node(out, (a, b), bwd)


def tanh(a) -> ad.Node:
    a = ad.as_node(a)
    out = np.tanh(a.value)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return ad.Node(out, (a,), bwd)


def take(a, idx) -> ad.Node:
    """Row lookup a[idx] along the first axis (embedding gather)."""
    a = ad.as_node(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.value[idx]

    def bwd(g):
        # one bincount over flat (row, column) keys adds the rows of g in
        # the order np.add.at would, and far faster
        cols = int(np.prod(a.value.shape[1:]))
        keys = (idx.reshape(-1, 1) * cols + np.arange(cols)).reshape(-1)
        ga = np.bincount(keys, weights=g.reshape(-1), minlength=a.value.size)
        return (ga.reshape(a.value.shape),)

    return ad.Node(out, (a,), bwd)


def trunk(field_nodes: list, params, z, t, cond_idx=None,
          pool: bool = False) -> ad.Node:
    """(B, L) tokens, or a Node of (B, L, N) relaxed one-hot rows, to
    (B, L, out) head logits, or (B, out) mean-pooled before the head."""
    if isinstance(z, ad.Node):
        feats = matmul(z, field_nodes[0])
    else:
        feats = take(field_nodes[0], z)
    batch, length, d = feats.shape
    time_in = ad.constant(np.broadcast_to(
        _time_features(params.schedule, t), (batch, 2)))
    mean = ad.reshape(ad.nsum(feats, axis=1), (batch, 1, d)) * (1.0 / length)
    h = feats + mean
    h = h + ad.reshape(field_nodes[1], (1, length, d))
    h = h + ad.reshape(matmul(time_in, field_nodes[2]), (batch, 1, d))
    if cond_idx is not None:
        h = h + ad.reshape(take(field_nodes[3], cond_idx), (batch, 1, d))
    layers = field_nodes[len(params.LEADING):-1]
    for w, b in zip(layers[0::2], layers[1::2]):
        h = tanh(matmul(h, w) + b)
    if pool:
        h = ad.nsum(h, axis=1) * (1.0 / length)
    return matmul(h, field_nodes[-1])


def denoiser_logprob_rows(field_nodes: list, params, z, t,
                          cond_idx) -> ad.Node:
    """(B, L, N) per-position log-probabilities over clean tokens."""
    logits = trunk(field_nodes, params, z, t, cond_idx)
    if params.kind == "absorbing":
        suppress = np.zeros(params.vocab.size)
        suppress[params.vocab.mask_index] = MASK_LOGIT
        logits = logits + ad.constant(suppress)
    return ad.log_softmax(logits)


def classifier_logprobs(field_nodes: list, params, z, t) -> ad.Node:
    """(B, K) log class probabilities."""
    return ad.log_softmax(trunk(field_nodes, params, z, t, pool=True))
