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

``training_loss`` is the full-row reference for the training losses:
every position's rows and terms, with an absorbing denoiser's unmasked
positions carried over and weighted 0, against which the loss that runs
on the masked rows alone is pinned.
"""

import numpy as np

from catdiff import autodiff as ad
from catdiff import loss as L
from catdiff.forward import corrupt
from catdiff.model import MASK_LOGIT, _Folded, _time_features, _trunk_forward


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


def denoiser_logprob_rows(field_nodes: list, params, z, t, cond_idx,
                          trunk=trunk) -> ad.Node:
    """(B, L, N) per-position log-probabilities over clean tokens, every
    row computed. An absorbing denoiser's row at an unmasked position is
    one-hot at its latent: its logits there are replaced by 0 at the
    latent and MASK_LOGIT elsewhere, so no gradient reaches the network
    from it."""
    logits = trunk(field_nodes, params, z, t, cond_idx)
    if params.kind == "absorbing":
        suppress = np.zeros(params.vocab.size)
        suppress[params.vocab.mask_index] = MASK_LOGIT
        masked = (np.asarray(z) == params.vocab.mask_index)[..., None]
        carried = np.where(np.eye(params.vocab.size)[z] > 0, 0.0, MASK_LOGIT)
        logits = ((logits + ad.constant(suppress)) * masked
                  + np.where(masked, 0.0, carried))
    return ad.log_softmax(logits)


def folded_trunk(field_nodes: list, params, z, t, cond_idx) -> ad.Node:
    """The trunk's own folded forward at every position, as a constant:
    the arithmetic of ``catdiff.model._trunk_forward`` without carry-over,
    for comparing loss values byte for byte. A lone position runs as two
    copies, as the trunk runs a lone kept row, off BLAS's vector path."""
    fold = _Folded(params, [n.value for n in field_nodes])
    z, t, cond_idx = np.asarray(z), np.asarray(t), np.asarray(cond_idx)
    copies = 2 if z.size == 1 else 1
    logits = _trunk_forward(params, fold, np.repeat(z, copies, axis=0),
                            np.repeat(t, copies), np.repeat(cond_idx, copies))
    return ad.constant(logits[:len(z)])


def training_loss(spec, field_nodes: list, params, x, cond_idx, rng,
                  trunk=trunk) -> ad.Node:
    """``catdiff.loss.training_loss_node`` on every row: the same draws,
    each position's rows from ``denoiser_logprob_rows``, and each
    objective's term at every position, summed over positions and
    averaged over the batch. An absorbing denoiser's unmasked positions
    get weight 0."""
    schedule, prior = params.schedule, params.prior
    batch, length = x.shape
    if spec.objective == "nelbo_discrete":
        i = rng.integers(1, spec.T + 1, size=batch)
        t, s = i / spec.T, (i - 1) / spec.T
    else:
        t = schedule.draw_t(rng, size=batch)
    z = corrupt(x, t, prior, schedule, rng)
    rows = denoiser_logprob_rows(field_nodes, params, z, t, cond_idx, trunk)
    weight = np.ones(z.shape)
    if params.kind == "absorbing":
        weight = (z == params.vocab.mask_index) * 1.0
    if spec.objective == "nelbo_discrete":
        # each position as a sequence of one, so a position's term can be
        # weighted
        one = (batch * length, 1)
        terms = L._kl_terms(
            ad.exp(ad.reshape(rows, one + (prior.size,))), x.reshape(one),
            z.reshape(one), np.repeat(t, length), np.repeat(s, length),
            prior, schedule)
        terms = ad.reshape(terms, z.shape) * weight
        return float(spec.T) * ad.nmean(ad.nsum(terms, axis=1))
    if spec.objective == "mdlm_continuous":
        rate = L._mdlm_rate(rows, x, z, t, schedule, params.vocab.mask_index)
    else:
        kernel = (L._udlm_rate if spec.objective == "udlm_continuous"
                  else L._sedd_rate)
        rate = kernel(ad.exp(rows), x, z, t, schedule)
    width = schedule.t_max - schedule.t_min
    return width * ad.nmean(ad.nsum(rate * weight, axis=1))


def classifier_logprobs(field_nodes: list, params, z, t) -> ad.Node:
    """(B, K) log class probabilities."""
    return ad.log_softmax(trunk(field_nodes, params, z, t, pool=True))
