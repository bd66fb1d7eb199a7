import hashlib
import itertools
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from catdiff import autodiff as ad
from catdiff import model as M
from catdiff.checkpoint import load_checkpoint, save_checkpoint
from catdiff.core import NoiseSchedule, Vocabulary
from catdiff.forward import PriorSpec
from catdiff.guidance import GuidanceConfig
from catdiff.loss import LossSpec, nelbo_discrete, training_loss_node
from catdiff.sampler import SampleRequest, generate
from catdiff.verify import finite_difference_grads

from . import graph_oracle

VOCAB3 = Vocabulary(3)
VOCAB4M = Vocabulary(4, mask_index=3)


def tiny_denoiser(seed=0, scale=0.1, kind="uniform", num_classes=2, length=4):
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    return M.init_denoiser(vocab, length, num_classes, 8, kind=kind,
                           seed=seed, scale=scale)


# ----------------------------------------------------------------- denoise

@pytest.mark.parametrize("seed", [0, 7])
def test_init_draws_scaled_normals_in_checkpoint_order(seed):
    # N = 4, L = 5, K = 3, d = 6, two hidden layers
    den = M.init_denoiser(VOCAB4M, 5, 3, 6, kind="absorbing", n_layers=2,
                          seed=seed, scale=0.3)
    clf = M.init_classifier(VOCAB4M, 5, 3, 6, n_layers=2, seed=seed,
                            scale=0.3)
    trunk = [(4, 6), (5, 6), (2, 6)]
    layers = [(6, 6), (6,), (6, 6), (6,)]
    for params, shapes in ((den, trunk + [(4, 6)] + layers + [(6, 4)]),
                           (clf, trunk + layers + [(6, 3)])):
        rng = np.random.default_rng(seed)
        assert [a.shape for _, a in params.arrays()] == shapes
        for name, a in params.arrays():
            if name.startswith("hidden_b"):
                assert np.array_equal(a, np.zeros(6))
            else:
                assert np.array_equal(a, 0.3 * rng.standard_normal(a.shape))


def test_zero_init_gives_uniform_rows():
    params = tiny_denoiser(scale=0.0)
    rows = M.denoise(params, [0, 1, 2, 0], 0.5, condition=1)
    assert np.allclose(rows, 1 / 3, atol=1e-15)


def test_rows_sum_to_one_sweep():
    params = tiny_denoiser(seed=3, scale=0.5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.integers(0, 3, size=4)
        t = rng.uniform(0.01, 0.99)
        rows = M.denoise(params, z, t, condition=int(rng.integers(0, 2)))
        assert rows.shape == (4, 3)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows >= 0)


def test_denoise_deterministic():
    params = tiny_denoiser(seed=1)
    a = M.denoise(params, [0, 1, 2, 0], 0.3, condition=0)
    b = M.denoise(params, [0, 1, 2, 0], 0.3, condition=0)
    assert np.array_equal(a, b)


def test_denoise_batch_matches_single_and_no_coupling():
    params = tiny_denoiser(seed=2)
    z1, z2 = np.array([0, 1, 2, 0]), np.array([2, 2, 1, 0])
    single = M.denoise(params, z1, 0.4, condition=1)
    batched = M.denoise_batch(params, np.stack([z1, z2]), 0.4, np.array([1, 0]))
    assert np.allclose(batched[0], single, atol=1e-15)


def test_condition_changes_output():
    params = tiny_denoiser(seed=4)
    a = M.denoise(params, [0, 1, 2, 0], 0.4, condition=0)
    b = M.denoise(params, [0, 1, 2, 0], 0.4, condition=1)
    c = M.denoise(params, [0, 1, 2, 0], 0.4, condition=None)  # unconditional row
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_condition_out_of_range():
    params = tiny_denoiser()  # K = 2; row 2 is the unconditional row
    for label in (5, 2, -1, "dropped"):
        with pytest.raises(ValueError):
            M.denoise(params, [0, 1, 2, 0], 0.4, condition=label)
    with pytest.raises(ValueError):
        M.denoise_batch(params, np.zeros((2, 4)), 0.4, np.array([0, 2]))
    # a label that is not an integer is refused, not truncated to 1
    z = np.zeros((2, 4), dtype=np.int64)
    for label in (1.7, np.array([1.9, 1.2]), True, np.True_, [1.0, None],
                  (None, 1.5), [True, 0], [np.True_, None]):
        with pytest.raises(ValueError, match="integers"):
            M.denoise_batch(params, z, 0.4, label)
    # NumPy integer labels of any width read as their value
    want = M.denoise_batch(params, z, 0.4, 1).tobytes()
    for label in (np.int32(1), np.uint8(1), np.array([1, 1], dtype=np.int16),
                  [np.int64(1), 1], (1, np.uint16(1))):
        assert M.denoise_batch(params, z, 0.4, label).tobytes() == want
    # a list is parsed one run of equal entries at a time: a bool, float or
    # bad label inside a run of equal labels is still refused
    z4 = np.zeros((4, 4), dtype=np.int64)
    for label in ([1, True, 1, 1], [1, 1, 1.0, 1], [0, 0, np.True_, None],
                  (None, None, 1, np.float64(1.0))):
        with pytest.raises(ValueError, match="integers"):
            M.denoise_batch(params, z4, 0.4, label)
    for label in ([1, 1, 2, 2], [None, None, -1, None], (0, 0, 0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            M.denoise_batch(params, z4, 0.4, label)
    with pytest.raises(ValueError, match="one condition per example"):
        M.denoise_batch(params, z4, 0.4, [1] * 3 + [None] * 2)


def test_condition_runs_match_entry_by_entry():
    # each entry maps to its label, None to the unconditional row K
    gen = np.random.default_rng(6)
    for size in (0, 1, 2, 7, 40):
        for choices in ([None, 0, 1], [1], [None], [0, np.int64(1), None]):
            cond = [choices[i] for i in gen.integers(0, len(choices), size)]
            if size > 5:  # long runs, as classifier-free guidance stacks
                cond = sorted(cond, key=lambda c: c is None)
            want = np.array([2 if c is None else c for c in cond], np.int64)
            got = M._condition_indices(cond, 2, size)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
            got = M._condition_indices(tuple(cond), 2, size)
            assert got.tobytes() == want.tobytes()


def test_per_example_condition_matches_shared_conditions():
    # None entries take the unconditional row, labels their own; a list
    # of labels reads as the array of those labels
    params = tiny_denoiser(seed=4, scale=0.8)
    z = np.random.default_rng(4).integers(0, 3, size=(4, 4))
    per_example = [1, None, 0, None]
    mixed = M.denoise_batch(params, z, 0.4, per_example)
    for b, cond in enumerate(per_example):
        assert mixed[b].tobytes() == \
            M.denoise_batch(params, z, 0.4, cond)[b].tobytes()
    assert M.denoise_batch(params, z, 0.4, [1, 0, 0, 1]).tobytes() == \
        M.denoise_batch(params, z, 0.4, np.array([1, 0, 0, 1])).tobytes()
    with pytest.raises(ValueError, match="one condition per example"):
        M.denoise_batch(params, z, 0.4, np.array([1, 0]))


@pytest.mark.parametrize("num_classes", [0, 2])
def test_per_example_condition_rejects_labels_outside_classes(num_classes):
    # K names the unconditional row, reached only through None; -1 would
    # read it by wraparound
    params = tiny_denoiser(num_classes=num_classes)
    z = np.zeros((3, 4), dtype=np.int64)
    assert M.denoise_batch(params, z, 0.4, [None] * 3).shape == (3, 4, 3)
    for bad in (num_classes, -1):
        with pytest.raises(ValueError, match="out of range"):
            M.denoise_batch(params, z, 0.4, [None, bad, None])
        with pytest.raises(ValueError, match="out of range"):
            M.denoise_batch(params, z, 0.4, (bad, None, None))
    with pytest.raises(ValueError, match="one condition per example"):
        M.denoise_batch(params, z, 0.4, [None, None])


@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
def test_one_position_rows_match_the_batch(kind):
    # a lone position runs as two copies: as a one-row product it took
    # BLAS's vector path, and at d = 64 its rows differed from the batch's.
    # At L = 3 each absorbing sequence holds one masked position: alone,
    # its hidden layers and head run on that one row
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    n = vocab.size
    longer = np.random.default_rng(3).integers(0, 3, size=(n, 3))
    if kind == "absorbing":
        longer[np.arange(n), np.arange(n) % 3] = vocab.mask_index
    cases = [(0.4, None), (0.4, 1), (np.full(n, 0.7), [0] * n),
             (np.full(n, 0.7), [None] * n)]
    for z in (np.arange(n)[:, None], longer):
        length = z.shape[1]
        for seed in range(4):
            params = M.init_denoiser(vocab, length, 2, 64, kind=kind,
                                     n_layers=2, seed=seed, scale=0.5)
            for t, cond in cases:
                batch = M.denoise_batch(params, z, t, cond)
                for i in range(n):
                    one = M.denoise_batch(
                        params, z[i:i + 1],
                        t if np.ndim(t) == 0 else t[i:i + 1],
                        cond if np.ndim(cond) == 0 else cond[i:i + 1])
                    assert one.shape == (1, length, vocab.size)
                    assert one.tobytes() == batch[i:i + 1].tobytes()
            assert M.denoise(params, z[1], 0.4).tobytes() \
                == M.denoise_batch(params, z, 0.4, None)[1].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 48])
def test_pool_sum_keeps_the_bytes_of_sum(d, dtype):
    # einsum adds the positions in order, as sum over a middle axis does;
    # at d = 1 sum sees contiguous positions and adds them pairwise, so
    # _pool_sum keeps sum there
    gen = np.random.default_rng(d)
    for length in range(1, 34):
        for batch in (1, 3):
            h = gen.standard_normal((batch, length, d)).astype(dtype)
            want = h.sum(axis=1)
            got = M._pool_sum(h)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            if d > 1:
                assert np.einsum("bld->bd", h).tobytes() == want.tobytes()


def test_absorbing_mask_column_is_zero():
    params = tiny_denoiser(kind="absorbing", seed=5)
    rows = M.denoise(params, [3, 1, 3, 2], 0.7)
    assert np.all(rows[:, 3] == 0.0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


# A token outside [0, N) must not wrap to another embedding row (-1 is the
# mask row of an absorbing vocabulary) or escape as an IndexError.
BAD_TOKENS = [[-1, 0, 1, 2], [0, 1, 2, 3], [0, 0, 0, 99]]


@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_denoise_batch_rejects_out_of_range_tokens(bad):
    params = tiny_denoiser()
    with pytest.raises(ValueError, match="token"):
        M.denoise_batch(params, np.array([[0, 1, 2, 0], bad]), 0.5, None)
    absorbing = tiny_denoiser(kind="absorbing")
    with pytest.raises(ValueError, match="token"):
        M.denoise_batch(absorbing, np.array([[-1, 0, 1, 2]]), 0.5, None)


@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_classifier_forwards_reject_out_of_range_tokens(bad):
    clf = M.init_classifier(VOCAB3, 4, 2, 8, seed=1)
    z = np.array([[0, 1, 2, 0], bad])
    with pytest.raises(ValueError, match="token"):
        M.classify(clf, z, 0.5)
    with pytest.raises(ValueError, match="token"):
        clf.log_probs(z, 0.5)
    with pytest.raises(ValueError, match="token"):
        clf.grad_log_prob(z, 0.5, 0)


@pytest.mark.parametrize("bad", BAD_TOKENS + [[-1, 99], [0, 1, 2, 0, 1, 2]])
def test_constant_denoiser_rejects_bad_latents(bad):
    # out-of-range tokens and latents of the wrong length are usage errors,
    # not a silently tiled row block
    den = M.ConstantDenoiser.from_sequence([0, 1, 2, 1], VOCAB3)
    with pytest.raises(ValueError):
        den.rows_batch(np.array([bad]), 0.5)
    assert den.rows_batch(np.array([[0, 1, 2, 0]]), 0.5).shape == (1, 4, 3)


def test_nelbo_rejects_latents_longer_than_constant_denoiser():
    den = M.ConstantDenoiser.from_sequence([0, 1, 2, 1], VOCAB3)
    x = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(ValueError, match="latents"):
        nelbo_discrete(x, den, 4, den.prior, den.schedule, mode="mc",
                       rng=np.random.default_rng(0))


# The trunk's forward and backward are pinned to the graph of small
# autodiff nodes in tests/graph_oracle.py, evaluated on constant nodes.
# denoise_batch runs the trunk and the softmax's exponentials in float32
# (float32 epsilon 1.2e-7), so its rows are pinned to that float64 graph
# at FLOAT32_ROWS: the worst deviation seen over 800 random networks (d 8
# and 48, standard-normal and init-scale weights) was 2.3e-6.
FLOAT32_ROWS = 1e-5


def _randomized(params, rng):
    """Every array redrawn, so hidden biases are non-zero too."""
    params.set_arrays([(name, rng.standard_normal(a.shape))
                       for name, a in params.arrays()])
    return params


def _latents_and_times(rng, batch, length, n, shared_t):
    z = rng.integers(0, n, size=(batch, length))
    t = rng.uniform(0.01, 0.99) if shared_t else rng.uniform(0.01, 0.99, batch)
    return z, t, np.broadcast_to(t, (batch,)).copy()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["uniform", "absorbing"]),
    st.sampled_from([0, 3]),
    st.booleans(),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from([1, 7, 13]),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_denoise_batch_matches_autodiff_graph(kind, num_classes, use_labels,
                                              n_layers, shared_t, batch, seed):
    rng = np.random.default_rng(seed)
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    params = _randomized(M.init_denoiser(vocab, 5, num_classes, 8, kind=kind,
                                         n_layers=n_layers), rng)
    z, t, t_rows = _latents_and_times(rng, batch, 5, vocab.size, shared_t)
    labels = (rng.integers(0, num_classes, size=batch)
              if use_labels and num_classes else None)
    # at 20 rows a block, 7 sequences of 5 positions run as blocks of 3
    # and 4, 13 sequences as 3, 3, 3 and 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "BLOCK_ROWS", 20)
        got = M.denoise_batch(params, z, t, labels)
    rows = np.full(batch, num_classes) if labels is None else labels
    want = np.exp(graph_oracle.denoiser_logprob_rows(
        M.constant_nodes(params), params, z, t_rows, rows).value)
    assert got.shape == (batch, 5, vocab.size)
    assert np.max(np.abs(got - want)) <= FLOAT32_ROWS
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12
    if kind == "absorbing":
        assert np.all(got[..., vocab.mask_index] == 0.0)


# Blocked forward at L = 5: (BLOCK_ROWS, the block sizes it must give).
# 20 rows are 4 sequences: batches below, at and above them, and
# 9 = 2 * 4 + 1. At 13 rows, 10 sequences would leave a one-sequence tail
# after blocks of ceil(10 / 4) = 3. At one sequence (5 rows) or less
# (1 row), each sequence is a block of its own, with the bytes of the
# whole batch under a per-example t too.
BLOCK_CASES = [(20, [3]), (20, [4]), (20, [2, 3]), (20, [3, 3, 3]),
               (13, [2, 3, 2, 3]), (5, [1] * 7), (1, [1] * 3), (1, [1])]


@pytest.mark.parametrize("block_rows,sizes", BLOCK_CASES)
@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
def test_denoise_batch_blocks_match_one_block(monkeypatch, block_rows, sizes,
                                              kind):
    batch = sum(sizes)
    rng = np.random.default_rng(block_rows * 100 + batch)
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    params = _randomized(M.init_denoiser(vocab, 5, 3, 8, kind=kind,
                                         n_layers=2), rng)
    z = rng.integers(0, vocab.size, size=(batch, 5))
    seen = []
    trunk = M._trunk_forward

    def counted(params, arrays, z_block, *args, **kwargs):
        seen.append(len(z_block))
        return trunk(params, arrays, z_block, *args, **kwargs)

    monkeypatch.setattr(M, "_trunk_forward", counted)
    for t in (0.37, rng.uniform(0.01, 0.99, batch)):
        for cond in (None, 1, rng.integers(0, 3, size=batch)):
            # the float64 softmax over the whole batch's float64 logits,
            # without the padded head's zero columns
            logits = trunk(params, params.prepared(), z, t,
                           M._condition_indices(cond, 3, batch))
            logits = logits[..., :vocab.size]
            if kind == "absorbing":
                logits[..., vocab.mask_index] = M.MASK_LOGIT
            logits = np.exp(logits - logits.max(axis=-1, keepdims=True))
            logits /= logits.sum(axis=-1, keepdims=True)
            if kind == "absorbing":  # carry-over at the unmasked positions
                carried = z != vocab.mask_index
                logits[carried] = np.eye(vocab.size)[z[carried]]
            monkeypatch.setattr(M, "BLOCK_ROWS", 10 ** 9)
            whole = M.denoise_batch(params, z, t, cond)
            assert np.max(np.abs(whole - logits)) <= FLOAT32_ROWS
            monkeypatch.setattr(M, "BLOCK_ROWS", block_rows)
            seen.clear()
            got = M.denoise_batch(params, z, t, cond)
            assert seen == sizes
            assert np.array_equal(got, whole)


# 7 sequences of 20 positions are 140 rows: (BLOCK_ROWS, the blocks
# ceil(140 / BLOCK_ROWS), at most one per sequence, they make), asked for
# by one to three caller threads that share one model, as a library
# caller may: the float32 snapshot and its last time row are shared. Ten
# rounds at a short switch interval give a race a chance to show.
SPLIT_CASES = [(5, 7), (13, 7), (40, 4), (50, 3)]


@pytest.mark.parametrize("callers", [1, 2, 3])
@pytest.mark.parametrize("block_rows,blocks", SPLIT_CASES)
@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
def test_denoise_batch_threads_match_one_block(monkeypatch, callers,
                                               block_rows, blocks, kind):
    batch = 7
    rng = np.random.default_rng(callers * 1000 + block_rows)
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    params = _randomized(M.init_denoiser(vocab, 20, 3, 8, kind=kind,
                                         n_layers=2), rng)
    z = rng.integers(0, vocab.size, size=(batch, 20))
    asks = [(t, cond) for t in (0.37, 0.62, rng.uniform(0.01, 0.99, batch))
            for cond in (None, 1, rng.integers(0, 3, size=batch))]
    monkeypatch.setattr(M, "BLOCK_ROWS", 10 ** 9)
    wholes = [M.denoise_batch(params, z, t, cond) for t, cond in asks]
    trunk = M._trunk_forward
    sizes = []

    def counted(params, arrays, z_block, *args, **kwargs):
        sizes.append(len(z_block))  # list.append is atomic
        return trunk(params, arrays, z_block, *args, **kwargs)

    def ask_all(shift):  # each caller starts at another ask
        order = list(range(shift, len(asks))) + list(range(shift))
        return [(i, M.denoise_batch(params, z, *asks[i])) for i in order]

    monkeypatch.setattr(M, "_trunk_forward", counted)
    monkeypatch.setattr(M, "BLOCK_ROWS", block_rows)
    shifts = list(range(0, 3 * callers, 3)) * 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(callers) as pool:
            results = list(pool.map(ask_all, shifts))
    finally:
        sys.setswitchinterval(interval)
    assert len(sizes) == blocks * len(asks) * len(shifts)
    assert max(sizes) - min(sizes) <= 1
    for i, got in itertools.chain.from_iterable(results):
        assert got.tobytes() == wholes[i].tobytes()


# The float32 forward at a head of one 16-column block (N 2 and 3) and of
# two (N 20), on a classifier-free guidance batch: the sequences stacked
# on themselves, labelled and then None. 16 sequences of 5 positions run
# as 16, 8 or 4 blocks of ``per_block`` sequences.
@pytest.mark.parametrize("per_block", [1, 2, 4])
@pytest.mark.parametrize("n,kind", [(2, "uniform"), (3, "absorbing"),
                                    (20, "uniform"), (20, "absorbing")])
def test_float32_rows_keep_their_invariants(monkeypatch, n, kind, per_block):
    rng = np.random.default_rng(n * 10 + per_block)
    vocab = (Vocabulary(n, mask_index=n - 1) if kind == "absorbing"
             else Vocabulary(n))
    params = _randomized(M.init_denoiser(vocab, 5, 3, 8, kind=kind,
                                         n_layers=2), rng)
    half = rng.integers(0, n, size=(8, 5))
    if kind == "absorbing":  # masked and carried-over rows in every block
        half[:, ::2] = vocab.mask_index
    z = np.concatenate([half, half])
    labels = [int(c) for c in rng.integers(0, 3, size=8)] + [None] * 8
    for t_half in (0.37, rng.uniform(0.01, 0.99, 8)):
        t = t_half if np.ndim(t_half) == 0 else np.tile(t_half, 2)
        monkeypatch.setattr(M, "BLOCK_ROWS", 10 ** 9)
        whole = M.denoise_batch(params, z, t, labels)
        monkeypatch.setattr(M, "BLOCK_ROWS", 5 * per_block)
        got = M.denoise_batch(params, z, t, labels)
        assert got.tobytes() == whole.tobytes()
        assert got.dtype == np.float64 and got.shape == (16, 5, n)
        assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12
        want = np.exp(graph_oracle.denoiser_logprob_rows(
            M.constant_nodes(params), params, z, np.broadcast_to(t, (16,)),
            M._condition_indices(labels, 3, 16)).value)
        assert np.max(np.abs(got - want)) <= FLOAT32_ROWS
        if kind == "absorbing":
            assert np.all(got[..., vocab.mask_index] == 0.0)
        # each half has the bytes of a call of its own
        assert got[8:].tobytes() == \
            M.denoise_batch(params, half, t_half, None).tobytes()
        assert not np.allclose(got[:8], got[8:])
        if kind == "absorbing":  # the condition reaches masked rows alone
            carried = half != vocab.mask_index
            assert np.array_equal(got[:8][carried], got[8:][carried])
            assert np.array_equal(got[:8][carried],
                                  np.eye(n)[half[carried]])


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_denoise_batch_threads_grow_with_the_call(monkeypatch, cpus):
    # the block count follows the call's positions, whatever the host's
    # CPU count, and every block runs on the calling thread
    params = tiny_denoiser(seed=3)
    z = np.random.default_rng(3).integers(0, 3, size=(64, 4))
    trunk = M._trunk_forward
    sizes, threads = [], set()

    def counted(params, arrays, z_block, *args, **kwargs):
        sizes.append(len(z_block))
        threads.add(threading.get_ident())
        return trunk(params, arrays, z_block, *args, **kwargs)

    monkeypatch.setattr(M, "_trunk_forward", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(M, "BLOCK_ROWS", 16)
    # (sequences of 4 positions, block sizes in sequences, in call order)
    for num, want in [(12, [4, 4, 4]), (13, [3, 3, 3, 4]), (40, [4] * 10),
                      (64, [4] * 16)]:
        sizes.clear()
        threads.clear()
        alive = threading.active_count()
        M.denoise_batch(params, z[:num], 0.5, None)
        assert sizes == want
        assert threads == {threading.get_ident()}
        assert threading.active_count() == alive


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from([1, 7]),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_classify_batch_matches_autodiff_graph(n_layers, shared_t, batch,
                                               seed):
    rng = np.random.default_rng(seed)
    params = _randomized(M.init_classifier(VOCAB3, 5, 3, 8,
                                           n_layers=n_layers), rng)
    z, t, t_rows = _latents_and_times(rng, batch, 5, 3, shared_t)
    got = M.classify(params, z, t)
    want = graph_oracle.classifier_logprobs(
        M.constant_nodes(params), params,
        ad.constant(M.one_hot_batch(z, 3)), t_rows).value
    assert got.shape == (batch, 3)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(np.exp(got).sum(axis=-1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("t", [0.0, 1.0, 0.3, 0.7071067811865476])
def test_time_features_scalar_path_matches_array_path(t):
    sched = NoiseSchedule()
    fast = M._time_features(sched, t)
    slow = M._time_features(sched, np.array([t]))
    assert fast.shape == (1, 2) and fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)
    assert np.array_equal(M._time_features(sched, np.float64(t)), slow)
    with pytest.raises(ValueError):
        M._time_features(sched, t + 1.5)


def test_set_arrays_inverts_arrays():
    # the criterion-12 call: (name, array) pairs in, arrays stored as is
    params = tiny_denoiser(seed=9)
    names = [name for name, _ in params.arrays()]
    values = [a + 1.0 for _, a in params.arrays()]
    work = params.copy()
    work.set_arrays(list(zip(names, values)))
    for got, want in zip(work.values(), values):
        assert type(got) is np.ndarray and got.shape == want.shape
        assert np.array_equal(got, want)
    for bad in (values, list(zip(names[::-1], values[::-1])),
                list(zip(names, values))[:-1]):
        with pytest.raises(ValueError):
            work.set_arrays(bad)


def test_inference_reads_current_parameters():
    params = tiny_denoiser(seed=7)
    clf = M.init_classifier(VOCAB3, 4, 3, 8, seed=7)
    z = np.array([[0, 1, 2, 0]])
    before = M.denoise_batch(params, z, 0.5, None)
    before_clf = M.classify(clf, z, 0.5)
    for model in (params, clf):
        model.set_arrays([(name, a + 0.5) for name, a in model.arrays()])
    after = M.denoise_batch(params, z, 0.5, None)
    want = np.exp(graph_oracle.denoiser_logprob_rows(
        M.constant_nodes(params), params, z, np.array([0.5]),
        np.array([2])).value)
    assert not np.allclose(after, before)
    assert np.max(np.abs(after - want)) <= FLOAT32_ROWS
    # no snapshot may outlive a write: an outside in-place write raises,
    # and an Adam step, which writes the arrays in place, moves both
    with pytest.raises(ValueError, match="read-only"):
        params.output_head *= 2.0
    after_clf = M.classify(clf, z, 0.5)
    x = np.random.default_rng(7).integers(0, 3, size=(8, 4))
    M.train(x, LossSpec("udlm_continuous"), kind="uniform", vocab=VOCAB3,
            epochs=1, batch_size=8, params=params)
    M.train_classifier((x, np.arange(8) % 3), vocab=VOCAB3, num_classes=3,
                       epochs=1, batch_size=8, params=clf)
    assert not np.allclose(M.denoise_batch(params, z, 0.5, None), after)
    assert not np.allclose(M.classify(clf, z, 0.5), after_clf)


def _fresh(model):
    """A model that has built no snapshot, holding copies of ``model``'s
    arrays: its calls run on tables folded for them alone."""
    fresh = (M.init_classifier(model.vocab, model.length, model.num_classes,
                               model.d, n_layers=len(model.hidden))
             if isinstance(model, M.ClassifierParams) else
             M.init_denoiser(model.vocab, model.length, model.num_classes,
                             model.d, kind=model.kind,
                             n_layers=len(model.hidden)))
    fresh.set_arrays([(name, a.copy()) for name, a in model.arrays()])
    return fresh


def _outputs(model, z):
    """The bytes of every inference call a model makes, at a shared and a
    per-sequence t, for a batch and for one sequence."""
    if isinstance(model, M.ClassifierParams):
        logp, grad = M.classify_grad_wrt_onehot(model, z, 0.3, 1)
        parts = [M.classify(model, z, 0.3), M.classify(model, z[0], 0.3),
                 M.classify(model, z, np.linspace(0.2, 0.8, len(z))),
                 logp, grad]
    else:
        parts = [M.denoise_batch(model, z, 0.3, 1),
                 M.denoise_batch(model, z[:1], 0.3, None),
                 M.denoise_batch(model, z, np.linspace(0.2, 0.8, len(z)),
                                 None)]
    return b"".join(p.tobytes() for p in parts)


@pytest.mark.parametrize("family", ["denoiser", "classifier"])
def test_snapshot_follows_every_writer(tmp_path, family):
    # the folded snapshot is built once per parameter version and read by
    # every later call, so after each writer a call must have the bytes of
    # a model that never built one
    rng = np.random.default_rng(21)
    x = rng.integers(0, 3, size=(16, 4))
    z = rng.integers(0, 3, size=(3, 4))
    if family == "classifier":
        model = M.init_classifier(VOCAB3, 4, 3, 8, n_layers=2, seed=21)

        def adam_step():
            M.train_classifier((x, np.arange(16) % 3), vocab=VOCAB3,
                               num_classes=3, epochs=1, batch_size=8,
                               params=model)
    else:
        model = tiny_denoiser(seed=21)

        def adam_step():
            M.train(x, LossSpec("udlm_continuous"), kind="uniform",
                    vocab=VOCAB3, epochs=1, batch_size=8, params=model)

    def check(write):
        before = _outputs(model, z)
        snap = model.prepared(), model.prepared(np.float32)
        write()
        got = _outputs(model, z)
        assert got != before
        assert got == _outputs(_fresh(model), z)
        # rebuilt once, then reused until the next write
        assert model.prepared() is not snap[0]
        assert model.prepared(np.float32) is not snap[1]
        assert model.prepared() is model.prepared()
        assert model.prepared(np.float32) is model.prepared(np.float32)

    check(lambda: model.set_arrays([(name, a * 1.5)
                                    for name, a in model.arrays()]))
    check(adam_step)  # two Adam steps in place
    # an array assigned to a field directly is seen by its identity
    check(lambda: setattr(model, "output_head", model.output_head * 2.0))
    check(lambda: setattr(model, "hidden", [(w, b + 0.5)
                                            for w, b in model.hidden]))
    assert not model.output_head.flags.writeable
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert _outputs(loaded, z) == _outputs(model, z)
    if family == "denoiser":  # a copy has its own arrays and snapshot
        kept = _outputs(model, z)
        work = model.copy()
        assert _outputs(work, z) == kept
        work.set_arrays([(name, a + 0.25) for name, a in work.arrays()])
        assert _outputs(work, z) != kept and _outputs(model, z) == kept
    for m in (model, loaded) + ((work,) if family == "denoiser" else ()):
        for name, a in m.arrays():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def test_adam_restores_the_flags_on_every_exit():
    # read-only arrays become writeable for the update alone, writeable
    # ones stay so, and a failing update restores the flag too
    frozen, plain = np.zeros(3), np.zeros(3)
    frozen.setflags(write=False)
    state = M.AdamState([frozen, plain])
    state.step([frozen, plain], [np.ones(3), np.ones(3)], lr=0.01)
    assert np.array_equal(frozen, plain) and np.all(frozen < 0)
    assert not frozen.flags.writeable and plain.flags.writeable
    bad = np.full(2, np.inf)
    bad.setflags(write=False)
    state = M.AdamState([bad])
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        state.step([bad], [np.ones(2)], lr=np.inf)  # inf - inf
    assert not bad.flags.writeable


def test_inference_builds_no_autodiff_nodes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("inference built an autodiff Node")

    params = tiny_denoiser(seed=8)
    clf = M.init_classifier(VOCAB3, 4, 3, 8, seed=8)
    monkeypatch.setattr(ad.Node, "__init__", refuse)
    z = [0, 1, 2, 0]
    M.denoise(params, z, 0.5, condition=1)
    M.denoise_batch(params, np.array([z, z]), np.array([0.2, 0.7]), None)
    M.classify(clf, z, 0.5)
    M.classify(clf, np.array([z, z]), 0.5)


# ---------------------------------------------------------------- classify

def test_zero_init_classifier_uniform():
    params = M.init_classifier(VOCAB3, 4, 5, 8, scale=0.0)
    logp = M.classify(params, [0, 1, 2, 0], 0.5)
    assert np.allclose(logp, np.log(1 / 5), atol=1e-15)


def test_classifier_normalization_sweep():
    params = M.init_classifier(VOCAB3, 4, 3, 8, seed=7, scale=0.5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.integers(0, 3, size=4)
        logp = M.classify(params, z, rng.uniform(0.01, 0.99))
        assert abs(np.exp(logp).sum() - 1.0) < 1e-12


def test_classifier_deterministic():
    params = M.init_classifier(VOCAB3, 4, 3, 8, seed=8)
    a = M.classify(params, [1, 1, 0, 2], 0.2)
    assert np.array_equal(a, M.classify(params, [1, 1, 0, 2], 0.2))


def test_classify_grad_zero_head():
    params = M.init_classifier(VOCAB3, 4, 3, 8, seed=9)
    params.output_head = np.zeros_like(params.output_head)
    logp0, grad = M.classify_grad_wrt_onehot(params, [0, 1, 2, 0], 0.5, 1)
    assert logp0 == pytest.approx(np.log(1 / 3), abs=1e-12)
    assert np.allclose(grad, 0.0)


def test_classify_grad_input_independent_when_trunk_constant():
    # zero hidden weights make the trunk constant in the input, so the
    # gradient must vanish for every latent
    params = M.init_classifier(VOCAB3, 4, 3, 8, seed=10)
    params.hidden = [(np.zeros_like(w), b) for w, b in params.hidden]
    for z in ([0, 1, 2, 0], [2, 2, 2, 2]):
        _, grad = M.classify_grad_wrt_onehot(params, z, 0.5, 0)
        assert np.allclose(grad, 0.0, atol=1e-15)


def test_classifier_protocol_batches_match_single_sequences():
    # log_probs and grad_log_prob take a (B, L) block: one classifier
    # call, one forward and one backward pass for the whole batch
    params = M.init_classifier(VOCAB3, 4, 3, 8, seed=15, scale=0.6)
    z = np.random.default_rng(15).integers(0, 3, size=(6, 4))
    logp = params.log_probs(z, 0.35)
    logp0, grad = params.grad_log_prob(z, 0.35, 2)
    assert logp.shape == (6, 3) and logp0.shape == (6,)
    assert grad.shape == (6, 4, 3)
    for b in range(6):
        assert np.max(np.abs(logp[b] - M.classify(params, z[b], 0.35))) \
            <= 1e-12
        single_logp, single_grad = M.classify_grad_wrt_onehot(
            params, z[b], 0.35, 2)
        assert abs(logp0[b] - single_logp) <= 1e-12
        assert np.max(np.abs(grad[b] - single_grad)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 48, 64]), st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=2, max_value=3), st.sampled_from([1, 5]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_one_sequence_classifier_rows_match_a_small_batch(d, k, n_layers,
                                                         batch, length, seed):
    # a lone sequence runs as two copies: its pooled (1, d) x (d, K) head
    # product took BLAS's vector path, and most rows differed from the
    # batch's; at L = 1 its hidden products and their deltas have one row
    # too
    params = M.init_classifier(VOCAB3, length, k, d, n_layers=n_layers,
                               seed=seed, scale=0.5)
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, size=(batch, length))
    t, y = float(rng.uniform(0.01, 0.99)), int(rng.integers(k))
    logp = M.classify(params, z, t)
    logp0, grad = M.classify_grad_wrt_onehot(params, z, t, y)
    for i in range(batch):
        assert M.classify(params, z[i], t).tobytes() == logp[i].tobytes()
        assert M.classify(params, z[i:i + 1], t).tobytes() \
            == logp[i:i + 1].tobytes()
        one_logp, one_grad = M.classify_grad_wrt_onehot(params, z[i], t, y)
        assert one_logp == logp0[i] == logp[i, y]
        assert one_grad.tobytes() == grad[i].tobytes()


@pytest.mark.parametrize("d", [16, 48, 64])
@pytest.mark.parametrize("k", [3, 6])
def test_one_sequence_classifier_rows_match_a_batch_of_twelve(d, k):
    # the prepared head is padded to 16 columns: OpenBLAS ran a (12, d) x
    # (d, 3) head product in row tiles whose bytes followed the row count,
    # and 74-84 of these 120 rows differed from the same sequence alone
    for seed in range(10):
        params = M.init_classifier(Vocabulary(6), 8, k, d, n_layers=2,
                                   seed=seed, scale=0.5)
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 6, size=(12, 8))
        t = float(rng.uniform(0.01, 0.99))
        logp = M.classify(params, z, t)
        for i in range(12):
            assert M.classify(params, z[i], t).tobytes() == logp[i].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.sampled_from([1, 2]),
    st.sampled_from([None, 1, 5]),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_classify_grad_matches_autodiff_graph(n, length, d, n_layers, batch,
                                              seed):
    # the hand-written backward against the autodiff graph of the same
    # network, for one (L,) sequence (batch None) or a (B, L) block
    rng = np.random.default_rng(seed)
    params = _randomized(M.init_classifier(Vocabulary(n), length, 3, d,
                                           n_layers=n_layers), rng)
    z = rng.integers(0, n, size=length if batch is None else (batch, length))
    t = float(rng.uniform(0.01, 0.99))
    y = int(rng.integers(0, 3))
    rows = z[None] if batch is None else z
    inp = ad.param(M.one_hot_batch(rows, n))
    logp = graph_oracle.classifier_logprobs(M.constant_nodes(params), params,
                                            inp, np.full(rows.shape[0], t))
    picked = ad.gather_last(logp, np.full(rows.shape[0], y))
    (want,) = ad.backprop(ad.nsum(picked), [inp])

    built = []
    original = ad.Node.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    ad.Node.__init__ = counting
    try:
        logp0, grad = M.classify_grad_wrt_onehot(params, z, t, y)
    finally:
        ad.Node.__init__ = original
    assert built == []
    if batch is None:
        assert isinstance(logp0, float) and grad.shape == (length, n)
        want = want[0]
    else:
        assert logp0.shape == (batch,) and grad.shape == (batch, length, n)
    assert np.max(np.abs(grad - want)) <= 1e-12
    assert np.max(np.abs(logp0 - picked.value)) <= 1e-12
    assert np.array_equal(logp0, M.classify(params, z, t)[..., y])


@pytest.mark.parametrize("seed", range(20))
def test_classify_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = M.init_classifier(VOCAB3, 3, 3, 6, seed=seed, scale=0.4)
    z = rng.integers(0, 3, size=3)
    t = float(rng.uniform(0.05, 0.95))
    y = int(rng.integers(0, 3))
    logp0, grad = M.classify_grad_wrt_onehot(params, z, t, y)

    onehot = M.one_hot_batch(z[None, :], 3)

    def value(arrs):
        from catdiff import autodiff as ad
        node = M.classifier_logprobs(M.constant_nodes(params), params,
                                     ad.constant(arrs[0]), np.array([t]))
        return float(node.value[0, y])

    (fd,) = finite_difference_grads(value, [onehot.copy()], h=1e-5)
    denom = np.maximum(np.maximum(np.abs(fd[0]), np.abs(grad)), 1e-3)
    assert np.max(np.abs(fd[0] - grad) / denom) < 1e-4


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["uniform", "absorbing"]),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from(["labels", "unconditional", "none"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 4]),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_trunk_node_matches_graph_oracle(kind, n_layers, shared_t, condition,
                                         pool, relaxed, batch, seed):
    # the trunk primitive (folded forward, hand-written backward) against
    # the graph oracle under a random linear read-out of its output: the
    # value, every array's gradient and a relaxed input's gradient.
    # "none" is the classifier, which has no condition table.
    rng = np.random.default_rng(seed)
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    if condition == "none":
        params = M.init_classifier(vocab, 5, 3, 8, n_layers=n_layers)
    else:
        params = M.init_denoiser(vocab, 5, 3, 8, kind=kind, n_layers=n_layers)
    params = _randomized(params, rng)
    z, t, _ = _latents_and_times(rng, batch, 5, vocab.size, shared_t)
    cond = {"labels": rng.integers(0, 3, size=batch),
            "unconditional": np.full(batch, 3), "none": None}[condition]
    rows = rng.random((batch, 5, vocab.size))
    n_out = params.output_head.shape[1]
    readout = rng.standard_normal((batch, n_out) if pool
                                  else (batch, 5, n_out))
    # an absorbing denoiser's trunk gives the masked rows' logits alone;
    # the oracle's every row, read out by 0 where the latent is unmasked
    kept = None if pool or relaxed else M.masked_rows(params, z)
    readouts = (readout, readout)
    if kept is not None:
        weight = np.zeros(z.shape + (1,))
        weight.reshape(-1)[kept] = 1.0
        readouts = (readout.reshape(-1, n_out)[kept], readout * weight)
    results = []
    for trunk, read in zip((M._trunk_node, graph_oracle.trunk), readouts):
        nodes = M.param_nodes(params)
        inputs = [ad.param(rows)] if relaxed else []
        out = trunk(nodes, params, inputs[0] if relaxed else z, t, cond, pool)
        results.append((out.value,
                        ad.backprop(ad.nsum(out * read), nodes + inputs)))
    (got, got_grads), (want, want_grads) = results
    if kept is not None:
        want = want.reshape(-1, n_out)[kept]
    assert got.shape == want.shape == readouts[0].shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12


# sha256 of the outputs _inference_bytes gathers (NumPy 2.4.6 with its
# bundled OpenBLAS on x86-64), recorded when the trunk's time features
# became an elementwise blend instead of a BLAS product; of the parts,
# the float64 classifier's log-probabilities and Taylor gradients changed
# then, in the last bits, and the denoise_batch rows and the
# Taylor-guided draw's bytes held. Re-recorded when a one-sequence
# classifier call began to run as two copies: the lone sequence's Taylor
# gradient changed in the last bits, and every other part held.
INFERENCE_DIGESTS = {
    1: "1bc83d1deba8c4b2695a9cf0d17ecec6ee3357838173b1d9ccdf3ba11852b083",
    2: "b9be622f6e44e5a2728635e8ca5dabf5a4272ca7bd11c7132754f702bc88d95b",
}


def _inference_bytes(n_layers):
    vocab = Vocabulary(5)
    den = M.init_denoiser(vocab, 6, 3, 8, kind="uniform", n_layers=n_layers,
                          seed=1, scale=0.5)
    clf = M.init_classifier(vocab, 6, 3, 8, n_layers=n_layers, seed=2,
                            scale=0.5)
    rng = np.random.default_rng(2024)
    z = rng.integers(0, 5, size=(7, 6))
    t = rng.uniform(0.01, 0.99, 7)
    logp0, grad = M.classify_grad_wrt_onehot(clf, z, 0.37, 1)
    one_logp, one_grad = M.classify_grad_wrt_onehot(clf, z[2], 0.37, 2)
    taylor = GuidanceConfig("cbg_taylor", gamma=2.0, target_class=1)
    drawn, _ = generate(SampleRequest(16, 6, 8, guidance=taylor, seed=5),
                        den, clf)
    parts = [M.denoise_batch(den, z, t, rng.integers(0, 3, size=7)),
             M.classify(clf, z, t), logp0, grad, np.array([one_logp]),
             one_grad, drawn]
    return b"".join(p.tobytes() for p in parts)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_inference_and_taylor_gradient_keep_their_bytes(n_layers):
    digest = hashlib.sha256(_inference_bytes(n_layers)).hexdigest()
    assert digest == INFERENCE_DIGESTS[n_layers]


# sha256 of seeded absorbing samples (unguided 600x16 at T 16, 37x16 at
# T 64, 1x16 at T 8, cfg 200x16 at T 16) from a two-layer d 48 denoiser,
# recorded before the hidden layers, head and softmax ran on the masked
# positions alone (NumPy 2.4.6 with its bundled OpenBLAS on x86-64). The
# masked rows keep their bytes and an unmasked row's posterior is one-hot
# whatever the row, so the draws held: in one block and in blocks of 10
# sequences.
ABSORBING_SAMPLES = (
    "45d71f29b4167402519a8b4586b3363342c8864cf086bb91a74abbbd8bebf1c4")


@pytest.mark.parametrize("block_rows", [None, 160])
def test_absorbing_samples_keep_their_bytes(monkeypatch, block_rows):
    params = M.init_denoiser(Vocabulary(7, mask_index=6), 16, 3, 48,
                             kind="absorbing", n_layers=2, seed=4, scale=0.5)
    if block_rows is not None:
        monkeypatch.setattr(M, "BLOCK_ROWS", block_rows)
    cfg = GuidanceConfig("cfg", gamma=2.0, target_class=1)
    parts = []
    for num, steps, guidance in ((600, 16, GuidanceConfig()),
                                 (37, 64, GuidanceConfig()),
                                 (1, 8, GuidanceConfig()), (200, 16, cfg)):
        drawn, _ = generate(SampleRequest(num, 16, steps, guidance,
                                          seed=num + steps), params)
        parts.append(drawn.tobytes())
    assert hashlib.sha256(b"".join(parts)).hexdigest() == ABSORBING_SAMPLES


# -------------------------------------------------------------- optimizers

def test_adam_first_step_magnitude():
    arrays = [np.zeros(4)]
    state = M.AdamState(arrays)
    state.step(arrays, [np.ones(4)], lr=0.01)
    assert np.max(np.abs(np.abs(arrays[0]) - 0.01)) < 1e-9


def test_nonfinite_gradient_raises():
    state = M.AdamState([np.ones(2)])
    with pytest.raises(M.TrainingError):
        state.step([np.ones(2)], [np.array([np.inf, 0.0])], lr=0.1)


# ---------------------------------------------------------------- training

@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="glibc's heap thresholds")
def test_training_steps_fault_in_no_fresh_pages():
    # training fixes glibc's mmap and trim thresholds: under the dynamic
    # defaults each step's freed arrays went back to the kernel and the
    # next step faulted them in again, about 2,500 minor faults per step
    # at this shape (the perfbench train workload's mdlm_continuous step)
    resource = pytest.importorskip("resource")
    vocab = Vocabulary(7, mask_index=6)
    x = np.random.default_rng(0).integers(0, 6, size=(256, 16))
    params = M.init_denoiser(vocab, 16, 0, 48, kind="absorbing", n_layers=2,
                             seed=0)

    def step(seed):
        M.train(x, LossSpec("mdlm_continuous"), kind="absorbing", vocab=vocab,
                epochs=1, batch_size=256, lr=0.01, seed=seed, params=params)

    step(0)
    for seed in (1, 2, 3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step(seed)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="glibc's heap thresholds")
def test_sampling_faults_in_no_fresh_pages_without_training():
    # denoise_batch fixes glibc's heap thresholds too, so a process that
    # never trains (``catdiff sample``, say) keeps its freed arrays: under
    # the dynamic defaults a second call at this shape faulted about
    # 4,600 pages in again (uniform) and 7,900 (absorbing). Each block
    # allocates arrays of its own, at OpenBLAS's default thread count and
    # with BLAS pinned to one thread
    src = os.path.dirname(os.path.dirname(os.path.abspath(M.__file__)))
    probe = """
import resource
from catdiff import model
from catdiff.core import Vocabulary
from catdiff.guidance import GuidanceConfig
from catdiff.sampler import SampleRequest, generate
for kind, vocab in (("uniform", Vocabulary(6)),
                    ("absorbing", Vocabulary(7, mask_index=6))):
    params = model.init_denoiser(vocab, 16, 0, 48, kind=kind, n_layers=2,
                                 seed=0, scale=0.5)
    request = SampleRequest(3000, 16, 4, GuidanceConfig(), seed=1)
    generate(request, params)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    generate(request, params)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             env=dict(os.environ, PYTHONPATH=src, **blas),
                             capture_output=True, text=True).stdout
        faults = [int(line) for line in out.split()]
        assert len(faults) == 2 and max(faults) < 50


def test_dropout_rate_chi_square():
    rng = np.random.default_rng(0)
    labels = np.zeros(100_000, dtype=np.int64)
    out = M.dropout_indices(labels, 0.10, num_classes=4, rng=rng)
    dropped = int((out == 4).sum())
    chi2 = stats.chisquare([dropped, out.size - dropped],
                           [0.1 * out.size, 0.9 * out.size])
    assert chi2.pvalue > 0.001


def test_full_dropout_freezes_class_rows():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, size=(64, 4))
    y = rng.integers(0, 2, size=64)
    spec = LossSpec("udlm_continuous")
    params, _ = M.train(
        (x, y), spec, kind="uniform", vocab=VOCAB3, num_classes=2, d=8,
        epochs=2, batch_size=16, lr=0.05, condition_dropout=1.0, seed=3,
    )
    fresh = M.init_denoiser(VOCAB3, 4, 2, 8, kind="uniform", seed=3)
    # rows 0..K-1 never looked up, so Adam never touches them
    assert np.array_equal(params.condition_embedding[:2],
                          fresh.condition_embedding[:2])
    assert not np.array_equal(params.condition_embedding[2],
                              fresh.condition_embedding[2])


@pytest.mark.parametrize("rate", [2.0, -0.1, float("nan")])
def test_train_refuses_a_condition_dropout_outside_0_1(rate):
    # 2.0 would drop every label and NaN none, without complaint
    x = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(ValueError, match=r"condition_dropout must lie in "
                                         r"\[0, 1\]"):
        M.train((x, np.zeros(4, dtype=np.int64)), LossSpec("udlm_continuous"),
                kind="uniform", vocab=VOCAB3, num_classes=2, d=8, epochs=1,
                condition_dropout=rate)


def _fresh_trunk(trainer):
    return (M.init_denoiser(VOCAB3, 4, 2, 8, kind="uniform", seed=3)
            if trainer == "train" else M.init_classifier(VOCAB3, 4, 2, 8,
                                                         seed=3))


def _train_small(trainer, params, **kwargs):
    """One ``trainer`` call on eight labelled sequences over VOCAB3."""
    x = np.random.default_rng(0).integers(0, 3, size=(8, 4))
    data = (x, np.arange(8) % 2)
    if trainer == "train":
        return M.train(data, LossSpec("udlm_continuous"), kind="uniform",
                       vocab=VOCAB3, num_classes=2, params=params, seed=1,
                       **kwargs)
    return M.train_classifier(data, vocab=VOCAB3, num_classes=2,
                              params=params, seed=1, **kwargs)


@pytest.mark.parametrize("trainer", ["train", "train_classifier"])
@pytest.mark.parametrize("bad, match", [
    (dict(epochs=0), "epochs and batch_size must be >= 1"),
    (dict(batch_size=0), "epochs and batch_size must be >= 1"),
    (dict(lr=-0.1), "lr must be non-negative and finite"),
    (dict(lr=float("nan")), "lr must be non-negative and finite"),
    (dict(lr=float("inf")), "lr must be non-negative and finite"),
], ids=["epochs_0", "batch_size_0", "lr_negative", "lr_nan", "lr_inf"])
def test_training_refuses_epochs_batch_size_or_lr(trainer, bad, match,
                                                  monkeypatch):
    # epochs 0 returned the trace [] and a negative lr ran gradient ascent;
    # each is refused before the training generator makes a draw
    made = []
    real = np.random.default_rng

    def recording(seed=None):
        made.append((seed, real(seed)))
        return made[-1][1]

    params = _fresh_trunk(trainer)
    before = [a.copy() for a in params.values()]
    monkeypatch.setattr(np.random, "default_rng", recording)
    kwargs = dict(epochs=1, batch_size=4, lr=0.01) | bad
    with pytest.raises(ValueError, match=match):
        _train_small(trainer, params, **kwargs)
    made = made[1:]  # the data's generator, drawn from by the test
    assert made and all(gen.bit_generator.state == real(seed).bit_generator
                        .state for seed, gen in made)
    assert params.version == 0
    assert all(np.array_equal(a, b) for a, b in zip(params.values(), before))


@pytest.mark.parametrize("trainer", ["train", "train_classifier"])
def test_training_at_lr_0_keeps_every_parameter_byte(trainer):
    # perfbench scores parameters by a training step at lr = 0
    params = _fresh_trunk(trainer)
    before = [a.tobytes() for a in params.values()]
    _, trace = _train_small(trainer, params, epochs=1, batch_size=4, lr=0.0)
    assert len(trace) == 1 and np.isfinite(trace[0])
    assert [a.tobytes() for a in params.values()] == before


@pytest.mark.parametrize("given", [False, True])
def test_absorbing_training_refuses_data_holding_the_mask(given):
    # mdlm_continuous trained on such data to a loss of 3.4e30
    x = np.array([[0, 1, 3, 2]] + [[0, 1, 2, 2]] * 3)
    params = (M.init_denoiser(VOCAB4M, 4, 0, 8, kind="absorbing", seed=0)
              if given else None)
    before = [] if params is None else [a.copy() for a in params.values()]
    with pytest.raises(ValueError, match="holds the mask token"):
        M.train(x, LossSpec("mdlm_continuous"), kind="absorbing",
                vocab=VOCAB4M, d=8, epochs=1, params=params)
    if given:
        assert params.version == 0
        assert all(np.array_equal(a, b)
                   for a, b in zip(params.values(), before))


def test_training_loss_reaches_the_model_module_graph(monkeypatch):
    # the training graph is looked up on the model module at each call, so
    # a wrapper installed there (a trace span, say) sees every forward
    calls = []
    real = M.denoiser_logprob_rows

    def spy(*args):
        calls.append(args[2].shape)
        return real(*args)

    monkeypatch.setattr(M, "denoiser_logprob_rows", spy)
    params = tiny_denoiser(seed=3)
    x = np.random.default_rng(3).integers(0, 3, size=(5, 4))
    for objective, T in (("udlm_continuous", None), ("nelbo_discrete", 4)):
        training_loss_node(LossSpec(objective, T=T), M.param_nodes(params),
                           params, x, np.full(5, 2), np.random.default_rng(0))
    assert calls == [(5, 4), (5, 4)]


def test_train_seed_reproducibility():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 3, size=(48, 4))
    spec = LossSpec("udlm_continuous")
    kwargs = dict(kind="uniform", vocab=VOCAB3, num_classes=0, d=8,
                  epochs=3, batch_size=16, lr=0.02, seed=11)
    p1, t1 = M.train(x, spec, **kwargs)
    p2, t2 = M.train(x, spec, **kwargs)
    assert t1 == t2
    for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def test_train_single_sequence_reaches_near_zero_loss():
    # tabular-capacity network on one repeated sequence: the analytic
    # minimum of the objective is 0, reached when x_theta copies the data
    x = np.tile(np.array([0, 2, 1], dtype=np.int64), (256, 1))
    spec = LossSpec("udlm_continuous")
    params, trace = M.train(
        x, spec, kind="uniform", vocab=VOCAB3, num_classes=0, d=32,
        n_layers=2, epochs=40, batch_size=256, lr=0.05, seed=5,
    )
    baseline = nelbo_discrete(
        x[0], _uniform_rows_denoiser(3), 128, PriorSpec.uniform(3),
        params.schedule, mode="exact",
    )
    final = nelbo_discrete(x[0], params, 128, PriorSpec.uniform(3),
                           params.schedule, mode="exact")
    assert final <= 0.05 * baseline
    assert trace[-1] < trace[0]


def _uniform_rows_denoiser(n):
    class _U:
        def rows_batch(self, z_batch, t, condition=None):
            return np.full(np.shape(z_batch) + (n,), 1.0 / n)
    return _U()


def _with_nan_head(params):
    """``params`` with a NaN in its head, stored through set_arrays: the
    arrays are read-only."""
    head = params.output_head.copy()
    head[0, 0] = np.nan
    params.set_arrays([(name, head if name == "output_head" else a)
                       for name, a in params.arrays()])
    return params


def test_nan_parameter_stops_both_training_loops():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, size=(16, 4))
    y = rng.integers(0, 2, size=16)
    den = _with_nan_head(tiny_denoiser())
    with pytest.raises(M.TrainingError, match="non-finite loss"):
        M.train((x, y), LossSpec("udlm_continuous"), kind="uniform",
                vocab=VOCAB3, num_classes=2, epochs=1, batch_size=8,
                params=den)
    clf = _with_nan_head(M.init_classifier(VOCAB3, 4, 2, 8))
    with pytest.raises(M.TrainingError, match="non-finite loss"):
        M.train_classifier((x, y), vocab=VOCAB3, num_classes=2, epochs=1,
                           batch_size=8, params=clf)


@pytest.mark.parametrize("bad", [-1, 2, 3, 1.5])
def test_training_rejects_labels_outside_classes(bad):
    # -1 and K would train the unconditional row, K + 1 would escape as an
    # IndexError, and the classifier would read -1 as the last class
    x = np.random.default_rng(0).integers(0, 3, size=(8, 4))
    y = np.array([0, 1] * 3 + [bad, 0])
    with pytest.raises(ValueError, match="out of range|must be integers"):
        M.train((x, y), LossSpec("udlm_continuous"), kind="uniform",
                vocab=VOCAB3, num_classes=2, epochs=1)
    with pytest.raises(ValueError, match="out of range|must be integers"):
        M.train_classifier((x, y), vocab=VOCAB3, num_classes=2, epochs=1)


def test_training_without_classes_rejects_labels():
    # labels given to a model without classes were ignored
    x = np.random.default_rng(0).integers(0, 3, size=(8, 4))
    with pytest.raises(ValueError, match="out of range"):
        M.train((x, np.zeros(8, dtype=np.int64)), LossSpec("udlm_continuous"),
                kind="uniform", vocab=VOCAB3, num_classes=0, epochs=1)


def test_empty_dataset_rejected():
    with pytest.raises(M.TrainingError):
        M.train(np.zeros((0, 4), dtype=np.int64), LossSpec("udlm_continuous"),
                kind="uniform", vocab=VOCAB3, epochs=1)


def test_classifier_training_learns_majority():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 3, size=(600, 5))
    y = np.array([np.bincount(row, minlength=3).argmax() for row in x])
    params, trace = M.train_classifier(
        (x, y), vocab=VOCAB3, num_classes=3, d=24, epochs=25, batch_size=64,
        lr=0.03, seed=0,
    )
    # at low noise the classifier should recover the label well above chance
    correct = sum(
        int(np.argmax(M.classify(params, row, 0.05)) == lab)
        for row, lab in zip(x[:200], y[:200])
    )
    assert correct / 200 > 0.7
    assert trace[-1] < trace[0]


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip(tmp_path):
    params = tiny_denoiser(seed=12, kind="absorbing")
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == "absorbing"
    assert loaded.vocab.symbols == params.vocab.symbols
    for (na, a), (nb, b) in zip(params.arrays(), loaded.arrays()):
        assert na == nb
        assert np.array_equal(a, b)
    z = [3, 1, 0, 2]
    assert np.array_equal(M.denoise(params, z, 0.3), M.denoise(loaded, z, 0.3))


def test_checkpoint_serialization_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(tiny_denoiser(seed=13), p1)
    save_checkpoint(tiny_denoiser(seed=13), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_classifier_and_version_check(tmp_path):
    clf = M.init_classifier(VOCAB3, 4, 3, 8, seed=14)
    path = tmp_path / "clf.json"
    save_checkpoint(clf, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(M.classify(clf, [0, 1, 2, 0], 0.4),
                          M.classify(loaded, [0, 1, 2, 0], 0.4))
    import json
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def _corrupted_checkpoint(tmp_path, params, edit):
    """Save params, apply edit to the JSON document, write it back."""
    import json
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_uniform_denoiser_rejects_a_mask_vocabulary(tmp_path):
    # a mask token is noised like any other under uniform noise, and the
    # classifier, whose prior comes from the vocabulary, would train on
    # absorbing latents; the checkpoint reader builds through the same
    # check
    with pytest.raises(ValueError, match="without a mask token"):
        M.init_denoiser(VOCAB4M, 4, 2, 8, kind="uniform")
    with pytest.raises(ValueError, match="with a mask token"):
        M.init_denoiser(VOCAB3, 4, 2, 8, kind="absorbing")
    path = _corrupted_checkpoint(
        tmp_path, tiny_denoiser(seed=15),
        lambda doc: doc["vocab"].update(mask_index=2))
    with pytest.raises(ValueError, match="without a mask token"):
        load_checkpoint(path)
    # the constant denoiser takes its prior from the vocabulary too
    rows = np.full((4, 4), 0.25)
    with pytest.raises(ValueError, match="without a mask token"):
        M.ConstantDenoiser("uniform", VOCAB4M, rows)
    with pytest.raises(ValueError, match="with a mask token"):
        M.ConstantDenoiser("absorbing", VOCAB3, rows[:, :3] * 4 / 3)


def _drop_array(doc, name):
    doc["params"] = [entry for entry in doc["params"] if entry[0] != name]
    del doc["shapes"][name]


def _set_entry(doc, name, index, value):
    for entry in doc["params"]:
        if entry[0] == name:
            entry[1][index] = value


@pytest.mark.parametrize("edit, array", [
    # output head (d, N) = (8, 4) declared as (4, 8): same entry count
    (lambda doc: doc["shapes"].update(output_head=[4, 8]), "output_head"),
    # hyper says length 7 over the 4-row position encoding
    (lambda doc: doc["hyper"].update(length=7), "position_encoding"),
    (lambda doc: _drop_array(doc, "hidden_b0"), "hidden_b0"),
], ids=["swapped_shape", "wrong_length", "missing_array"])
def test_load_checkpoint_rejects_malformed_arrays(tmp_path, edit, array):
    path = _corrupted_checkpoint(
        tmp_path, tiny_denoiser(seed=15, kind="absorbing"), edit)
    with pytest.raises(ValueError, match=array):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["schedule"].update(kind="cosine"),
    lambda doc: doc["schedule"].update(t_max=0.9),
    lambda doc: doc.update(schedule={"kind": "log_linear"}),
], ids=["kind", "t_max", "missing_bounds"])
def test_load_checkpoint_rejects_another_schedule(tmp_path, edit):
    # the schedule is fixed, so a document naming another is refused,
    # not loaded under the fixed one
    path = _corrupted_checkpoint(tmp_path, tiny_denoiser(seed=15), edit)
    with pytest.raises(ValueError, match="schedule"):
        load_checkpoint(path)


@pytest.mark.parametrize("family", ["denoiser", "classifier"])
def test_trunk_without_hidden_layer_is_refused(tmp_path, family):
    def init(**kwargs):
        if family == "classifier":
            return M.init_classifier(VOCAB3, 4, 3, 8, **kwargs)
        return M.init_denoiser(VOCAB3, 4, 2, 8, kind="uniform", **kwargs)

    with pytest.raises(ValueError, match="hidden layer"):
        init(n_layers=0)
    path = _corrupted_checkpoint(
        tmp_path, init(seed=15), lambda doc: doc["hyper"].update(n_layers=0))
    with pytest.raises(ValueError, match="hidden layer"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_nonfinite_entries(tmp_path):
    path = _corrupted_checkpoint(
        tmp_path, M.init_classifier(VOCAB3, 4, 3, 8, seed=16),
        lambda doc: _set_entry(doc, "time_projection", 3, float("nan")))
    with pytest.raises(FloatingPointError, match="time_projection"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_constant_table_of_wrong_length(tmp_path):
    den = M.ConstantDenoiser.from_sequence([0, 1, 2, 1], VOCAB3)
    path = _corrupted_checkpoint(
        tmp_path, den, lambda doc: doc["hyper"].update(length=5))
    with pytest.raises(ValueError, match="rows_table"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_constant_with_classes(tmp_path):
    # the rows ignore any condition, so a label would be accepted and
    # then ignored
    den = M.ConstantDenoiser.from_sequence([0, 1, 2, 1], VOCAB3)
    path = _corrupted_checkpoint(
        tmp_path, den, lambda doc: doc["hyper"].update(num_classes=3))
    with pytest.raises(ValueError, match="num_classes"):
        load_checkpoint(path)
