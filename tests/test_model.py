import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from catdiff import autodiff as ad
from catdiff import model as M
from catdiff.checkpoint import load_checkpoint, save_checkpoint
from catdiff.core import NoiseSchedule, Vocabulary
from catdiff.loss import LossSpec
from catdiff.verify import finite_difference_grads

VOCAB3 = Vocabulary(3)
VOCAB4M = Vocabulary(4, mask_index=3)


def tiny_denoiser(seed=0, scale=0.1, kind="uniform", num_classes=2, length=4):
    vocab = VOCAB4M if kind == "absorbing" else VOCAB3
    return M.init_denoiser(vocab, length, num_classes, 8, kind=kind,
                           seed=seed, scale=scale)


# ----------------------------------------------------------------- denoise

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
    c = M.denoise(params, [0, 1, 2, 0], 0.4, condition=None)  # DROPPED row
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_condition_out_of_range():
    params = tiny_denoiser()  # K = 2; row 2 is the DROPPED row
    for label in (5, 2, -1):
        with pytest.raises(ValueError):
            M.denoise(params, [0, 1, 2, 0], 0.4, condition=label)
    with pytest.raises(ValueError):
        M.denoise_batch(params, np.zeros((2, 4)), 0.4, np.array([0, 2]))
    z = [0, 1, 2, 0]
    assert np.array_equal(M.denoise(params, z, 0.4, condition=M.DROPPED),
                          M.denoise(params, z, 0.4, condition=None))


def test_absorbing_mask_column_is_zero():
    params = tiny_denoiser(kind="absorbing", seed=5)
    rows = M.denoise(params, [3, 1, 3, 2], 0.7)
    assert np.all(rows[:, 3] == 0.0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


# The inference forward is pinned to the autodiff graph the models train
# on, evaluated on constant nodes.

def _randomized(params, rng):
    """Every array redrawn, so hidden biases are non-zero too."""
    params.set_arrays([rng.standard_normal(a.shape) for _, a in params.arrays()])
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
    st.sampled_from([0, 1, 2]),
    st.booleans(),
    st.sampled_from([1, 7]),
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
    got = M.denoise_batch(params, z, t, labels)
    rows = np.full(batch, num_classes) if labels is None else labels
    want = np.exp(M.denoiser_logprob_rows(
        M.constant_nodes(params), params, z, t_rows, rows).value)
    assert got.shape == (batch, 5, vocab.size)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12
    if kind == "absorbing":
        assert np.all(got[..., vocab.mask_index] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0, 1, 2]),
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
    got = M.classify_batch(params, z, t)
    want = M.classifier_logprobs(
        M.constant_nodes(params), params,
        ad.constant(M.one_hot_batch(z, 3)), t_rows).value
    assert got.shape == (batch, 3)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(np.exp(got).sum(axis=-1) - 1.0)) <= 1e-12


def test_inference_reads_current_parameters():
    params = tiny_denoiser(seed=7)
    clf = M.init_classifier(VOCAB3, 4, 3, 8, seed=7)
    z = np.array([[0, 1, 2, 0]])
    before = M.denoise_batch(params, z, 0.5, None)
    before_clf = M.classify_batch(clf, z, 0.5)
    for model in (params, clf):
        model.set_arrays([a + 0.5 for _, a in model.arrays()])
    after = M.denoise_batch(params, z, 0.5, None)
    want = np.exp(M.denoiser_logprob_rows(
        M.constant_nodes(params), params, z, np.array([0.5]),
        np.array([2])).value)
    assert not np.allclose(after, before)
    assert np.max(np.abs(after - want)) <= 1e-12
    assert not np.allclose(M.classify_batch(clf, z, 0.5), before_clf)


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
    M.classify_batch(clf, np.array([z, z]), 0.5)


def test_copy_floor():
    params = tiny_denoiser(seed=6)
    z = [2, 0, 1, 1]
    rows = M.denoise_with_copy_floor(params, z, 1e-6)
    assert np.array_equal(rows, np.eye(3)[z])
    assert np.allclose(rows.sum(axis=1), 1.0)
    deferred = M.denoise_with_copy_floor(params, z, 0.5)
    assert np.array_equal(deferred, M.denoise(params, z, 0.5))


def test_copy_floor_rejects_absorbing():
    params = tiny_denoiser(kind="absorbing")
    with pytest.raises(ValueError):
        M.denoise_with_copy_floor(params, [0, 1, 2, 3], 1e-6)


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


# -------------------------------------------------------------- optimizers

def test_sgd_zero_gradient_noop():
    a = [np.ones(3)]
    M.sgd_step(a, [np.zeros(3)], lr=0.5)
    assert np.array_equal(a[0], np.ones(3))


def test_sgd_analytic_step():
    # f(w) = w^2 from w=1 with lr 0.1: w - 0.1 * 2w = 0.8
    w = [np.array([1.0])]
    M.sgd_step(w, [np.array([2.0])], lr=0.1)
    assert w[0][0] == pytest.approx(0.8, abs=1e-15)


def test_adam_first_step_magnitude():
    arrays = [np.zeros(4)]
    state = M.AdamState(arrays)
    state.step(arrays, [np.ones(4)], lr=0.01)
    assert np.max(np.abs(np.abs(arrays[0]) - 0.01)) < 1e-9


def test_nonfinite_gradient_raises():
    with pytest.raises(M.TrainingError):
        M.sgd_step([np.ones(2)], [np.array([np.nan, 1.0])], lr=0.1)
    state = M.AdamState([np.ones(2)])
    with pytest.raises(M.TrainingError):
        state.step([np.ones(2)], [np.array([np.inf, 0.0])], lr=0.1)


# ---------------------------------------------------------------- training

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
    from catdiff.forward import PriorSpec
    from catdiff.loss import nelbo_discrete

    x = np.tile(np.array([0, 2, 1], dtype=np.int64), (256, 1))
    spec = LossSpec("udlm_continuous", mc_samples_per_example=2)
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
        def rows(self, z_seq, t, condition=None):
            return np.full((np.asarray(z_seq).shape[0], n), 1.0 / n)
    return _U()


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
