import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy import stats

from catdiff import model as M
from catdiff import sampler as S
from catdiff.core import NoiseSchedule, Vocabulary
from catdiff.forward import PriorSpec, posterior_matrix
from catdiff.guidance import GuidanceConfig
from catdiff.metrics import kmer_js
from catdiff.verify import LeaveOneOutDenoiser, OptimalDenoiser, TabularDenoiser

from .sampling_oracle import two_call_x_rows

SCHED = NoiseSchedule()
U3 = PriorSpec.uniform(3)


def counts_dataset():
    """N=3, L=2, full support, joint mass (1..9)/45: correlated enough
    that position-factorized shortcuts show up as a measurable JS gap."""
    counts = np.repeat(np.arange(9), np.arange(1, 10))
    return np.stack([counts // 3, counts % 3], axis=1)


class FixedRowDenoiser:
    """Same (L, N) row block at every latent and time."""

    schedule = SCHED

    def __init__(self, rows, prior=None):
        self.rows_block = np.asarray(rows, dtype=np.float64)
        self.prior = prior or PriorSpec.uniform(self.rows_block.shape[1])

    def rows_batch(self, z_batch, t, condition=None):
        return np.tile(self.rows_block, (len(z_batch), 1, 1))


class ConditionSwitchDenoiser:
    """Distinct fixed rows per condition; exposes how the sampler routes
    the condition argument."""

    schedule = SCHED

    def __init__(self, n, length, num_classes, seed=0):
        rng = np.random.default_rng(seed)
        self.prior = PriorSpec.uniform(n)
        self.tables = {
            c: rng.dirichlet(np.ones(n), size=length)
            for c in [None, *range(num_classes)]
        }

    def rows_batch(self, z_batch, t, condition=None):
        if isinstance(condition, (list, tuple)):  # one entry per example
            return np.stack([self.tables[c] for c in condition])
        return np.tile(self.tables[condition], (len(z_batch), 1, 1))


# ------------------------------------------------------------------ request

def test_request_validation():
    req = S.SampleRequest(num_sequences=2, length=3, T=4)
    assert req.final_decode == "sample" and req.guidance.mode == "none"
    with pytest.raises(ValueError):
        S.SampleRequest(num_sequences=0, length=3, T=4)
    with pytest.raises(ValueError):
        S.SampleRequest(num_sequences=2, length=0, T=4)
    with pytest.raises(ValueError):
        S.SampleRequest(num_sequences=2, length=3, T=0)
    with pytest.raises(ValueError):
        S.SampleRequest(num_sequences=2, length=3, T=4, final_decode="mode")


# --------------------------------------------------------------- prior draw

def test_prior_draw_absorbing_all_mask():
    prior = PriorSpec.absorbing(Vocabulary(4, mask_index=3))
    z = S._prior_batch(prior, 2, 7, np.random.default_rng(0))
    assert z.shape == (2, 7)
    assert np.all(z == 3)


def test_prior_draw_uniform_frequencies():
    # N=2 over 10^6 tokens: counts consistent with Binomial(10^6, 1/2)
    z = S._prior_batch(PriorSpec.uniform(2), 1, 1_000_000,
                       np.random.default_rng(1))
    counts = np.bincount(z[0], minlength=2)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_prior_draw_respects_length():
    z = S._prior_batch(U3, 4, 13, np.random.default_rng(2))
    assert z.shape == (4, 13) and z.min() >= 0 and z.max() < 3


# ------------------------------------------------------------- reverse step

def test_small_step_posterior_concentrates_on_current_state():
    # the bridge term dominates as s -> t, for any predicted row
    t, dt = 0.5, 1e-4
    for i in range(3):
        for x in range(3):
            row = np.zeros(3)
            row[x] = 1.0
            post = posterior_matrix(i, row, t, t - dt, U3, SCHED)
            post = post / post.sum()
            tv = 0.5 * np.abs(post - np.eye(3)[i]).sum()
            assert tv < 1e-3


def test_small_step_sampled_changes_are_rare():
    rng = np.random.default_rng(3)
    row = np.zeros(3)
    row[1] = 1.0
    den = FixedRowDenoiser(np.tile(row, (4096, 1)))
    z = rng.integers(0, 3, size=(1, 4096))
    out = S._step_batch(z, 0.5, 0.5 - 1e-4, den, GuidanceConfig(), rng, None,
                        den.prior, SCHED)
    assert (out != z).sum() <= 20  # TV per position < 1e-3


def test_absorbing_unmasked_positions_never_change():
    den = TabularDenoiser(4, seed=5, kind="absorbing", mask_index=3)
    rng = np.random.default_rng(6)
    z = np.array([[0, 3, 2, 3, 1, 3, 3, 0]], dtype=np.int64)
    # partially unmasked states are reachable only at t < 1
    for i in range(12, 0, -1):
        z_next = S._step_batch(z, i / 16, (i - 1) / 16 + 1e-9, den,
                               GuidanceConfig(), rng, None, den.prior, SCHED)
        unmasked = z != 3
        assert np.array_equal(z_next[unmasked], z[unmasked])
        z = z_next


def test_mode_none_equals_cfg_gamma_one():
    den = ConditionSwitchDenoiser(3, 5, num_classes=2, seed=7)
    z = np.array([[0, 1, 2, 1, 0]], dtype=np.int64)
    plain = S._step_batch(z, 0.8, 0.6, den,
                          GuidanceConfig("none", target_class=1),
                          np.random.default_rng(8), None, den.prior, SCHED)
    cfg = S._step_batch(z, 0.8, 0.6, den,
                        GuidanceConfig("cfg", gamma=1.0, target_class=1),
                        np.random.default_rng(8), None, den.prior, SCHED)
    assert np.array_equal(plain, cfg)


def test_cfg_stacked_call_routes_each_half():
    # the labelled half and the None half of the one call are the rows a
    # call per condition gives, combined at gamma
    den = ConditionSwitchDenoiser(3, 5, num_classes=2, seed=9)
    z = np.array([[0, 1, 2, 1, 0], [2, 2, 1, 0, 1]], dtype=np.int64)
    config = GuidanceConfig("cfg", gamma=2.0, target_class=1)
    assert S._guided_x_rows(den, z, 0.7, config).tobytes() == \
        two_call_x_rows(den, z, 0.7, config).tobytes()


# ----------------------------------------------------------------- generate

def test_generate_seed_reproducible():
    model = LeaveOneOutDenoiser(counts_dataset(), U3)
    req = S.SampleRequest(num_sequences=64, length=2, T=8, seed=11)
    a, diag_a = S.generate(req, model)
    b, diag_b = S.generate(req, model)
    assert np.array_equal(a, b)
    assert diag_a == diag_b
    c, _ = S.generate(S.SampleRequest(num_sequences=64, length=2, T=8,
                                      seed=12), model)
    assert not np.array_equal(a, c)


def test_generate_edit_diagnostics():
    # absorbing: unmasking is not an edit, so the count stays zero
    den = TabularDenoiser(4, seed=13, kind="absorbing", mask_index=3)
    out, diag = S.generate(S.SampleRequest(num_sequences=32, length=6, T=16,
                                           seed=13), den)
    assert all(d["edits"] == 0 for d in diag)
    assert all(d["steps"] == 16 for d in diag)
    assert np.all(out != 3)  # fully unmasked after the final decode

    # uniform: committed tokens get revised along the way
    uden = TabularDenoiser(3, seed=14)
    _, udiag = S.generate(S.SampleRequest(num_sequences=32, length=6, T=16,
                                          seed=14), uden)
    assert sum(d["edits"] for d in udiag) > 0


def test_generate_absorbing_single_step_unmasks_from_marginal():
    marginal = np.array([0.5, 0.3, 0.2, 0.0])
    den = FixedRowDenoiser(np.tile(marginal, (2, 1)),
                           PriorSpec.absorbing(Vocabulary(4, mask_index=3)))
    out, _ = S.generate(S.SampleRequest(num_sequences=20_000, length=2, T=1,
                                        seed=15), den)
    assert np.all(out != 3)
    counts = np.bincount(out.reshape(-1), minlength=4)[:3]
    assert stats.chisquare(counts, 40_000 * marginal[:3]).pvalue > 1e-3


def test_generate_length_mismatch_rejected():
    model = M.init_denoiser(Vocabulary(3), length=4, num_classes=0, d=8,
                            kind="uniform", seed=16)
    with pytest.raises(ValueError):
        S.generate(S.SampleRequest(num_sequences=2, length=3, T=4), model)


def test_generate_cbg_requires_classifier():
    model = LeaveOneOutDenoiser(counts_dataset(), U3)
    req = S.SampleRequest(num_sequences=2, length=2, T=4,
                          guidance=GuidanceConfig("cbg_exact", gamma=2.0,
                                                  target_class=0))
    with pytest.raises(ValueError):
        S.generate(req, model)


@pytest.mark.parametrize("mode", ["none", "cfg"])
def test_generate_rejects_classifier_it_never_reads(mode):
    vocab = Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=2, d=8,
                            kind="uniform", seed=17)
    clf = M.init_classifier(vocab, length=4, num_classes=2, d=8, seed=18)
    req = S.SampleRequest(num_sequences=3, length=4, T=4,
                          guidance=GuidanceConfig(mode, gamma=2.0,
                                                  target_class=1))
    with pytest.raises(ValueError, match="classifier"):
        S.generate(req, model, classifier=clf)


@pytest.mark.parametrize("mode", ["none", "cfg"])
@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
def test_generate_blocked_forward_matches_one_block(monkeypatch, mode, kind):
    # 30 sequences of 4 positions are 120 rows: at 24 rows a block, five
    # blocks of 6; cfg's stacked calls run ten blocks of 6
    vocab = Vocabulary(4, mask_index=3) if kind == "absorbing" else Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=2, d=8, kind=kind,
                            n_layers=2, seed=24, scale=0.8)
    req = S.SampleRequest(num_sequences=30, length=4, T=6, seed=25,
                          guidance=GuidanceConfig(mode, gamma=2.0,
                                                  target_class=1))
    monkeypatch.setattr(M, "BLOCK_ROWS", 10 ** 9)
    whole, whole_diag = S.generate(req, model)
    monkeypatch.setattr(M, "BLOCK_ROWS", 24)
    blocked, blocked_diag = S.generate(req, model)
    assert blocked.tobytes() == whole.tobytes()
    assert blocked_diag == whole_diag


def _conditional_model(kind):
    vocab = Vocabulary(7, mask_index=6) if kind == "absorbing" \
        else Vocabulary(6)
    return M.init_denoiser(vocab, length=16, num_classes=3, d=8, kind=kind,
                           n_layers=2, seed=30, scale=0.8)


@pytest.mark.parametrize("batch", [1, 2, 3, 384, 385, 700])
@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
def test_generate_cfg_matches_two_call_oracle(monkeypatch, kind, batch):
    # at L = 16 and 4,096 rows a block, the stacked call of 385 sequences
    # or more passes 3 * 4,096 = 12,288 positions and runs in four blocks
    # or more; the oracle's calls of 700 or fewer run in three or fewer
    model = _conditional_model(kind)
    monkeypatch.setattr(M, "BLOCK_ROWS", 4096)
    for gamma in (0.0, 0.5, 1.0, 2.0, 3.0):
        for decode in S.DECODES:
            req = S.SampleRequest(batch, 16, 3, GuidanceConfig(
                "cfg", gamma=gamma, target_class=1), seed=batch,
                final_decode=decode)
            got, got_diag = S.generate(req, model)
            with monkeypatch.context() as patch:
                patch.setattr(S, "_guided_x_rows", two_call_x_rows)
                want, want_diag = S.generate(req, model)
            assert got.tobytes() == want.tobytes(), (gamma, decode)
            assert got_diag == want_diag


@pytest.mark.parametrize("config, stacked", [
    (GuidanceConfig(), False),
    (GuidanceConfig("none", target_class=1), False),
    (GuidanceConfig("cfg", gamma=0.0, target_class=1), True),
    (GuidanceConfig("cfg", gamma=0.5, target_class=1), True),
    (GuidanceConfig("cfg", gamma=1.0, target_class=1), False),
    (GuidanceConfig("cfg", gamma=2.0, target_class=1), True),
    (GuidanceConfig("cbg_exact", gamma=2.0, target_class=1), False),
    (GuidanceConfig("cbg_taylor", gamma=2.0, target_class=1), False),
])
def test_generate_asks_the_denoiser_once_per_step(monkeypatch, config,
                                                  stacked):
    vocab = Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=2, d=8,
                            kind="uniform", seed=17)
    clf = (M.init_classifier(vocab, length=4, num_classes=2, d=8, seed=18)
           if config.needs_classifier else None)
    sizes = []
    rows_batch = M.DenoiserParams.rows_batch

    def spy(self, z_batch, t, condition=None):
        sizes.append(len(z_batch))
        return rows_batch(self, z_batch, t, condition)

    monkeypatch.setattr(M.DenoiserParams, "rows_batch", spy)
    S.generate(S.SampleRequest(3, 4, 5, config, seed=31), model, clf)
    assert sizes == [6 if stacked else 3] * 5


@pytest.mark.parametrize("mode", ["cbg_exact", "cbg_taylor"])
def test_generate_cbg_smoke(mode):
    vocab = Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=0, d=8,
                            kind="uniform", seed=17)
    clf = M.init_classifier(vocab, length=4, num_classes=2, d=8, seed=18)
    req = S.SampleRequest(num_sequences=3, length=4, T=4,
                          guidance=GuidanceConfig(mode, gamma=2.0,
                                                  target_class=1), seed=19)
    out, diag = S.generate(req, model, classifier=clf)
    assert out.shape == (3, 4) and out.min() >= 0 and out.max() < 3
    again, _ = S.generate(req, model, classifier=clf)
    assert np.array_equal(out, again)


def test_generate_cfg_smoke_conditional_model():
    vocab = Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=2, d=8,
                            kind="uniform", seed=20)
    req = S.SampleRequest(num_sequences=3, length=4, T=4,
                          guidance=GuidanceConfig("cfg", gamma=2.0,
                                                  target_class=1), seed=21)
    out, _ = S.generate(req, model)
    assert out.shape == (3, 4) and out.min() >= 0 and out.max() < 3


@pytest.mark.parametrize("num_classes", [0, 2])
def test_generate_rejects_dropped_row_as_target(num_classes):
    # target K names the unconditional row, not a class, and -1 would read
    # it by wraparound; with K = 0 that is cfg on an unconditional model.
    # cfg rejects both at every gamma, the endpoints that read one half of
    # the rows included
    model = M.init_denoiser(Vocabulary(3), length=4, num_classes=num_classes,
                            d=8, kind="uniform", seed=20)
    guided = [("none", 1.0)] + [("cfg", g) for g in (0.0, 0.5, 1.0, 2.0)]
    for (mode, gamma), target in itertools.product(guided,
                                                   (num_classes, -1)):
        req = S.SampleRequest(num_sequences=3, length=4, T=4,
                              guidance=GuidanceConfig(
                                  mode, gamma=gamma, target_class=target))
        with pytest.raises(ValueError, match="out of range"):
            S.generate(req, model)


@pytest.mark.parametrize("target", [-1, 2])
@pytest.mark.parametrize("mode", ["cbg_exact", "cbg_taylor"])
def test_generate_rejects_target_outside_classifier_classes(mode, target):
    # -1 would guide toward the last class by NumPy wraparound
    vocab = Vocabulary(3)
    model = M.init_denoiser(vocab, length=4, num_classes=0, d=8,
                            kind="uniform", seed=17)
    clf = M.init_classifier(vocab, length=4, num_classes=2, d=8, seed=18)
    req = S.SampleRequest(num_sequences=3, length=4, T=4,
                          guidance=GuidanceConfig(mode, gamma=2.0,
                                                  target_class=target))
    with pytest.raises(ValueError, match="target_class"):
        S.generate(req, model, classifier=clf)


class StepGuard:
    """A uniform N = 3 denoiser protocol whose first step fails the test."""
    prior = U3
    schedule = SCHED

    def rows_batch(self, z, t, condition=None):
        raise AssertionError("a reverse step ran")


@pytest.mark.parametrize("clf_vocab, clf_length", [
    (Vocabulary(4), 4), (Vocabulary(2), 4), (Vocabulary(3), 5),
    (Vocabulary(3), 3)], ids=["4-tokens", "2-tokens", "length-5", "length-3"])
@pytest.mark.parametrize("mode", ["cbg_exact", "cbg_taylor"])
def test_generate_refuses_a_classifier_of_another_vocabulary_or_length(
        mode, clf_vocab, clf_length):
    # the classifier reads the denoiser's token ids at its positions: a
    # 4-token classifier guided a 3-token denoiser by the wrong ids under
    # cbg_exact, and cbg_taylor failed in its gradient's shape
    clf = M.init_classifier(clf_vocab, clf_length, 2, 8, seed=18)
    req = S.SampleRequest(3, 4, 4, GuidanceConfig(mode, gamma=2.0,
                                                  target_class=1))
    with pytest.raises(ValueError,
                       match=r"\(N, L\) = .*, the denoiser \(3, 4\)"):
        S.generate(req, StepGuard(), clf)
    # a classifier over the denoiser's tokens and length reaches the step
    with pytest.raises(AssertionError, match="a reverse step ran"):
        S.generate(req, StepGuard(),
                   M.init_classifier(Vocabulary(3), 4, 2, 8, seed=18))


def test_argmax_decode_deterministic_and_distinct_from_sampling():
    den = TabularDenoiser(3, seed=22)
    req_a = S.SampleRequest(num_sequences=200, length=4, T=2, seed=23,
                            final_decode="argmax")
    req_s = S.SampleRequest(num_sequences=200, length=4, T=2, seed=23,
                            final_decode="sample")
    a1, _ = S.generate(req_a, den)
    a2, _ = S.generate(req_a, den)
    s1, _ = S.generate(req_s, den)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, s1)


# ------------------------------------------------- distribution recovery

def test_distribution_recovery_at_T256():
    """With rows at the variational optimum, 10^5 samples at T=256 match
    the data distribution: JS (base 2) under 0.01, and in practice within
    a few multiples of the 10^5-sample noise floor."""
    data = counts_dataset()
    model = LeaveOneOutDenoiser(data, U3)
    out, _ = S.generate(S.SampleRequest(num_sequences=100_000, length=2,
                                        T=256, seed=24), model)
    js = kmer_js(out, data, 2)
    assert js < 0.01
    assert js < 5e-4


def test_recovery_improves_with_T():
    data = counts_dataset()
    model = LeaveOneOutDenoiser(data, U3)
    js = []
    for T in (4, 16, 64, 256):
        out, _ = S.generate(S.SampleRequest(num_sequences=30_000, length=2,
                                            T=T, seed=25), model)
        js.append(kmer_js(out, data, 2))
    for coarse, fine in zip(js, js[1:]):
        assert fine <= coarse + 2e-4  # never worse beyond noise
    assert js[-1] < js[0]


def test_posterior_mean_rows_do_not_recover():
    """Regression sentinel: substituting the full-posterior MEAN into the
    reverse posterior averages a ratio's numerator and denominator
    separately, which biases sampling toward the prior by an amount that
    does not vanish with T. The gap must stay visible, otherwise the
    sampler or the oracle changed meaning."""
    data = counts_dataset()
    model = OptimalDenoiser(data, U3)
    out, _ = S.generate(S.SampleRequest(num_sequences=20_000, length=2,
                                        T=64, seed=26), model)
    assert kmer_js(out, data, 2) > 0.005


# ------------------------------------------------------------------- output

def test_write_samples_with_sidecar(tmp_path):
    vocab = Vocabulary(3, symbols=("A", "C", "G"))
    seqs = np.array([[0, 1, 2], [2, 2, 0]], dtype=np.int64)
    req = S.SampleRequest(num_sequences=2, length=3, T=8, seed=27,
                          guidance=GuidanceConfig("cfg", gamma=1.5,
                                                  target_class=0))
    path = tmp_path / "samples.txt"
    S.write_samples(path, seqs, vocab, request=req)
    assert path.read_text(encoding="utf-8") == "ACG\nGGA\n"
    meta = json.loads((tmp_path / "samples.txt.meta.json").read_text())
    assert meta["seed"] == 27 and meta["T"] == 8
    assert meta["gamma"] == 1.5 and meta["mode"] == "cfg"
    assert meta["target_class"] == 0 and meta["num_sequences"] == 2


def test_write_samples_without_request(tmp_path):
    vocab = Vocabulary(2, symbols=("0", "1"))
    path = tmp_path / "plain.txt"
    S.write_samples(path, np.array([[0, 1]], dtype=np.int64), vocab)
    assert path.read_text(encoding="utf-8") == "01\n"
    assert not (tmp_path / "plain.txt.meta.json").exists()


# sha256 of the tokens _generate_digest draws (NumPy 2.4.6 with its bundled
# OpenBLAS on x86-64), recorded before the sampling path's mean-pool,
# gathers and row sums moved to einsum, flat indices and column sums;
# those moves keep every byte
GENERATE_DIGESTS = {
    ("uniform", "none"): "8e710a9d267cee7dcfe1b97ba90f8aeca0bb860d802f3748aebf5770d6069515",
    ("uniform", "cfg"): "b3726596a47286e040b770ba293f8f5dbb952b2b0975e4664ff1ef870434ffaf",
    ("uniform", "cbg_exact"): "30add947eda8a8dd93f6a4c4b234e23086564e4ac64f11175f137c3aa9898e75",
    ("uniform", "cbg_taylor"): "119eb7ff9cdc117e41186f70b07402a51ac3b9f177a69bafa0a95da4355d9023",
    ("absorbing", "none"): "9c29c4a1fc9900a65fc190090e5e91e7fdb109c3b8ddd0a5176726d5ef94e0d1",
    ("absorbing", "cfg"): "40b0bb076b9f9670348aefc140d9bad68b64678ff601b97181b70b045e1bea16",
    ("absorbing", "cbg_exact"): "98d7b934e843e86efa30c4936e4dbe4d5af96b3cfb20de88a1267a89620b449a",
    ("absorbing", "cbg_taylor"): "9e002e32592d339eb2d6b31ac781b3ff875225112e4597778150308d143d441a",
}


def _generate_digest(kind, mode):
    vocab = Vocabulary(7, mask_index=6) if kind == "absorbing" \
        else Vocabulary(6)
    den = M.init_denoiser(vocab, 5, 2, 16, kind=kind, n_layers=2, seed=3,
                          scale=0.7)
    clf = M.init_classifier(vocab, 5, 2, 16, seed=4, scale=0.7)
    config = GuidanceConfig(mode, gamma=2.5,
                            target_class=None if mode == "none" else 1)
    z, _ = S.generate(S.SampleRequest(12, 5, 10, guidance=config, seed=11),
                      den, clf if config.needs_classifier else None)
    return hashlib.sha256(z.tobytes()).hexdigest()


@pytest.mark.parametrize("kind, mode", sorted(GENERATE_DIGESTS))
def test_generate_keeps_its_bytes(kind, mode):
    assert _generate_digest(kind, mode) == GENERATE_DIGESTS[kind, mode]
