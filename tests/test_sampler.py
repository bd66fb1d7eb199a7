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


# ----------------------------------------------------------------- generate

def test_generate_seed_reproducible():
    model = LeaveOneOutDenoiser(counts_dataset(), U3, SCHED)
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
    model = LeaveOneOutDenoiser(counts_dataset(), U3, SCHED)
    req = S.SampleRequest(num_sequences=2, length=2, T=4,
                          guidance=GuidanceConfig("cbg_exact", gamma=2.0,
                                                  target_class=0))
    with pytest.raises(ValueError):
        S.generate(req, model)


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
    # target K names the unconditional row, not a class; with K = 0 that
    # is cfg on an unconditional model
    model = M.init_denoiser(Vocabulary(3), length=4, num_classes=num_classes,
                            d=8, kind="uniform", seed=20)
    for mode in ("none", "cfg"):
        req = S.SampleRequest(num_sequences=3, length=4, T=4,
                              guidance=GuidanceConfig(
                                  mode, gamma=2.0, target_class=num_classes))
        with pytest.raises(ValueError):
            S.generate(req, model)


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
    model = LeaveOneOutDenoiser(data, U3, SCHED)
    out, _ = S.generate(S.SampleRequest(num_sequences=100_000, length=2,
                                        T=256, seed=24), model)
    js = kmer_js(out, data, 2)
    assert js < 0.01
    assert js < 5e-4


def test_recovery_improves_with_T():
    data = counts_dataset()
    model = LeaveOneOutDenoiser(data, U3, SCHED)
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
    model = OptimalDenoiser(data, U3, SCHED)
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
