import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catdiff import autodiff as ad
from catdiff import loss as L
from catdiff import model as M
from catdiff.core import NoiseSchedule, Vocabulary
from catdiff.forward import PriorSpec, corrupt, posterior, posterior_matrix
from catdiff.verify import (
    OptimalDenoiser,
    PerfectDenoiser,
    TabularDenoiser,
    exact_reverse_nll,
    kl_rate_oracle,
    udlm_integral_reference,
)

from . import graph_oracle

SCHED = NoiseSchedule()

# pinned once from the worked example: N=2, t=0.5, x=z=0, x_theta=[0.75,0.25]
INTEGRAND_PIN = 0.07073777836596057


# ------------------------------------------------------------------ LossSpec

def test_loss_spec_validation():
    L.LossSpec("udlm_continuous")
    L.LossSpec("nelbo_discrete", T=16)
    with pytest.raises(ValueError):
        L.LossSpec("elbo")
    with pytest.raises(ValueError):
        L.LossSpec("nelbo_discrete")  # missing T


@pytest.mark.parametrize("objective",
                         ["udlm_continuous", "mdlm_continuous", "sedd_form"])
def test_continuous_loss_spec_rejects_T(objective):
    # a continuous-time objective draws t itself; a grid size would be
    # accepted and then ignored
    assert L.LossSpec(objective).T is None
    with pytest.raises(ValueError, match="does not take T"):
        L.LossSpec(objective, T=16)


# ------------------------------------------------------------- diffusion KL

def test_kl_zero_at_truth():
    prior = PriorSpec.uniform(4)
    for z_t in range(4):
        x_row = np.zeros(4)
        x_row[2] = 1.0
        kl = L.diffusion_kl(2, z_t, 0.6, 0.45, x_row, prior, SCHED)
        assert abs(kl) <= 1e-12


def test_kl_worked_example_two_term():
    # N=2 uniform, t=0.5, s=0.25, x=z_t=0, x_theta=[0.8, 0.2]:
    # q = posterior with one-hot x, p = posterior with the substituted row,
    # and the KL is the plain two-term sum
    prior = PriorSpec.uniform(2)
    q = posterior(0, 0, 0.5, 0.25, prior, SCHED).probs
    p = posterior_matrix(0, np.array([0.8, 0.2]), 0.5, 0.25, prior, SCHED)
    expect = q[0] * np.log(q[0] / p[0]) + q[1] * np.log(q[1] / p[1])
    got = L.diffusion_kl(0, 0, 0.5, 0.25, np.array([0.8, 0.2]), prior, SCHED)
    assert got == pytest.approx(expect, abs=1e-15)
    assert got > 0


def test_kl_infinite_off_support():
    prior = PriorSpec.uniform(3)
    assert L._kl(np.array([0.5, 0.5, 0.0]), np.array([1.0, 0.0, 0.0])) == np.inf


def test_kl_kernel_on_arrays_is_inf_where_rows_miss_the_data():
    # at s = 0 the model posterior is zero at x = 0 for rows with no mass
    # there; the second sequence is finite and matches the reference
    prior = PriorSpec.uniform(3)
    x, z = np.array([[0, 1], [0, 1]]), np.array([[0, 2], [0, 2]])
    rows = np.array([[[0.0, 0.5, 0.5], [0.2, 0.3, 0.5]],
                     [[0.3, 0.2, 0.5], [0.2, 0.3, 0.5]]])
    got = L._kl_terms(rows, x, z, 0.25, 0.0, prior, SCHED)  # warns nothing
    ref = sum(L.diffusion_kl(int(x[1, l]), int(z[1, l]), 0.25, 0.0,
                             rows[1, l], prior, SCHED) for l in range(2))
    assert got[0] == np.inf
    assert got[1] == pytest.approx(ref, rel=1e-13)


# ----------------------------------------------------- continuous integrand

def test_integrand_pinned_value():
    got = L.udlm_integrand(0, 0, 0.5, np.array([0.75, 0.25]), SCHED)
    assert got == pytest.approx(INTEGRAND_PIN, abs=1e-15)


def test_integrand_zero_at_truth():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = int(rng.integers(0, n))
        z = int(rng.integers(0, n))
        t = float(rng.uniform(0.05, 0.95))
        row = np.zeros(n)
        row[x] = 1.0
        assert abs(L.udlm_integrand(x, z, t, row, SCHED)) <= 1e-12


def test_integrand_nonnegative_and_rejects_endpoints():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        row = rng.dirichlet(np.ones(n))
        val = L.udlm_integrand(int(rng.integers(0, n)), int(rng.integers(0, n)),
                               float(rng.uniform(0.02, 0.98)), row, SCHED)
        assert val >= -1e-12
    with pytest.raises(ValueError):
        L.udlm_integrand(0, 0, 0.0, np.array([0.5, 0.5]), SCHED)
    with pytest.raises(ValueError):
        L.udlm_integrand(0, 0, 1.0, np.array([0.5, 0.5]), SCHED)


def test_integrand_matches_kl_rate_limit():
    # independent oracle: KL between the two posterior references over a
    # vanishing step, divided by the step
    rng = np.random.default_rng(2)
    prior3 = PriorSpec.uniform(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        prior = PriorSpec.uniform(n)
        x, z = int(rng.integers(0, n)), int(rng.integers(0, n))
        t = float(rng.uniform(0.1, 0.9))
        row = rng.dirichlet(np.full(n, 2.0))
        mine = L.udlm_integrand(x, z, t, row, SCHED)
        ref = kl_rate_oracle(x, z, t, row, prior, SCHED)
        worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-8))
    assert worst < 1e-4
    del prior3


def test_sedd_form_equals_udlm_form():
    # the identity passes through zero (perfect predictions), so the
    # deviation is scored against max(1, |a|, |b|) rather than a pure
    # relative error
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 8))
        x, z = int(rng.integers(0, n)), int(rng.integers(0, n))
        t = float(rng.uniform(1e-3, 1.0 - 1e-3))
        row = rng.dirichlet(np.full(n, 0.7))
        row = np.maximum(row, 1e-12)
        row /= row.sum()
        a = L.udlm_integrand(x, z, t, row, SCHED)
        b = L.sedd_form_nelbo(x, z, t, row, SCHED)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    assert worst < 1e-11


# ------------------------------------------------------- discrete-time ELBO

def test_nelbo_zero_for_perfect_denoiser():
    x = np.array([0, 2, 1])
    den = PerfectDenoiser(x, 3)
    val = L.nelbo_discrete(x, den, 32, PriorSpec.uniform(3), SCHED, mode="exact")
    assert abs(val) <= 1e-9


def test_nelbo_positive_for_imperfect_denoiser():
    x = np.array([0, 2])
    den = TabularDenoiser(3, seed=1)
    val = L.nelbo_discrete(x, den, 16, PriorSpec.uniform(3), SCHED, mode="exact")
    assert val > 0.01


def test_nelbo_mode_validation():
    x = np.array([0])
    den = TabularDenoiser(3)
    with pytest.raises(ValueError):
        L.nelbo_discrete(x, den, 8, PriorSpec.uniform(3), SCHED, mode="fancy")
    with pytest.raises(ValueError):
        L.nelbo_discrete(x, den, 8, PriorSpec.uniform(3), SCHED, mode="mc")


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("bad", [[0, -1], [3, 0], [[0, 1], [2, 3]]])
def test_nelbo_rejects_out_of_range_tokens(mode, bad):
    # -1 must not wrap to the last token, nor 3 escape as an IndexError,
    # and nothing is drawn before the check
    den = TabularDenoiser(3, seed=1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        L.nelbo_discrete(np.array(bad), den, 4, PriorSpec.uniform(3), SCHED,
                         mode=mode, rng=rng)
    assert rng.bit_generator.state == state


def test_nelbo_mc_unbiased_within_3_sigma():
    x = np.array([1, 0])
    den = TabularDenoiser(3, seed=4)
    prior = PriorSpec.uniform(3)
    exact = L.nelbo_discrete(x, den, 8, prior, SCHED, mode="exact")
    rng = np.random.default_rng(0)
    draws = np.array([
        L.nelbo_discrete(x, den, 8, prior, SCHED, mode="mc", rng=rng)
        for _ in range(4000)
    ])
    sem = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 3 * sem


# The batched NELBO (one denoiser call over every mc draw of a batch, one
# per grid time over the enumerated latents in exact mode) is pinned to a
# per-sequence, per-latent loop over the single-position KL.

def _reference_nelbo(x, den, T, prior, mode, rng, mc_samples, labels):
    """Per-sequence loop: the same rng draws in the same order, rows from
    a one-sequence ``rows_batch`` call, the KL one position at a time."""
    out = []
    for b, row in enumerate(x):
        cond = None if labels is None else int(labels[b])

        def kl_sum(z, t, s):
            rows = den.rows_batch(np.asarray(z)[None], t, cond)[0]
            return sum(L.diffusion_kl(int(row[l]), int(z[l]), t, s, rows[l],
                                      prior, SCHED) for l in range(len(row)))

        if mode == "exact":
            total = 0.0
            for i in range(1, T + 1):
                t, s = i / T, (i - 1) / T
                a = SCHED.alpha(t)
                for z in itertools.product(range(prior.size),
                                           repeat=len(row)):
                    z = np.array(z)
                    w = np.prod(a * (z == row) + (1 - a) * prior.pi.probs[z])
                    if w > 0:
                        total += w * kl_sum(z, t, s)
        else:
            acc = 0.0
            for _ in range(mc_samples):
                i = int(rng.integers(1, T + 1))
                t, s = i / T, (i - 1) / T
                z = corrupt(row, t, prior, SCHED, rng)
                acc += T * kl_sum(z, t, s)
            total = acc / mc_samples
        out.append(total)
    return np.array(out)


# a sequence scored alone with a shared t once took BLAS's vector path for
# its time features, and its NELBO differed from its batch's by 1.5e-7
@example("mc", "uniform", "params_labeled", 4, 3, 3, 3, 181)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["exact", "mc"]),
    st.sampled_from(["uniform", "absorbing"]),
    st.sampled_from(["params", "params_labeled", "tabular"]),
    st.sampled_from([1, 4]),
    st.sampled_from([1, 3]),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([1, 3]),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_batched_nelbo_matches_per_sequence_loop(mode, kind, den_kind, batch,
                                                 length, T, mc_samples, seed):
    rng = np.random.default_rng(seed)
    if kind == "absorbing":
        vocab = Vocabulary(4, mask_index=3)
        prior = PriorSpec.absorbing(vocab)
    else:
        vocab = Vocabulary(3)
        prior = PriorSpec.uniform(3)
    x = rng.integers(0, 3, size=(batch, length))
    labels = None
    if den_kind == "tabular":
        den = TabularDenoiser(vocab.size, seed=seed, kind=kind,
                              mask_index=vocab.mask_index)
    else:
        num_classes = 2 if den_kind == "params_labeled" else 0
        den = M.init_denoiser(vocab, length, num_classes, 8, kind=kind,
                              seed=seed, scale=0.8)
        if num_classes:
            labels = rng.integers(0, num_classes, size=batch)
    got = L.nelbo_discrete(x, den, T, prior, SCHED, mode=mode,
                           rng=np.random.default_rng(seed),
                           mc_samples=mc_samples, condition=labels)
    want = _reference_nelbo(x, den, T, prior, mode,
                            np.random.default_rng(seed), mc_samples, labels)
    assert got.shape == (batch,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    single = L.nelbo_discrete(x[0], den, T, prior, SCHED, mode=mode,
                              rng=np.random.default_rng(seed),
                              mc_samples=mc_samples,
                              condition=None if labels is None else labels[0])
    assert isinstance(single, float)
    assert abs(single - want[0]) <= 1e-12 * max(1.0, abs(want[0]))


@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
@pytest.mark.parametrize("mc_samples", [1, 4])
def test_mc_draws_match_per_draw_corrupt_loop(kind, mc_samples):
    # mc mode draws every rung and uniform first and corrupts all latents
    # at once; the latents, their times and the rng stream after them are
    # those of one corrupt call per draw
    if kind == "absorbing":
        vocab = Vocabulary(4, mask_index=3)
        prior = PriorSpec.absorbing(vocab)
    else:
        vocab = Vocabulary(5)
        prior = PriorSpec.uniform(5)
    x = np.random.default_rng(21).integers(0, 3, size=(6, 7))
    T = 8
    ref = np.random.default_rng(5)
    want_z, want_t = [], []
    for row in x:
        for _ in range(mc_samples):
            i = int(ref.integers(1, T + 1))
            want_t.append(i / T)
            want_z.append(corrupt(row, i / T, prior, SCHED, ref))
    den = TabularDenoiser(vocab.size, seed=2, kind=kind,
                          mask_index=vocab.mask_index)
    seen = []

    class Recorder:
        def rows_batch(self, z_batch, t, condition=None):
            seen.append((z_batch.copy(), np.array(t)))
            return den.rows_batch(z_batch, t, condition)

    rng = np.random.default_rng(5)
    L.nelbo_discrete(x, Recorder(), T, prior, SCHED, mode="mc", rng=rng,
                     mc_samples=mc_samples)
    ((z, t),) = seen
    assert np.array_equal(z, np.array(want_z))
    assert np.array_equal(t, np.array(want_t))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("kind", ["uniform", "absorbing"])
@pytest.mark.parametrize("labels", [None, 1, "per_row"])
def test_exact_nelbo_calls_once_per_grid_time(kind, labels):
    # without per-sequence labels the batch shares one call per grid time
    # over the union of its sequences' reachable latents; with them each
    # sequence keeps its own call
    if kind == "absorbing":
        vocab = Vocabulary(4, mask_index=3)
        prior = PriorSpec.absorbing(vocab)
    else:
        vocab = Vocabulary(3)
        prior = PriorSpec.uniform(3)
    rng = np.random.default_rng(33)
    x = rng.integers(0, 3, size=(6, 4))
    x[1] = x[0]  # a repeated sequence reaches the same latents
    cond = rng.integers(0, 2, size=6) if labels == "per_row" else labels
    den = M.init_denoiser(vocab, 4, 2, 8, kind=kind, seed=4, scale=0.8)
    calls = []

    class Spy:
        def rows_batch(self, z_batch, t, condition=None):
            calls.append((len(z_batch), t))
            return den.rows_batch(z_batch, t, condition)

    T = 3
    got = L.nelbo_discrete(x, Spy(), T, prior, SCHED, mode="exact",
                           condition=cond)
    per_seq = len(x) if labels == "per_row" else 1
    assert [t for _, t in calls] == [i / T for i in range(1, T + 1)
                                     for _ in range(per_seq)]
    if labels != "per_row":
        # latents some sequence's forward marginal reaches at each time
        want_rows = []
        for i in range(1, T + 1):
            a = SCHED.alpha(i / T)
            want_rows.append(sum(
                any(np.prod(a * (z == row) + (1 - a) * prior.pi.probs[z]) > 0
                    for row in x)
                for z in map(np.array, itertools.product(range(vocab.size),
                                                         repeat=4))))
        assert [n for n, _ in calls] == want_rows
    one_by_one = np.array([
        L.nelbo_discrete(row, den, T, prior, SCHED, mode="exact",
                         condition=cond[b] if labels == "per_row" else cond)
        for b, row in enumerate(x)])
    assert got.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("labels", [None, "per_row"])
def test_nelbo_of_an_empty_batch_is_empty(mode, labels):
    den = M.init_denoiser(Vocabulary(3), 4, 2, 8, kind="uniform", seed=4)
    cond = np.zeros(0, dtype=np.int64) if labels == "per_row" else None
    got = L.nelbo_discrete(np.zeros((0, 4), dtype=np.int64), den, 3,
                           PriorSpec.uniform(3), SCHED, mode=mode,
                           rng=np.random.default_rng(0), condition=cond)
    assert got.shape == (0,)


@pytest.mark.parametrize("mc_samples", [1, 3])
def test_mc_nelbo_takes_a_condition_list_with_none(mc_samples):
    # a per-sequence list may leave a sequence unconditional; the batch
    # scores each sequence as when it is scored alone, rng included
    vocab = Vocabulary(3)
    prior = PriorSpec.uniform(3)
    den = M.init_denoiser(vocab, 4, 2, 8, kind="uniform", seed=6, scale=0.8)
    x = np.random.default_rng(6).integers(0, 3, size=(2, 4))
    got = L.nelbo_discrete(x, den, 8, prior, SCHED, mode="mc",
                           rng=np.random.default_rng(7),
                           mc_samples=mc_samples, condition=[1, None])
    rng = np.random.default_rng(7)
    want = np.array([
        L.nelbo_discrete(row, den, 8, prior, SCHED, mode="mc", rng=rng,
                         mc_samples=mc_samples, condition=cond)
        for row, cond in zip(x, [1, None])])
    assert got.shape == (2,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_exact_budget_is_checked_before_any_denoiser_call():
    class Untouchable:
        def rows_batch(self, z_batch, t, condition=None):
            raise AssertionError("denoiser called past the budget")

    prior = PriorSpec.uniform(6)
    with pytest.raises(ValueError, match="budget"):
        L.nelbo_discrete(np.zeros(7, dtype=np.int64), Untouchable(), 1,
                         prior, SCHED, mode="exact")
    assert 16 * 4 ** 5 <= L.EXACT_LATENT_BUDGET < 6 ** 7
    L.check_exact_budget(16, 4, 5)
    with pytest.raises(ValueError, match="budget"):
        L.check_exact_budget(2, 4, 8)


def test_nelbo_mc_variance_scales_inversely_with_samples():
    x = np.array([1, 0])
    den = TabularDenoiser(3, seed=5)
    prior = PriorSpec.uniform(3)
    rng = np.random.default_rng(1)
    one = np.array([
        L.nelbo_discrete(x, den, 8, prior, SCHED, mode="mc", rng=rng,
                         mc_samples=1)
        for _ in range(3000)
    ])
    four = np.array([
        L.nelbo_discrete(x, den, 8, prior, SCHED, mode="mc", rng=rng,
                         mc_samples=4)
        for _ in range(3000)
    ])
    ratio = one.var(ddof=1) / four.var(ddof=1)
    assert 3.0 < ratio < 5.4


def test_nelbo_converges_to_integral_reference():
    # scaled-down version of the halving check; the acceptance suite runs
    # the full ten-denoiser/ T up to 1024 sweep
    x = np.array([0, 2])
    den = TabularDenoiser(3, seed=6)
    prior = PriorSpec.uniform(3)
    limit = udlm_integral_reference(x, den, SCHED, 3)
    errs = [
        abs(L.nelbo_discrete(x, den, T, prior, SCHED, mode="exact") - limit)
        for T in (16, 32, 64)
    ]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert 1.6 <= hi / lo <= 2.4


def test_nelbo_upper_bounds_exact_nll():
    prior = PriorSpec.uniform(3)
    for seed in range(3):
        den = TabularDenoiser(3, seed=seed)
        x = np.array([seed % 3])
        for T in (2, 4, 8):
            nll = exact_reverse_nll(den, x, T, prior, SCHED)
            bound = L.nelbo_discrete(x, den, T, prior, SCHED, mode="exact")
            assert nll <= bound + 1e-9


def test_nelbo_absorbing_perfect_denoiser_zero():
    from catdiff.core import Vocabulary
    vocab = Vocabulary(4, mask_index=3)
    x = np.array([0, 2, 1])
    den = PerfectDenoiser(x, 4, kind="absorbing")
    val = L.nelbo_discrete(x, den, 32, PriorSpec.absorbing(vocab), SCHED,
                           mode="exact")
    assert abs(val) <= 1e-9


def test_nelbo_optimal_denoiser_beats_tabular():
    # the Bayes-optimal predictor minimizes the expected bound over data
    prior = PriorSpec.uniform(3)
    data = np.array([[0, 1], [0, 1], [2, 1], [0, 0]])
    opt = OptimalDenoiser(data, prior)
    tab = TabularDenoiser(3, seed=7)
    opt_avg = np.mean([
        L.nelbo_discrete(row, opt, 64, prior, SCHED, mode="exact")
        for row in data
    ])
    tab_avg = np.mean([
        L.nelbo_discrete(row, tab, 64, prior, SCHED, mode="exact")
        for row in data
    ])
    assert opt_avg < tab_avg


# ------------------------------------------------------ continuous-time MC

def test_udlm_loss_unbiased_for_integral():
    x = np.array([0, 2])
    den = TabularDenoiser(3, seed=8)
    ref = udlm_integral_reference(x, den, SCHED, 3)
    rng = np.random.default_rng(2)
    draws = np.array([
        L.udlm_loss(x, den, rng, 1, SCHED) for _ in range(6000)
    ])
    sem = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - ref) < 3 * sem


def test_udlm_loss_zero_for_perfect_denoiser():
    x = np.array([1, 0, 2])
    den = PerfectDenoiser(x, 3)
    rng = np.random.default_rng(3)
    assert abs(L.udlm_loss(x, den, rng, 64, SCHED)) <= 1e-12


def test_mdlm_zero_for_perfect_denoiser():
    x = np.array([0, 2, 1])
    den = PerfectDenoiser(x, 4, kind="absorbing")
    rng = np.random.default_rng(4)
    assert L.mdlm_loss(x, den, rng, 64, SCHED, mask_index=3) == 0.0


def test_mdlm_matches_absorbing_nelbo_large_T():
    from catdiff.core import Vocabulary
    vocab = Vocabulary(4, mask_index=3)
    prior = PriorSpec.absorbing(vocab)
    x = np.array([0, 2])
    den = TabularDenoiser(4, seed=9, kind="absorbing", mask_index=3)
    anchor = L.nelbo_discrete(x, den, 4096, prior, SCHED, mode="exact")
    rng = np.random.default_rng(5)
    draws = np.array([
        L.mdlm_loss(x, den, rng, 1, SCHED, mask_index=3) for _ in range(6000)
    ])
    sem = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - anchor) < max(3 * sem, 1e-3)


def test_mdlm_unmasked_positions_contribute_nothing():
    # a denoiser that is perfect only where tokens survive: if unmasked
    # positions leaked into the sum, this would not stay at the
    # masked-only value
    class HalfDenoiser:
        def rows_batch(self, z_batch, t, condition=None):
            z = np.asarray(z_batch)
            out = np.full(z.shape + (4,), 1e-9)
            guess = np.where(z == 3, 0, z)  # token 0 under every mask
            np.put_along_axis(out, guess[..., None], 1.0, axis=-1)
            return out / out.sum(axis=-1, keepdims=True)

    x = np.array([0, 0])
    rng = np.random.default_rng(6)
    val = L.mdlm_loss(x, HalfDenoiser(), rng, 512, SCHED, mask_index=3)
    assert abs(val) < 1e-6   # masked guesses are also right; rest must be 0

    # exactly zero mass on x where it survives: weight 0 must not meet
    # log 0 as 0 * inf = nan, and the value must be the masked-only sum
    class ZeroOffMaskDenoiser:
        def rows_batch(self, z_batch, t, condition=None):
            z = np.asarray(z_batch)
            out = np.zeros(z.shape + (4,))
            out[..., 1] = 0.5
            out[..., 0] = np.where(z == 3, 0.5, 0.0)
            out[..., 2] = np.where(z == 3, 0.0, 0.5)
            return out

    x = np.array([0, 0, 0])
    val = L.mdlm_loss(x, ZeroOffMaskDenoiser(), np.random.default_rng(7), 64,
                      SCHED, mask_index=3)
    rng = np.random.default_rng(7)
    width = SCHED.t_max - SCHED.t_min
    expect = 0.0
    for _ in range(64):
        t = float(SCHED.draw_t(rng))
        masked = rng.random(x.shape) >= SCHED.alpha(t)
        expect += width * masked.sum() * np.log(2.0) / t
    assert np.isfinite(val)
    assert val == pytest.approx(expect / 64, rel=1e-12)
    assert val > 0


# -------------------------------------------------------------------- scores

def test_bpc_and_ppl():
    assert L.bpc(np.log(2.0) * 10, 10) == pytest.approx(1.0, abs=1e-15)
    assert L.ppl(5 * np.log(27.0), 5) == pytest.approx(27.0, rel=1e-12)
    assert L.ppl(0.0, 3) == 1.0


# ----------------------------------------------------- batched graph builders

def _setup_batch(objective, kind="uniform", seed=0):
    from catdiff import model as M
    from catdiff.core import Vocabulary

    vocab = Vocabulary(4, mask_index=3) if kind == "absorbing" else Vocabulary(3)
    params = M.init_denoiser(vocab, 3, 2, 6, kind=kind, seed=seed, scale=0.3)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(5, 3))
    cond = rng.integers(0, 2, size=5)
    T = 6 if objective == "nelbo_discrete" else None
    spec = L.LossSpec(objective, T=T)
    return M, params, spec, x, cond


@pytest.mark.parametrize("objective", L.OBJECTIVES)
def test_training_loss_node_matches_scalar_path(objective):
    kind = L.BOUNDS[objective][0]
    M, params, spec, x, cond = _setup_batch(objective, kind)
    node = L.training_loss_node(
        spec, M.constant_nodes(params), params, x, cond,
        np.random.default_rng(42),
    )

    # replay the same draws and price each example with the scalar paths
    rng = np.random.default_rng(42)
    sched = params.schedule
    n = params.vocab.size
    if objective == "nelbo_discrete":
        i = rng.integers(1, spec.T + 1, size=x.shape[0])
        t, s = i / spec.T, (i - 1) / spec.T
    else:
        t = sched.draw_t(rng, size=x.shape[0])
        s = None
    keep = rng.random(x.shape) < sched.alpha(t)[:, None]
    noise = rng.choice(n, size=x.shape, p=params.prior.pi.probs)
    z = np.where(keep, x, noise)
    width = sched.t_max - sched.t_min
    per_example = []
    for b in range(x.shape[0]):
        # float64 rows: the training loss runs the float64 trunk, the
        # denoiser's inference forward runs in float32
        rows = np.exp(graph_oracle.denoiser_logprob_rows(
            M.constant_nodes(params), params, z[b:b + 1], t[b:b + 1],
            cond[b:b + 1]).value)[0]
        if objective == "udlm_continuous":
            val = width * sum(
                L.udlm_integrand(int(x[b, l]), int(z[b, l]), float(t[b]),
                                 rows[l], sched)
                for l in range(x.shape[1])
            )
        elif objective == "sedd_form":
            val = width * sum(
                L.sedd_form_nelbo(int(x[b, l]), int(z[b, l]), float(t[b]),
                                  rows[l], sched)
                for l in range(x.shape[1])
            )
        elif objective == "mdlm_continuous":
            a = sched.alpha(float(t[b]))
            rate = -sched.alpha_prime(float(t[b])) / (1.0 - a)
            masked = z[b] == params.vocab.mask_index
            val = width * rate * float(
                -np.sum(np.log(rows[np.arange(3), x[b]])[masked])
            )
        else:
            val = spec.T * sum(
                L.diffusion_kl(int(x[b, l]), int(z[b, l]), float(t[b]),
                               float(s[b]), rows[l], PriorSpec.uniform(n),
                               sched)
                for l in range(x.shape[1])
            )
        per_example.append(val)
    assert float(node.value) == pytest.approx(np.mean(per_example), rel=1e-10)


def test_one_discrete_kl_kernel_serves_eval_and_training(monkeypatch):
    """Doubling the KL kernel doubles the exact and mc NELBO and the
    training loss: no second copy of the discrete-time KL remains."""
    M, params, spec, x, cond = _setup_batch("nelbo_discrete")
    prior, sched = params.prior, params.schedule

    def values():
        exact = L.nelbo_discrete(x, params, 4, prior, sched, mode="exact",
                                 condition=cond)
        mc = L.nelbo_discrete(x, params, 4, prior, sched, mode="mc",
                              rng=np.random.default_rng(0), mc_samples=2,
                              condition=cond)
        node = L.training_loss_node(spec, M.constant_nodes(params), params,
                                    x, cond, np.random.default_rng(1))
        return exact, mc, float(node.value)

    before = values()
    real = L._kl_terms
    monkeypatch.setattr(L, "_kl_terms", lambda *args: 2.0 * real(*args))
    for old, new in zip(before, values()):
        assert np.all(np.asarray(old) > 0)
        assert new == pytest.approx(2.0 * np.asarray(old), rel=1e-12)


@pytest.mark.parametrize("objective", L.OBJECTIVES)
def test_training_loss_node_gradients(objective):
    from catdiff.verify import gradient_check

    kind = L.BOUNDS[objective][0]
    M, params, spec, x, cond = _setup_batch(objective, kind, seed=1)
    arrays = [a for _, a in params.arrays()]

    def build(nodes):
        work = params.copy()
        work.set_arrays([(name, n.value)
                         for (name, _), n in zip(params.arrays(), nodes)])
        return L.training_loss_node(spec, nodes, work, x, cond,
                                    np.random.default_rng(7))

    assert gradient_check(build, arrays, h=1e-6) < 1e-4


# sha256 of the parameters and per-epoch loss trace model.train leaves
# under each objective and each prior kind it bounds (NumPy 2.4.6 with its
# bundled OpenBLAS on x86-64), recorded before training_loss_node chose
# its kernel in one place: the carry-over gather and scatter around it and
# the (B, L) layout of uniform rows keep every byte.
TRAINED_DIGESTS = {
    ("absorbing", "mdlm_continuous"):
        "78a3da1c63a2a7fd93409f6e2d10d52e67f549cac8315aeb05f96d8b221eafbc",
    ("absorbing", "nelbo_discrete"):
        "204f9d9d1fcf7191dbb9c7e26f61bb654a28cb2bb1e5a6b39101e782d268752a",
    ("uniform", "nelbo_discrete"):
        "288cf3cd996dd9867de1015bb8dbd09171fbfa0a5f6caeb160c9135cddcc4234",
    ("uniform", "sedd_form"):
        "70f45593e88460452c8b199420eb1911dcde6cb44c6b61478c7698ddbd14295e",
    ("uniform", "udlm_continuous"):
        "27beb715f1dae44f7c122b8fe95a26092d58f751a67b94e27afd2c0ac1334211",
}


def _train_pair(kind, objective, params=None):
    """Six Adam steps (two epochs of 40 sequences at batch 16, the last
    batch ragged) of a two-layer conditional denoiser."""
    vocab = Vocabulary(5, mask_index=4) if kind == "absorbing" \
        else Vocabulary(4)
    rng = np.random.default_rng(25)
    x = rng.integers(0, 4, size=(40, 6))
    y = rng.integers(0, 3, size=40)
    spec = L.LossSpec(objective,
                      T=8 if objective == "nelbo_discrete" else None)
    return M.train((x, y), spec, kind=kind, vocab=vocab, num_classes=3, d=8,
                   n_layers=2, epochs=2, batch_size=16, lr=0.05, seed=3,
                   params=params)


@pytest.mark.parametrize("kind, objective", [
    (kind, objective) for objective, kinds in L.BOUNDS.items()
    for kind in kinds])
def test_trained_parameters_and_trace_keep_their_bytes(kind, objective):
    params, trace = _train_pair(kind, objective)
    got = b"".join([a.tobytes() for _, a in params.arrays()]
                   + [np.array(trace).tobytes()])
    assert hashlib.sha256(got).hexdigest() == TRAINED_DIGESTS[kind, objective]


# the continuous-time UDLM rate and its score-entropy form are derived for
# uniform noise and the MDLM rate for absorbing noise; under the other
# kind the MDLM rate read 0 on every uniform step (training left the
# parameters as they were) and the uniform rates scored an absorbing
# process under a prior it does not have
UNBOUND = [("uniform", "mdlm_continuous"), ("absorbing", "udlm_continuous"),
           ("absorbing", "sedd_form")]


@pytest.mark.parametrize("kind, objective", UNBOUND)
def test_training_refuses_an_objective_that_does_not_bound_the_prior(
        kind, objective):
    vocab = Vocabulary(5, mask_index=4) if kind == "absorbing" \
        else Vocabulary(4)
    params = M.init_denoiser(vocab, 6, 3, 8, kind=kind, seed=3)
    before = [a.copy() for _, a in params.arrays()]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    match = f"objective '{objective}' bounds a .* prior, not {kind}"
    with pytest.raises(ValueError, match=match):
        L.training_loss_node(L.LossSpec(objective), M.param_nodes(params),
                             params, np.zeros((2, 6), dtype=np.int64),
                             np.zeros(2, dtype=np.int64), rng)
    assert rng.bit_generator.state == state  # refused before any draw
    with pytest.raises(ValueError, match=match):
        _train_pair(kind, objective, params=params)
    assert params.version == 0
    for (_, got), want in zip(params.arrays(), before):
        assert np.array_equal(got, want)


def test_udlm_loss_refuses_an_absorbing_denoiser():
    den = TabularDenoiser(4, seed=8, kind="absorbing", mask_index=3)
    with pytest.raises(ValueError, match="not absorbing"):
        L.udlm_loss(np.array([0, 2]), den, np.random.default_rng(0), 1, SCHED)


# An absorbing denoiser's training loss runs its hidden layers, head,
# log-softmax and loss on the masked positions alone (carry-over), under
# each objective that bounds an absorbing prior. It is pinned to
# graph_oracle.training_loss, which computes every position's rows and
# terms and weights the unmasked ones 0: the gradients through the graph
# oracle's trunk to 1e-12 relative, and the values through the trunk's
# own folded arithmetic byte for byte. Batches of one short sequence
# reach no masked position and exactly one.
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([o for o in L.OBJECTIVES if "absorbing" in L.BOUNDS[o]]),
    st.sampled_from([1, 2]),
    st.sampled_from([(1, 1), (1, 3), (2, 2), (7, 5)]),
    st.integers(min_value=0, max_value=10 ** 6),
)
@example("mdlm_continuous", 2, (1, 1), 0)
@example("nelbo_discrete", 1, (1, 1), 0)
def test_absorbing_training_loss_matches_full_rows(objective, n_layers,
                                                   shape, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(4, mask_index=3)
    params = M.init_denoiser(vocab, shape[1], 2, 6, kind="absorbing",
                             n_layers=n_layers, seed=seed, scale=0.5)
    spec = L.LossSpec(objective,
                      T=5 if objective == "nelbo_discrete" else None)
    x = rng.integers(0, 3, size=shape)
    cond = rng.integers(0, 3, size=shape[0])
    draws = int(rng.integers(10 ** 6))
    values, grads = [], []
    for build in (L.training_loss_node, graph_oracle.training_loss):
        nodes = M.param_nodes(params)
        node = build(spec, nodes, params, x, cond,
                     np.random.default_rng(draws))
        values.append(float(node.value))
        grads.append(ad.backprop(node, nodes))
    folded = graph_oracle.training_loss(
        spec, M.constant_nodes(params), params, x, cond,
        np.random.default_rng(draws), trunk=graph_oracle.folded_trunk)
    assert values[0] == float(folded.value)
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=1e-300)
    for got, want in zip(*grads):
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


# ------------------------------------------------- variational optimum

def test_integral_tight_at_leave_one_out_rows():
    """Rows equal to the data posterior given the OTHER positions make the
    substituted reverse process the exact time reversal, so the continuous
    bound collapses to -log p(x) sequence by sequence."""
    from catdiff.verify import LeaveOneOutDenoiser

    counts = np.repeat(np.arange(9), np.arange(1, 10))
    data = np.stack([counts // 3, counts % 3], axis=1)
    den = LeaveOneOutDenoiser(data, PriorSpec.uniform(3))
    for x, mass in (((0, 0), 1 / 45), ((1, 2), 6 / 45), ((2, 2), 9 / 45)):
        got = udlm_integral_reference(np.array(x), den, SCHED, 3)
        assert abs(got - (-np.log(mass))) < 1e-8


def test_posterior_mean_rows_exceed_entropy_on_average():
    """The full-posterior mean is NOT the optimum of the continuous
    objective: averaged over the data it stays strictly above the data
    entropy, while the leave-one-out rows attain it."""
    from catdiff.verify import LeaveOneOutDenoiser

    data = np.repeat(np.arange(3), [1, 3, 5]).reshape(-1, 1)
    p = np.array([1, 3, 5]) / 9.0
    entropy = -(p * np.log(p)).sum()
    loo = LeaveOneOutDenoiser(data, PriorSpec.uniform(3))
    opt = OptimalDenoiser(data, PriorSpec.uniform(3))
    avg_loo = sum(p[v] * udlm_integral_reference(np.array([v]), loo, SCHED, 3)
                  for v in range(3))
    avg_opt = sum(p[v] * udlm_integral_reference(np.array([v]), opt, SCHED, 3)
                  for v in range(3))
    assert abs(avg_loo - entropy) < 1e-8
    assert avg_opt > entropy + 0.4
