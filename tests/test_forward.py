import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdiff import autodiff as ad
from catdiff.core import Categorical, NoiseSchedule, Vocabulary
from catdiff.forward import (
    PriorSpec,
    corrupt,
    marginal_rows,
    posterior,
    posterior_matrix,
    posterior_uniform,
)
from catdiff.verify import bayes_posterior_oracle, substituted_posterior_oracle

SCHED = NoiseSchedule()


# ---------------------------------------------------------------- marginal

def test_marginal_no_noise_is_onehot():
    pr = PriorSpec.uniform(4)
    assert np.array_equal(marginal_rows(2, 0.0, pr, SCHED), [0, 0, 1, 0])


def test_marginal_full_noise_is_prior():
    pi = Categorical([0.1, 0.2, 0.7])
    pr = PriorSpec.general(pi)
    assert np.allclose(marginal_rows(0, 1.0, pr, SCHED), pi.probs, atol=1e-15)


def test_marginal_worked_example():
    # N=4 uniform, x=1, alpha=0.5
    pr = PriorSpec.uniform(4)
    got = marginal_rows(1, 0.5, pr, SCHED)
    assert np.allclose(got, [0.125, 0.625, 0.125, 0.125], atol=1e-15)


# ------------------------------------------------------ latent draws (corrupt)

def test_sample_latent_no_noise_returns_x():
    pr = PriorSpec.uniform(3)
    rng = np.random.default_rng(0)
    assert np.all(corrupt(np.ones(100, dtype=np.int64), 0.0, pr, SCHED, rng) == 1)


def test_sample_latent_absorbing_full_noise_is_mask():
    v = Vocabulary(3, mask_index=2)
    pr = PriorSpec.absorbing(v)
    rng = np.random.default_rng(0)
    assert np.all(corrupt(np.zeros(100, dtype=np.int64), 1.0, pr, SCHED, rng) == 2)


def test_sample_latent_uniform_full_noise_frequencies():
    n = 4
    pr = PriorSpec.uniform(n)
    rng = np.random.default_rng(123)
    draws = corrupt(np.zeros(1_000_000, dtype=np.int64), 1.0, pr, SCHED, rng)
    sigma = np.sqrt((1 / n) * (1 - 1 / n) / draws.size)
    for k in range(n):
        assert abs((draws == k).mean() - 1 / n) < 3 * sigma


def test_sample_latent_seq_mixture_rate():
    # keep probability must be alpha_t
    pr = PriorSpec.uniform(3)
    rng = np.random.default_rng(5)
    x = np.zeros(500_000, dtype=np.int64)
    z = corrupt(x, 0.4, pr, SCHED, rng)
    # P(z=0) = alpha + (1-alpha)/3 = 0.6 + 0.4/3
    expect = 0.6 + 0.4 / 3
    sigma = np.sqrt(expect * (1 - expect) / x.size)
    assert abs((z == 0).mean() - expect) < 3 * sigma


def test_corrupt_per_row_t_replays_documented_draws():
    # one uniform per token (keep x below alpha of its row's t), then one
    # prior token per token, in row-major order
    pr = PriorSpec.general(Categorical([0.2, 0.3, 0.5]))
    x = np.array([[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 2]])
    t = np.array([0.1, 0.5, 0.9])
    z = corrupt(x, t, pr, SCHED, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    uniforms = rng.random(x.shape)
    noise = rng.choice(3, size=x.shape, p=pr.pi.probs)
    for b in range(3):
        for l in range(4):
            keep = uniforms[b, l] < 1.0 - t[b]
            assert z[b, l] == (x[b, l] if keep else noise[b, l])
    # a shared t is the same draw as that t repeated per row
    shared = corrupt(x, 0.5, pr, SCHED, np.random.default_rng(8))
    per_row = corrupt(x, np.full(3, 0.5), pr, SCHED, np.random.default_rng(8))
    assert np.array_equal(shared, per_row)


@pytest.mark.parametrize("prior", [
    PriorSpec.uniform(5),
    PriorSpec.absorbing(Vocabulary(4, mask_index=1)),
    PriorSpec.general(Categorical([0.05, 0.0, 0.7, 0.25])),
], ids=["uniform", "absorbing", "skewed"])
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_corrupt_draws_as_rng_choice_and_keeps_the_stream(prior, t):
    x = np.random.default_rng(1).integers(0, prior.size, size=(6, 9))
    rng = np.random.default_rng(11)
    z = corrupt(x, t, prior, SCHED, rng)
    ref = np.random.default_rng(11)
    keep = ref.random(x.shape) < 1.0 - t
    noise = ref.choice(prior.size, size=x.shape, p=prior.pi.probs)
    assert z.dtype == np.int64
    assert np.array_equal(z, np.where(keep, x, noise))
    assert np.array_equal(rng.random(5), ref.random(5))


# ---------------------------------------------------------------- posterior

def test_posterior_absorbing_worked_example():
    # alpha_s=0.8, alpha_t=0.4 -> s=0.2, t=0.6
    v = Vocabulary(3, mask_index=2)
    pr = PriorSpec.absorbing(v)
    got = posterior(2, 0, 0.6, 0.2, pr, SCHED).probs
    assert np.allclose(got, [2 / 3, 0, 1 / 3], atol=1e-15)


def test_posterior_absorbing_carry_over():
    v = Vocabulary(3, mask_index=2)
    pr = PriorSpec.absorbing(v)
    for s, t in [(0.1, 0.5), (0.3, 0.9)]:
        got = posterior(1, 1, t, s, pr, SCHED).probs
        assert np.array_equal(got, [0, 1, 0])


def test_posterior_zero_width_step_is_point_mass():
    pr = PriorSpec.uniform(3)
    got = posterior(2, 0, 0.5, 0.5, pr, SCHED).probs
    assert np.allclose(got, [0, 0, 1], atol=1e-15)


def test_posterior_unreachable_latent_raises():
    v = Vocabulary(3, mask_index=2)
    pr = PriorSpec.absorbing(v)
    with pytest.raises(ValueError):
        posterior(1, 0, 0.6, 0.2, pr, SCHED)  # unmasked z_t != x


def test_posterior_uniform_worked_example():
    got = posterior_uniform(0, 0, 0.6, 0.2, 2, SCHED).probs
    assert np.allclose(got, [27 / 28, 1 / 28], atol=1e-15)


def test_posterior_uniform_trivial_point_mass():
    got = posterior_uniform(1, 1, 0.4, 0.4, 3, SCHED).probs
    assert np.allclose(got, [0, 1, 0], atol=1e-15)


def test_posterior_uniform_matches_general_path():
    n = 5
    pr = PriorSpec.uniform(n)
    grid = np.linspace(0.02, 0.97, 12)
    for s in grid:
        for t in grid[grid > s]:
            for x in range(n):
                for z in range(n):
                    a = posterior_uniform(z, x, t, s, n, SCHED).probs
                    b = posterior(z, x, t, s, pr, SCHED).probs
                    assert np.max(np.abs(a - b)) < 1e-13


def test_posterior_normalization_sweep_20x20():
    n = 5
    svals = np.linspace(0.0, 0.95, 20)
    for s in svals:
        for t in np.linspace(s + 1e-3, 0.999, 20):
            for x in range(n):
                for z in range(n):
                    row = posterior_uniform(z, x, t, s, n, SCHED).probs
                    assert abs(row.sum() - 1.0) < 1e-12


def test_posterior_matches_bayes_oracle_exhaustively():
    sgrid = np.linspace(0.0, 0.9, 8)
    for n in (2, 3, 5):
        priors = [PriorSpec.uniform(n)]
        if n >= 3:
            v = Vocabulary(n, mask_index=n - 1)
            priors.append(PriorSpec.absorbing(v))
        rng = np.random.default_rng(n)
        priors.append(PriorSpec.general(Categorical.from_unnormalized(rng.random(n) + 0.1)))
        for pr in priors:
            for s in sgrid:
                for t in np.linspace(s + 0.01, 0.99, 8):
                    for x in range(n):
                        for z in range(n):
                            if SCHED.alpha(t) * (z == x) + (1 - SCHED.alpha(t)) * pr.pi.probs[z] <= 0:
                                continue
                            a = posterior(z, x, t, s, pr, SCHED).probs
                            b = bayes_posterior_oracle(z, x, t, s, pr, SCHED).probs
                            assert np.max(np.abs(a - b)) < 1e-12


def test_marginal_consistency_chapman_kolmogorov():
    # sum_{z_t} q(z_t|x) q(z_s|z_t,x) = q(z_s|x)
    for n in (2, 3, 5):
        pr = PriorSpec.uniform(n)
        for s, t in [(0.1, 0.5), (0.3, 0.8), (0.0, 0.99)]:
            for x in range(n):
                acc = np.zeros(n)
                qt = marginal_rows(x, t, pr, SCHED)
                for z in range(n):
                    acc += qt[z] * posterior(z, x, t, s, pr, SCHED).probs
                qs = marginal_rows(x, s, pr, SCHED)
                assert np.max(np.abs(acc - qs)) < 1e-11


def _prior(kind, n, rng):
    if kind == "uniform":
        return PriorSpec.uniform(n)
    if kind == "absorbing":
        return PriorSpec.absorbing(Vocabulary(n, mask_index=n - 1))
    return PriorSpec.general(Categorical.from_unnormalized(rng.random(n) + 0.05))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    kind=st.sampled_from(["uniform", "absorbing", "general"]),
    shape=st.sampled_from([(), (5,), (3, 4)]),
    per_row=st.booleans(),
    one_hot=st.booleans(),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_posterior_matrix_matches_oracles(n, kind, shape, per_row, one_hot,
                                          seed):
    """The one posterior kernel against the literal-Bayes oracles, entry by
    entry: one-hot rows against bayes_posterior_oracle, arbitrary rows
    against substituted_posterior_oracle, over scalar, (L,) and (B, L)
    latents with t and s shared or one per leading row. The same rows as
    an autodiff Node (training's KL) give the same bytes."""
    rng = np.random.default_rng(seed)
    pr = _prior(kind, n, rng)
    lead = shape[:1] if per_row and shape else ()
    s = np.asarray(rng.uniform(0.01, 0.49, size=lead))
    t = np.asarray(rng.uniform(s + 0.01, 0.99))
    s_at = np.broadcast_to(s.reshape(s.shape + (1,) * (len(shape) - s.ndim)),
                           shape)
    t_at = np.broadcast_to(t.reshape(t.shape + (1,) * (len(shape) - t.ndim)),
                           shape)
    if one_hot:
        x = rng.integers(n - (kind == "absorbing"), size=shape)
        rows = np.eye(n)[x]
        # latents drawn from the forward marginal are reachable
        z = corrupt(x, t, pr, SCHED, rng)
    else:
        rows = rng.dirichlet(np.ones(n), size=shape)
        z = rng.integers(n, size=shape)
    shared = not lead
    got = posterior_matrix(z, rows, float(t) if shared else t,
                           float(s) if shared else s, pr, SCHED)
    assert got.shape == shape + (n,)
    node = posterior_matrix(z, ad.param(rows), float(t) if shared else t,
                            float(s) if shared else s, pr, SCHED)
    assert isinstance(node, ad.Node)
    assert node.value.tobytes() == got.tobytes()
    for idx in np.ndindex(*shape):
        ti, si, zi = float(t_at[idx]), float(s_at[idx]), int(z[idx])
        if one_hot:
            ref = bayes_posterior_oracle(zi, int(x[idx]), ti, si, pr,
                                         SCHED).probs
        else:
            ref = substituted_posterior_oracle(zi, rows[idx], ti, si, pr,
                                               SCHED)
        assert np.max(np.abs(got[idx] - ref)) < 1e-12


def test_posterior_matrix_rejects_rows_of_another_shape():
    # one row per latent: rows are never broadcast over the latents
    pr = PriorSpec.uniform(3)
    z = np.array([[0, 1], [2, 0]])
    rows = np.full((2, 2, 3), 1 / 3)
    for bad in (rows[0], rows[:1], rows[..., :2], rows[None]):
        with pytest.raises(ValueError, match="does not match"):
            posterior_matrix(z, bad, 0.6, 0.2, pr, SCHED)
        with pytest.raises(ValueError, match="does not match"):
            posterior_matrix(z, ad.param(bad), 0.6, 0.2, pr, SCHED)


def test_posterior_matrix_absorbing_distribution_rows():
    v = Vocabulary(4, mask_index=3)
    pr = PriorSpec.absorbing(v)
    rng = np.random.default_rng(3)
    z_seq = np.array([3, 1, 3, 2])
    x_rows = rng.dirichlet(np.ones(3), size=4)
    x_rows = np.hstack([x_rows, np.zeros((4, 1))])  # no mass on mask
    got = posterior_matrix(z_seq, x_rows, 0.6, 0.2, pr, SCHED)
    # carry-over rows are point masses on the observed token
    assert np.allclose(got[1], [0, 1, 0, 0], atol=1e-12)
    assert np.allclose(got[3], [0, 0, 1, 0], atol=1e-12)
    # masked rows unmask to x_theta with prob (a_s-a_t)/(1-a_t) = 2/3
    assert got[0, 3] == pytest.approx(1 / 3, abs=1e-12)
    assert np.allclose(got[0, :3], (2 / 3) * x_rows[0, :3], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.01, max_value=0.49),
    st.floats(min_value=0.5, max_value=0.99),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_posterior_matches_oracle_random_general_prior(n, s, t, seed):
    rng = np.random.default_rng(seed)
    pr = PriorSpec.general(Categorical.from_unnormalized(rng.random(n) + 0.05))
    x = int(rng.integers(n))
    z = int(rng.integers(n))
    a = posterior(z, x, t, s, pr, SCHED).probs
    b = bayes_posterior_oracle(z, x, t, s, pr, SCHED).probs
    assert np.max(np.abs(a - b)) < 1e-12
