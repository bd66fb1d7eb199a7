import numpy as np
import pytest

from catdiff import ctmc
from catdiff.core import NoiseSchedule
from catdiff.forward import PriorSpec, posterior_matrix
from catdiff.verify import ctmc_tv_sweep, fitted_exponent

SCHED = NoiseSchedule()
DTS = np.geomspace(1e-5, 3e-4, 9)


def two_state(rate01: float, rate10: float) -> ctmc.RateMatrix:
    return ctmc.RateMatrix(np.array([[-rate01, rate01],
                                     [rate10, -rate10]]))


# ---------------------------------------------------------------- RateMatrix

def test_rate_matrix_validation():
    m = two_state(1.0, 2.0)
    assert m.n == 2
    with pytest.raises(ValueError):
        ctmc.RateMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ctmc.RateMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # negative off-diag
    with pytest.raises(ValueError):
        ctmc.RateMatrix(np.array([[-1.0, 2.0], [1.0, -1.0]]))  # bad row sum
    with pytest.raises(ValueError):
        ctmc.RateMatrix(np.array([[-np.inf, np.inf], [1.0, -1.0]]))


def test_rate_matrix_row_sum_tolerance_is_relative():
    # large magnitudes keep roundoff-level row sums acceptable
    big = 1e12 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    big[0, 0] -= 1e-4  # 1e-16 relative error
    ctmc.RateMatrix(big)


# -------------------------------------------------------------- forward rate

def test_uniform_rate_worked_two_state():
    # t=0.5: alpha=0.5, alpha'=-1, so -alpha'/(N alpha) = 1
    got = ctmc.uniform_rate(SCHED, 0.5, 2).entries
    assert np.allclose(got, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_uniform_rate_structure(n, t):
    m = ctmc.uniform_rate(SCHED, t, n).entries
    assert np.allclose(m.sum(axis=1), 0.0, atol=1e-12)
    off = m[~np.eye(n, dtype=bool)]
    assert off.min() > 0
    assert np.allclose(off, off[0])  # all off-diagonal rates equal


@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
def test_uniform_rate_is_kernel_difference_quotient(t):
    # the forward mixing kernel K_{t -> t+h} differentiates to the rate
    n, h = 4, 1e-6
    ratio = SCHED.alpha(t + h) / SCHED.alpha(t)
    kernel = ratio * np.eye(n) + (1.0 - ratio) / n
    quotient = (kernel - np.eye(n)) / h
    assert np.max(np.abs(quotient - ctmc.uniform_rate(SCHED, t, n).entries)) < 1e-4


# -------------------------------------------------------------- reverse rate

def test_reverse_rate_uniform_marginal_transposes_jumps():
    fwd = two_state(1.0, 2.0)
    rev = ctmc.reverse_rate(fwd, lambda j, i: 1.0)
    off = ~np.eye(2, dtype=bool)
    assert np.allclose(rev.entries[off], fwd.entries.T[off])
    assert np.allclose(rev.entries.sum(axis=1), 0.0)


def test_reverse_rate_two_state_worked():
    # marginals (1/4, 3/4): rate(0->1) = fwd(1->0) * q(1)/q(0) = 1 * 3
    q = np.array([0.25, 0.75])
    rev = ctmc.reverse_rate(two_state(1.0, 1.0), lambda j, i: q[j] / q[i])
    assert np.allclose(rev.entries, [[-3.0, 3.0], [1.0 / 3.0, -1.0 / 3.0]])
    # Bayes flux identity: reverse flow i->j equals forward flow j->i
    fwd = two_state(1.0, 1.0)
    for i, j in ((0, 1), (1, 0)):
        assert np.isclose(q[i] * rev.entries[i, j], q[j] * fwd.entries[j, i])


def test_mixture_ratio_worked():
    # N=2, t=0.5: mix = N a row + (1 - a) = [1.25, 0.75]
    ratio = ctmc.mixture_ratio(np.array([0.75, 0.25]), 0.5, SCHED)
    assert np.isclose(ratio(1, 0), 0.75 / 1.25)
    assert np.isclose(ratio(0, 1), 1.25 / 0.75)
    assert np.isclose(ratio(1, 1), 1.0)


# ---------------------------------------------------------------- Euler step

def test_euler_step_distribution_worked():
    rate = two_state(1.0, 1.0)
    assert np.allclose(ctmc.euler_step_distribution(0, rate, 0.0), [1.0, 0.0])
    assert np.allclose(ctmc.euler_step_distribution(0, rate, 0.2), [0.8, 0.2])


def test_euler_step_distribution_stability_guard():
    rate = two_state(4.0, 1.0)
    assert np.isclose(ctmc.max_stable_dt(rate), 0.25)
    with pytest.raises(ValueError, match="max stable dt"):
        ctmc.euler_step_distribution(0, rate, 0.3)
    with pytest.raises(ValueError):
        ctmc.euler_step_distribution(0, rate, -0.1)
    zero = ctmc.RateMatrix(np.zeros((3, 3)))
    assert ctmc.max_stable_dt(zero) == np.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_euler_matches_posterior_to_second_order(seed):
    """One unguided Euler step with the reverse rate and one substituted
    posterior step describe the same process: their one-step laws differ
    at O(dt^2)."""
    rng = np.random.default_rng(seed)
    row = np.maximum(rng.dirichlet(np.ones(3)), 1e-6)
    row /= row.sum()
    z = int(rng.integers(3))
    t = 0.6
    rev = ctmc.reverse_rate(ctmc.uniform_rate(SCHED, t, 3),
                            ctmc.mixture_ratio(row, t, SCHED))
    prior = PriorSpec.uniform(3)
    tvs = []
    for dt in DTS:
        post = posterior_matrix(z, row, t, t - dt, prior, SCHED)
        post = post / post.sum()
        tvs.append(0.5 * np.abs(post - ctmc.euler_step_distribution(z, rev, dt)).sum())
    tvs = np.array(tvs)
    assert 1.9 < fitted_exponent(DTS, tvs) < 2.1
    assert np.all(tvs <= 10.0 * DTS**2)


# -------------------------------------------------------------- guided rates

def test_guided_rate_cfg_endpoints_bit_exact():
    cond, uncond = two_state(2.0, 4.0), two_state(1.0, 1.0)
    assert ctmc.guided_rate_cfg(cond, uncond, 0.0) is uncond
    assert ctmc.guided_rate_cfg(cond, uncond, 1.0) is cond


def test_guided_rate_cfg_geometric_blend_worked():
    cond, uncond = two_state(2.0, 4.0), two_state(1.0, 1.0)
    got = ctmc.guided_rate_cfg(cond, uncond, 0.5).entries
    assert np.allclose(got, [[-np.sqrt(2.0), np.sqrt(2.0)], [2.0, -2.0]])


def test_guided_rate_cfg_zero_support():
    cond, uncond = two_state(0.0, 4.0), two_state(1.0, 1.0)
    got = ctmc.guided_rate_cfg(cond, uncond, 0.5).entries
    assert got[0, 1] == 0.0 and got[0, 0] == 0.0
    with pytest.raises(ValueError):
        ctmc.guided_rate_cfg(two_state(1.0, 1.0), two_state(0.0, 1.0), 2.0)


def test_guided_rate_cfg_shape_mismatch():
    with pytest.raises(ValueError):
        ctmc.guided_rate_cfg(two_state(1.0, 1.0),
                             ctmc.RateMatrix(np.zeros((3, 3))), 0.5)


def test_guided_rate_cbg_worked():
    rate = two_state(1.0, 2.0)
    assert ctmc.guided_rate_cbg(rate, lambda j, i: 0.5, 0.0) is rate
    flat = ctmc.guided_rate_cbg(rate, lambda j, i: 1.0, 3.0)
    assert np.allclose(flat.entries, rate.entries)
    r = np.array([1.0, 2.0])
    got = ctmc.guided_rate_cbg(rate, lambda j, i: r[j] / r[i], 2.0).entries
    assert np.allclose(got, [[-4.0, 4.0], [0.5, -0.5]])


# ----------------------------------------------- route-agreement sweeps

@pytest.mark.parametrize("gamma", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_cfg_routes_agree_to_first_order(gamma, seed):
    """Blending x-probabilities (variational route) and blending reverse
    rates (CTMC route) are different discretizations of the same guided
    process: TV between their one-step laws vanishes like dt^1."""
    dts, tvs = ctmc_tv_sweep("cfg", gamma, seed, DTS)
    assert 0.8 < fitted_exponent(np.asarray(dts), np.asarray(tvs)) < 1.2


@pytest.mark.parametrize("gamma", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_cbg_routes_agree_to_second_order(gamma, seed):
    """Posterior-row tempering commutes with rate scaling at first order,
    so these two routes agree even more tightly: TV vanishes like dt^2
    (in particular faster than the dt^1 the guided-process claim needs)."""
    dts, tvs = ctmc_tv_sweep("cbg", gamma, seed, DTS)
    dts, tvs = np.asarray(dts), np.asarray(tvs)
    assert 1.8 < fitted_exponent(dts, tvs) < 2.2
    assert np.all(tvs <= 0.01 * dts)
