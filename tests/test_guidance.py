import numpy as np
import pytest

from catdiff import guidance as G
from catdiff import model as M
from catdiff.core import Vocabulary
from catdiff.verify import (
    AffineClassifier,
    CallCountingClassifier,
    tempered_token_oracle,
)

GAMMAS = (0.0, 0.5, 1.0, 2.0, 5.0)


def random_rows(rng, length, n, floor=0.0):
    rows = rng.dirichlet(np.ones(n), size=length)
    if floor:
        rows = np.maximum(rows, floor)
        rows /= rows.sum(axis=1, keepdims=True)
    return rows


# ------------------------------------------------------------------- config

def test_config_validation():
    G.GuidanceConfig("none")
    G.GuidanceConfig("cfg", gamma=2.0, target_class=1)
    with pytest.raises(ValueError):
        G.GuidanceConfig("cfg")  # needs target_class
    with pytest.raises(ValueError):
        G.GuidanceConfig("cbg_exact", gamma=-0.5, target_class=0)
    with pytest.raises(ValueError):
        G.GuidanceConfig("pplm", target_class=0)
    with pytest.raises(ValueError):
        G.GuidanceConfig("cfg", gamma=np.inf, target_class=0)
    with pytest.raises(ValueError):
        G.GuidanceConfig("cbg_exact", target_class=0, classifier_time="u")
    assert G.GuidanceConfig("cbg_taylor", target_class=0).needs_classifier
    assert not G.GuidanceConfig("cfg", target_class=0).needs_classifier


# ---------------------------------------------------------------------- cfg

def test_cfg_endpoints_bit_exact():
    rng = np.random.default_rng(0)
    cond = random_rows(rng, 4, 5)
    uncond = random_rows(rng, 4, 5)
    assert np.array_equal(G.cfg_combine(cond, uncond, 1.0), cond)
    assert np.array_equal(G.cfg_combine(cond, uncond, 0.0), uncond)


def test_cfg_worked_value():
    got = G.cfg_combine(np.array([[0.8, 0.2]]), np.array([[0.5, 0.5]]), 2.0)
    assert np.max(np.abs(got - np.array([[16 / 17, 1 / 17]]))) < 1e-12


def test_cfg_matches_direct_powers():
    rng = np.random.default_rng(1)
    for gamma in GAMMAS:
        cond = random_rows(rng, 3, 4, floor=1e-6)
        uncond = random_rows(rng, 3, 4, floor=1e-6)
        direct = cond ** gamma * uncond ** (1.0 - gamma)
        direct /= direct.sum(axis=1, keepdims=True)
        got = G.cfg_combine(cond, uncond, gamma)
        assert np.max(np.abs(got - direct)) < 1e-12


def test_cfg_outputs_are_distributions():
    rng = np.random.default_rng(2)
    for gamma in GAMMAS:
        cond = random_rows(rng, 6, 4)
        uncond = random_rows(rng, 6, 4)
        out = G.cfg_combine(cond, uncond, gamma)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_cfg_zero_probability_stays_zero():
    cond = np.array([[0.0, 0.6, 0.4]])
    uncond = np.array([[0.5, 0.25, 0.25]])
    out = G.cfg_combine(cond, uncond, 2.0)
    assert out[0, 0] == 0.0
    assert np.isfinite(out).all()
    # zero on the unconditional side with gamma > 1 (negative exponent)
    # also stays at zero mass rather than blowing up
    out2 = G.cfg_combine(uncond, cond, 2.0)
    assert out2[0, 0] == 0.0
    assert np.isfinite(out2).all()


def test_cfg_no_support_raises():
    with pytest.raises(ValueError):
        G.cfg_combine(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.5)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                 [0.0, 0.0, 0.0]])
def test_cfg_rejects_nonfinite_and_zero_mass_rows(bad, gamma):
    good = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
    bad = np.array([[0.3, 0.3, 0.4], bad])
    with pytest.raises(FloatingPointError):
        G.cfg_combine(bad, good, gamma)
    with pytest.raises(FloatingPointError):
        G.cfg_combine(good, bad, gamma)


def test_cfg_shape_mismatch():
    with pytest.raises(ValueError):
        G.cfg_combine(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)


def test_cfg_argmax_monotone_above_one():
    # log weights are linear in gamma, so a token that wins at gamma=1
    # (conditional argmax) and also wins the slope (cond/uncond ratio
    # argmax) stays the argmax for every gamma >= 1. Note agreeing
    # argmaxes alone are not enough: a competitor with tiny
    # unconditional mass overtakes as gamma grows.
    rng = np.random.default_rng(3)
    hit = 0
    for _ in range(200):
        cond = random_rows(rng, 1, 4, floor=1e-9)
        uncond = random_rows(rng, 1, 4, floor=1e-9)
        top = np.argmax(cond[0])
        if np.argmax(cond[0] / uncond[0]) != top:
            continue
        hit += 1
        for gamma in (1.0, 1.5, 2.0, 5.0, 20.0):
            assert np.argmax(G.cfg_combine(cond, uncond, gamma)[0]) == top
    assert hit > 20


def test_cfg_extreme_probabilities_stable():
    # max-subtraction keeps tiny probabilities from overflowing at gamma=5
    cond = np.array([[1.0 - 3e-300, 1e-300, 1e-300, 1e-300]])
    cond /= cond.sum()
    uncond = np.full((1, 4), 0.25)
    out = G.cfg_combine(cond, uncond, 5.0)
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------- cbg

def setup_cbg(seed=0, length=3, n=4, k=3):
    vocab = Vocabulary(n)
    clf = M.init_classifier(vocab, length, k, 8, seed=seed, scale=0.5)
    rng = np.random.default_rng(seed)
    z = rng.integers(0, n, size=length)
    rows = random_rows(rng, length, n, floor=1e-9)
    return clf, z, rows


@pytest.mark.parametrize("gamma", GAMMAS)
def test_cbg_exact_matches_oracle(gamma):
    clf, z, rows = setup_cbg()
    got = G.cbg_exact(clf, z, 0.4, rows, 1, gamma)
    ref = tempered_token_oracle(clf, z, rows, 1, gamma, 0.4)
    assert np.max(np.abs(got - ref)) < 1e-12
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_cbg_exact_call_count():
    for gamma in GAMMAS:
        clf, z, rows = setup_cbg(seed=1)
        counter = CallCountingClassifier(clf)
        G.cbg_exact(counter, z, 0.4, rows, 0, gamma)
        assert counter.log_prob_calls == z.shape[0] * rows.shape[1]
        assert counter.grad_calls == 0


def test_cbg_taylor_call_count():
    for gamma in GAMMAS:
        clf, z, rows = setup_cbg(seed=2)
        counter = CallCountingClassifier(clf)
        G.cbg_taylor(counter, z, 0.4, rows, 0, gamma)
        assert counter.grad_calls == 1
        assert counter.log_prob_calls == 0


def test_cbg_gamma_zero_returns_rows():
    clf, z, rows = setup_cbg(seed=3)
    assert np.max(np.abs(G.cbg_exact(clf, z, 0.4, rows, 2, 0.0) - rows)) < 1e-15
    assert np.max(np.abs(G.cbg_taylor(clf, z, 0.4, rows, 2, 0.0) - rows)) < 1e-15


def test_cbg_two_term_worked_example():
    # L=1, N=2, flat reverse row, classifier probabilities [0.9, 0.1] at
    # gamma=1: the tempered row is exactly [0.9, 0.1]
    class TwoToken:
        def log_probs(self, z_seq, t):
            p = 0.9 if z_seq[0] == 0 else 0.1
            return np.log(np.array([p, 1.0 - p]))

    out = G.cbg_exact(TwoToken(), np.array([0]), 0.3,
                      np.array([[0.5, 0.5]]), 0, 1.0)
    assert np.max(np.abs(out - np.array([[0.9, 0.1]]))) < 1e-12


def test_cbg_zero_mass_candidate_stays_zero():
    clf, z, rows = setup_cbg(seed=4)
    rows[0, 1] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    out = G.cbg_exact(clf, z, 0.4, rows, 0, 2.0)
    assert out[0, 1] == 0.0


def test_cbg_all_zero_row_raises():
    clf, z, rows = setup_cbg(seed=5)
    rows[1] = 0.0
    with pytest.raises(ValueError):
        G.cbg_exact(clf, z, 0.4, rows, 0, 2.0)
    with pytest.raises(ValueError):
        G.cbg_taylor(clf, z, 0.4, rows, 0, 2.0)


def test_taylor_exact_for_affine_classifier():
    rng = np.random.default_rng(6)
    aff = AffineClassifier(3, 4, 5, seed=6)
    for gamma in GAMMAS:
        z = rng.integers(0, 5, size=4)
        rows = random_rows(rng, 4, 5, floor=1e-9)
        exact = G.cbg_exact(aff, z, 0.5, rows, 1, gamma)
        taylor = G.cbg_taylor(aff, z, 0.5, rows, 1, gamma)
        assert np.max(np.abs(exact - taylor)) < 1e-9


def test_taylor_close_but_not_exact_for_mlp():
    clf, z, rows = setup_cbg(seed=7)
    exact = G.cbg_exact(clf, z, 0.4, rows, 1, 2.0)
    taylor = G.cbg_taylor(clf, z, 0.4, rows, 1, 2.0)
    tv = 0.5 * np.abs(exact - taylor).sum(axis=1)
    assert np.all(tv < 0.5)       # the linearization is a usable approximation
    assert np.any(tv > 1e-9)      # but a softmax head is not affine


def test_taylor_oracle_concentrates_at_large_gamma():
    aff = AffineClassifier(2, 1, 4, seed=8)
    rows = np.full((1, 4), 0.25)
    z = np.array([2])
    out = tempered_token_oracle(aff, z, rows, 0, 200.0, 0.5)
    best = np.argmax([aff.log_probs(np.array([v]), 0.5)[0] for v in range(4)])
    assert out[0, best] > 1.0 - 1e-9
