import numpy as np
import pytest
from hypothesis import given, strategies as st

from catdiff.core import (
    Categorical,
    NoiseSchedule,
    Vocabulary,
    check_sequence,
    sample_rows,
)


@pytest.fixture
def sched():
    return NoiseSchedule()


# ---------------------------------------------------------------- schedule

def test_alpha_boundaries(sched):
    assert sched.alpha(0.0) == 1.0
    assert sched.alpha(1.0) == 0.0
    assert sched.alpha(0.25) == 0.75


def test_alpha_rejects_out_of_domain(sched):
    with pytest.raises(ValueError):
        sched.alpha(-0.01)
    with pytest.raises(ValueError):
        sched.alpha(1.01)


def test_alpha_prime_constant(sched):
    assert sched.alpha_prime(0.5) == -1.0
    assert sched.alpha_prime(0.01) == -1.0


def test_alpha_prime_matches_central_difference(sched):
    h = 1e-6
    for t in [0.1, 0.37, 0.5, 0.9]:
        fd = (sched.alpha(t + h) - sched.alpha(t - h)) / (2 * h)
        assert abs(fd - sched.alpha_prime(t)) < 1e-8


def test_alpha_ratio_examples(sched):
    assert sched.alpha_ratio(0.5, 0.25) == pytest.approx(2 / 3, abs=1e-15)
    assert sched.alpha_ratio(0.3, 0.3) == 1.0
    assert sched.alpha_ratio(1.0, 0.5) == 0.0


def test_alpha_ratio_identity_over_grid(sched):
    ts = np.linspace(0.0, 0.999, 40)
    for s in ts:
        for t in ts[ts >= s]:
            assert abs(
                sched.alpha_ratio(t, s) * sched.alpha(s) - sched.alpha(t)
            ) < 1e-14


def test_alpha_ratio_domain_errors(sched):
    with pytest.raises(ZeroDivisionError):
        sched.alpha_ratio(1.0, 1.0)
    with pytest.raises(ValueError):
        sched.alpha_ratio(0.2, 0.5)


def test_alpha_strictly_decreasing_on_grid(sched):
    ts = np.linspace(0.0, 1.0, 1000)
    alphas = sched.alpha(ts)
    assert np.all(np.diff(alphas) < 0)
    assert np.all(sched.alpha_prime(ts[1:-1]) < 0)


def test_schedule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        NoiseSchedule(kind="cosine")


def test_draw_t_respects_clamp(sched):
    rng = np.random.default_rng(0)
    ts = sched.draw_t(rng, size=10_000)
    assert ts.min() >= sched.t_min
    assert ts.max() <= sched.t_max


# ------------------------------------------------------------- categorical

def test_categorical_accepts_and_renormalizes():
    c = Categorical([0.5, 0.5 + 5e-10])
    assert c.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_categorical_rejects_bad_sum():
    with pytest.raises(ValueError):
        Categorical([0.5, 0.6])


def test_categorical_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        Categorical([1.1, -0.1])
    with pytest.raises(ValueError):
        Categorical([np.nan, 1.0])
    with pytest.raises(ValueError):
        Categorical([np.inf, 0.0])


def test_normalization_idempotent():
    c = Categorical.from_unnormalized([3.0, 1.0, 4.0])
    c2 = Categorical(c.probs)
    assert np.array_equal(c.probs, c2.probs)


def test_from_unnormalized_rejects_zero_mass():
    with pytest.raises(ValueError):
        Categorical.from_unnormalized([0.0, 0.0])


def test_one_hot_and_uniform():
    assert np.array_equal(Categorical.one_hot(1, 3).probs, [0, 1, 0])
    assert np.array_equal(Categorical.uniform(4).probs, [0.25] * 4)


def test_categorical_probs_read_only():
    c = Categorical.uniform(3)
    with pytest.raises(ValueError):
        c.probs[0] = 0.9


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8))
def test_from_unnormalized_always_sums_to_one(weights):
    c = Categorical.from_unnormalized(weights)
    assert abs(c.probs.sum() - 1.0) < 1e-12
    assert np.all(c.probs >= 0)


# -------------------------------------------------------------- vocabulary

def test_vocabulary_defaults():
    v = Vocabulary(3)
    assert v.symbols == ("a", "b", "c")
    assert not v.is_absorbing


def test_vocabulary_mask_symbol():
    v = Vocabulary(4, mask_index=3)
    assert v.symbols[3] == "#"
    assert v.is_absorbing


def test_vocabulary_invariants():
    with pytest.raises(ValueError):
        Vocabulary(1)
    with pytest.raises(ValueError):
        Vocabulary(3, mask_index=3)
    with pytest.raises(ValueError):
        Vocabulary(2, symbols=("a", "a"))
    with pytest.raises(ValueError):
        Vocabulary(3, symbols=("a", "b"))


def test_check_sequence():
    v = Vocabulary(3)
    seq = check_sequence([0, 2, 1], v)
    assert seq.dtype == np.int64
    with pytest.raises(ValueError):
        check_sequence([0, 3], v)
    with pytest.raises(ValueError):
        check_sequence([], v)


# ------------------------------------------------------------- sample_rows

def test_sample_rows_deterministic_rows():
    rng = np.random.default_rng(0)
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = sample_rows(rows, rng)
    assert np.array_equal(out, [0, 2])


@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [0.0, 0.0, 0.0],
                                 [np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5]])
def test_sample_rows_rejects_nonfinite_and_zero_mass_rows(bad):
    rows = np.array([[0.2, 0.3, 0.5], bad])
    with pytest.raises(FloatingPointError):
        sample_rows(rows, np.random.default_rng(0))


def test_sample_rows_frequencies_within_3_sigma():
    rng = np.random.default_rng(7)
    p = np.array([0.2, 0.3, 0.5])
    n = 100_000
    draws = sample_rows(np.tile(p, (n, 1)), rng)
    for k in range(3):
        freq = (draws == k).mean()
        sigma = np.sqrt(p[k] * (1 - p[k]) / n)
        assert abs(freq - p[k]) < 3 * sigma + 1e-9
