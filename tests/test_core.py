import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catdiff import core
from catdiff.core import (
    Categorical,
    NoiseSchedule,
    Vocabulary,
    check_sequence,
    row_reduce,
    sample_rows,
)

from .sampling_oracle import cumsum_sample_rows


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


# Validation runs two reductions on the common path and works out which
# check failed only on the failure path; the messages are unchanged.
# The sum messages once printed the NumPy repr (np.float64(1.1)); their
# cases keep the ids they had then so the test names stay stable.
@pytest.mark.parametrize("vec, message", [
    ([np.nan, 1.0], "probs contain NaN or inf"),
    ([np.inf, 0.0], "probs contain NaN or inf"),
    ([np.inf, -np.inf], "probs contain NaN or inf"),
    ([np.nan, -1.0], "probs contain NaN or inf"),
    ([1.1, -0.1], "negative probability entry: min=-0.1"),
    ([-0.5, 0.5], "negative probability entry: min=-0.5"),
    pytest.param([0.5, 0.6], "probabilities sum to 1.1, expected 1",
                 id="vec6-probabilities sum to np.float64(1.1), expected 1"),
    pytest.param([], "probabilities sum to 0.0, expected 1",
                 id="vec7-probabilities sum to np.float64(0.0), expected 1"),
])
def test_categorical_error_messages(vec, message):
    with pytest.raises(ValueError) as info, np.errstate(invalid="ignore"):
        Categorical(vec)
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda s: s.alpha(np.float64(1.5)), "t outside [0, 1]: 1.5"),
    (lambda s: s.alpha(np.array(-0.5)), "t outside [0, 1]: -0.5"),
    (lambda s: s.alpha_prime(np.float64(1.0)), "t outside (0, 1): 1.0"),
    (lambda s: s.alpha_ratio(np.float64(0.25), np.float64(0.5)),
     "need s <= t, got s=0.5, t=0.25"),
], ids=["alpha", "alpha-0d", "alpha_prime", "alpha_ratio"])
def test_schedule_messages_print_plain_floats(call, message):
    # a NumPy scalar prints as the float it holds, not np.float64(1.5)
    with pytest.raises(ValueError) as info:
        call(NoiseSchedule())
    assert str(info.value) == message


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


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("bad,low,high", [
    (-1, -1, 2), (3, 0, 3), (I64.min, I64.min, 2), (I64.max, 0, I64.max)])
def test_check_token_range_refuses_each_side(bad, low, high):
    # one unsigned reduction: a negative token reads as huge, and the
    # message still gives the signed range
    tokens = np.array([[0, 2], [1, bad]], dtype=np.int64)
    with pytest.raises(ValueError, match=rf"got range \[{low}, {high}\]"):
        core.check_token_range(tokens, 3)
    core.check_token_range(np.array([[0, 2], [1, 0]]), 3)
    core.check_token_range(np.zeros((0, 4), dtype=np.int64), 3)
    with pytest.raises(TypeError):
        core.check_token_range(tokens.astype(np.int32), 3)


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


@pytest.mark.parametrize("total,shown", [(np.nan, "nan"), (0.0, "0.0"),
                                         (-np.inf, "-inf"), (np.inf, "inf")])
def test_row_total_message_prints_a_plain_float(total, shown):
    with pytest.raises(FloatingPointError) as info:
        core.check_row_totals(np.array([[1.0, 2.0], [0.5, total]]))
    assert str(info.value) == (f"row (1, 1) has total mass {shown}; "
                               f"expected finite and > 0")


def test_sample_rows_frequencies_within_3_sigma():
    rng = np.random.default_rng(7)
    p = np.array([0.2, 0.3, 0.5])
    n = 100_000
    draws = sample_rows(np.tile(p, (n, 1)), rng)
    for k in range(3):
        freq = (draws == k).mean()
        sigma = np.sqrt(p[k] * (1 - p[k]) / n)
        assert abs(freq - p[k]) < 3 * sigma + 1e-9


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 36),
    lead=st.sampled_from([(), (1,), (5,), (3, 4), (2, 7, 3)]),
    block=st.sampled_from([1, 3, 4, 4096]),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_sample_rows_matches_cumsum_oracle(n, lead, block, zero_frac, seed):
    # small blocks split these shapes across block edges; a row may hold
    # exact zeros anywhere, first and last column included
    gen = np.random.default_rng(seed)
    rows = gen.random(lead + (n,)) * 10.0 ** gen.integers(-3, 3)
    rows[gen.random(rows.shape) < zero_frac] = 0.0
    np.put_along_axis(rows, gen.integers(0, n, lead + (1,)), 0.5, axis=-1)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = cumsum_sample_rows(rows, want_rng)
    saved = core.SAMPLE_BLOCK_ROWS
    core.SAMPLE_BLOCK_ROWS = block
    try:
        got = sample_rows(rows, got_rng)
    finally:
        core.SAMPLE_BLOCK_ROWS = saved
    assert type(got) is type(want) and got.dtype == want.dtype
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if not lead:
        assert type(got) is np.int64  # a NumPy scalar, not a 0-d array


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 9000])
@pytest.mark.parametrize("n", [2, 6, 36])
def test_sample_rows_matches_cumsum_oracle_across_blocks(count, n):
    gen = np.random.default_rng(count * n)
    rows = gen.dirichlet(np.full(n, 0.3), size=count)
    want = cumsum_sample_rows(rows, np.random.default_rng(1))
    assert sample_rows(rows, np.random.default_rng(1)).tobytes() \
        == want.tobytes()


def test_sample_rows_failure_leaves_rng_untouched():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    rows = np.full((5000, 6), 1 / 6)  # the bad row sits in the second block
    for bad in (np.nan, np.inf, 0.0):
        rows[4500] = bad
        with pytest.raises(FloatingPointError, match=r"row \(4500,\)"):
            sample_rows(rows, rng)
        assert rng.bit_generator.state == before
        with pytest.raises(FloatingPointError):
            sample_rows(rows.reshape(1000, 5, 6), rng)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_row_reduce_matches_numpy_reductions(n, dtype):
    # row sums column by column have np.sum's bytes up to 7 columns, where
    # NumPy's short sum is sequential; row maxima have np.max's at any N.
    # Non-contiguous rows, as denoise_batch's unpadded head columns are
    gen = np.random.default_rng(n)
    wide = gen.standard_normal((3, 40, 16)).astype(dtype)
    wide[0, 0, 0] = -np.inf
    for rows in (wide[..., :n], np.abs(wide[..., :n]), wide[:, ::3, :n],
                 np.asfortranarray(wide[1, :, :n])):
        assert row_reduce(rows, np.add).tobytes() \
            == rows.sum(axis=-1).tobytes()
        assert row_reduce(rows, np.maximum).tobytes() \
            == rows.max(axis=-1).tobytes()


@pytest.mark.parametrize("n", [8, 9, 12, 27, 64])
def test_row_reduce_keeps_numpys_bytes_on_longer_rows(n):
    # from 8 columns np.sum adds pairwise, so row_reduce hands longer rows
    # to the ufunc's own reduction; loop_max=n still adds left to right
    gen = np.random.default_rng(n)
    wide = gen.standard_normal((7, 40, 80))
    for rows in (wide[..., :n], wide[:, ::3, :n]):
        assert row_reduce(rows, np.add).tobytes() \
            == rows.sum(axis=-1).tobytes()
        assert row_reduce(rows, np.maximum).tobytes() \
            == rows.max(axis=-1).tobytes()
        in_order = rows[..., 0].copy()
        for j in range(1, n):
            in_order = in_order + rows[..., j]
        assert row_reduce(rows, np.add, loop_max=n).tobytes() \
            == in_order.tobytes()
        assert row_reduce(rows, np.maximum, loop_max=n).tobytes() \
            == rows.max(axis=-1).tobytes()
    # the column order differs from the pairwise one on some rows
    assert row_reduce(wide[..., :n], np.add, loop_max=n).tobytes() \
        != wide[..., :n].sum(axis=-1).tobytes()
