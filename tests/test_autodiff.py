import numpy as np
import pytest

from catdiff import autodiff as ad
from catdiff.verify import gradient_check

from .graph_oracle import matmul, take, tanh

TOL = 1e-4


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# ------------------------------------------------- primitive-by-primitive

def test_add_with_broadcasting():
    a, b = rand(3, 4, seed=1), rand(4, seed=2)
    err = gradient_check(lambda p: ad.nsum(tanh(p[0] + p[1])), [a, b])
    assert err < TOL


def test_mul_div_power():
    a, b = rand(2, 3, seed=3) + 3.0, rand(2, 3, seed=4) + 3.0
    err = gradient_check(
        lambda p: ad.nsum(p[0] * p[1] + p[0] / p[1] + p[0] * p[0] * p[0]),
        [a, b],
    )
    assert err < TOL


def test_matmul_2d():
    a, b = rand(3, 4, seed=5), rand(4, 2, seed=6)
    err = gradient_check(lambda p: ad.nsum(tanh(matmul(p[0], p[1]))), [a, b])
    assert err < TOL


def test_matmul_batched_broadcast():
    a, b = rand(5, 3, 4, seed=7), rand(4, 2, seed=8)
    err = gradient_check(lambda p: ad.nsum(tanh(matmul(p[0], p[1]))), [a, b])
    assert err < TOL


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        matmul(ad.param(rand(3, seed=0)), ad.param(rand(3, seed=1)))


def test_log_exp_tanh():
    a = np.abs(rand(4, 3, seed=9)) + 0.5
    err = gradient_check(
        lambda p: ad.nsum(ad.log(p[0]) + ad.exp(-p[0]) + tanh(p[0])), [a]
    )
    assert err < TOL


def test_sum_and_mean_axes():
    a = rand(3, 4, 2, seed=10)
    for builder in (
        lambda p: ad.nsum(tanh(ad.nsum(p[0], axis=1))),
        lambda p: ad.nsum(tanh(ad.nsum(p[0], axis=0))),
        lambda p: ad.nsum(tanh(ad.nsum(p[0], axis=-1))),
        lambda p: ad.nmean(p[0] * p[0]),
    ):
        assert gradient_check(builder, [a]) < TOL


def test_log_softmax_gradient():
    a = rand(5, 4, seed=11) * 3.0
    w = rand(5, 4, seed=12)
    err = gradient_check(lambda p: ad.nsum(ad.log_softmax(p[0]) * w), [a])
    assert err < TOL


def test_log_softmax_rows_normalize():
    a = ad.constant(rand(6, 5, seed=13) * 10.0)
    rows = np.exp(ad.log_softmax(a).value)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 12))
@pytest.mark.parametrize("rows", [3, 63, 64, 4096])
def test_log_softmax_keeps_numpy_reduction_bytes(rows, n):
    # rows reduce column by column from LOOP_MIN_ROWS on; both directions
    # keep the bytes of NumPy's reductions along the last axis, signed
    # zeros in the upstream gradient included
    rng = np.random.default_rng(rows * 100 + n)
    a = rng.normal(size=(rows, n)) * 5.0
    g = rng.normal(size=(rows, n))
    g[:rows // 2] = rng.choice([-0.0, 0.0, 1.5], size=(rows // 2, n))
    want = a - a.max(axis=-1, keepdims=True)
    want -= np.log(np.exp(want).sum(axis=-1, keepdims=True))
    want_grad = g - np.exp(want) * g.sum(axis=-1, keepdims=True)
    node = ad.log_softmax(ad.param(a))
    assert node.value.tobytes() == want.tobytes()
    assert ad.log_softmax(a).tobytes() == want.tobytes()
    (grad,) = node.backward_fn(g)
    assert grad.tobytes() == want_grad.tobytes()


def test_take_gradient_with_repeats():
    emb = rand(6, 3, seed=14)
    idx = np.array([0, 2, 2, 5, 0])
    w = rand(5, 3, seed=15)
    err = gradient_check(lambda p: ad.nsum(take(p[0], idx) * w), [emb])
    assert err < TOL


@pytest.mark.parametrize("seed", range(50))
def test_take_backward_bitwise_matches_add_at(seed):
    # the bincount accumulation adds in np.add.at's order, so repeated
    # rows sum to the same bytes; 1-D and 2-D tables, 1-D and 2-D indices
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 7))
    table = rng.standard_normal((rows, int(rng.integers(1, 5))) if seed % 2
                                else (rows,))
    idx = rng.integers(0, rows, size=(7, 3) if seed % 3 else (11,))
    node = take(ad.param(table), idx)
    g = rng.standard_normal(node.shape)
    want = np.zeros_like(table)
    np.add.at(want, idx, g)
    (got,) = node.backward_fn(g)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_gather_last_gradient():
    a = rand(4, 5, seed=16)
    idx = np.array([1, 0, 4, 2])
    err = gradient_check(lambda p: ad.nsum(tanh(ad.gather_last(p[0], idx))), [a])
    assert err < TOL


def test_gather_last_shape_check():
    with pytest.raises(ValueError):
        ad.gather_last(ad.param(rand(4, 5, seed=0)), np.array([1, 2]))


@pytest.mark.parametrize("bad", [-1, 5])
def test_gather_last_rejects_indices_outside_the_row(bad):
    # a flat index outside [0, N) would read a neighbouring row
    idx = np.array([[1, 0, 4], [2, bad, 3]])
    for a in (rand(2, 3, 5, seed=1), ad.param(rand(2, 3, 5, seed=1))):
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            ad.gather_last(a, idx)


def test_gather_last_matches_take_along_axis():
    # the flat-index gather and its scatter against NumPy's along-axis
    # pair: C-ordered, transposed and strided inputs, and a 0-d index
    base = rand(6, 7, 5, seed=3)
    gen = np.random.default_rng(4)
    cases = [(base, gen.integers(0, 5, (6, 7))),
             (base.transpose(1, 0, 2), gen.integers(0, 5, (7, 6))),
             (base[::2, 1::3], gen.integers(0, 5, (3, 2))),
             (np.asfortranarray(base[0]), gen.integers(0, 5, 7)),
             (base[1, 2], np.int64(3))]
    for value, idx in cases:
        want = np.take_along_axis(value, np.asarray(idx)[..., None],
                                  axis=-1)[..., 0]
        got = ad.gather_last(value, idx)
        assert type(got) is np.ndarray and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        node = ad.param(value)
        g = rand(*np.shape(idx), seed=5)
        (grad,) = ad.backprop(ad.nsum(ad.gather_last(node, idx) * g), [node])
        want_grad = np.zeros(value.shape)
        np.put_along_axis(want_grad, np.asarray(idx)[..., None],
                          np.asarray(g)[..., None], axis=-1)
        assert grad.tobytes() == want_grad.tobytes()


def test_scatter_gradient():
    # rows of a placed at flat leading positions of zeros, as the training
    # losses put the masked positions' terms back in their (B, L) places
    a = rand(3, 4, seed=18)
    flat = np.array([5, 0, 2])
    err = gradient_check(
        lambda p: ad.nsum(tanh(ad.scatter(p[0], flat, (2, 3, 4)) + 0.5)),
        [a])
    assert err < TOL
    out = ad.scatter(a, flat, (2, 3, 4))
    want = np.zeros((6, 4))
    want[flat] = a
    assert np.array_equal(out, want.reshape(2, 3, 4))
    vec = ad.scatter(rand(3, seed=19), flat, (2, 3))
    assert vec.shape == (2, 3) and np.count_nonzero(vec) == 3


def test_reshape_gradient():
    a = rand(2, 6, seed=17)
    err = gradient_check(
        lambda p: ad.nsum(tanh(matmul(ad.reshape(p[0], (3, 4)),
                                      rand(4, 2, seed=18)))),
        [a],
    )
    assert err < TOL


# --------------------------------------------------------- graph behavior

def test_diamond_accumulation_analytic():
    x = ad.param(np.array(1.5))
    y = x * x + x
    (g,) = ad.backprop(y, [x])
    assert g == pytest.approx(2 * 1.5 + 1, abs=1e-12)


def test_unused_parameter_gets_zero_gradient():
    a, b = ad.param(np.ones(3)), ad.param(np.ones(3))
    loss = ad.nsum(a * 2.0)
    ga, gb = ad.backprop(loss, [a, b])
    assert np.array_equal(ga, np.full(3, 2.0))
    assert np.array_equal(gb, np.zeros(3))


def test_constants_do_not_require_grad():
    c = ad.constant(np.ones(3))
    out = ad.nsum(c * 2.0)
    assert not out.requires_grad


def test_backprop_requires_scalar():
    a = ad.param(np.ones(3))
    with pytest.raises(ValueError):
        ad.backprop(a * 2.0, [a])


def test_gradients_deterministic():
    a = rand(4, 4, seed=19)

    def run():
        p = ad.param(a.copy())
        logp = ad.log_softmax(matmul(p, p))
        loss = ad.nsum(logp * logp)
        return ad.backprop(loss, [p])[0]

    assert np.array_equal(run(), run())


def test_rsub_rdiv_scalars():
    a = np.abs(rand(3, seed=20)) + 1.0
    err = gradient_check(lambda p: ad.nsum(2.0 - p[0] + 3.0 / p[0]), [a])
    assert err < TOL


# ------------------------------------------ randomized composite networks

@pytest.mark.parametrize("seed", range(8))
def test_mlp_like_composition(seed):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((5, 3))
    w1 = rng.standard_normal((3, 4)) * 0.7
    b1 = rng.standard_normal(4) * 0.1
    w2 = rng.standard_normal((4, 5)) * 0.7
    idx = rng.integers(0, 5, size=6)
    tgt = rng.integers(0, 5, size=6)

    def net(p):
        h = tanh(matmul(take(p[0], idx), p[1]) + p[2])
        logp = ad.log_softmax(matmul(h, p[3]))
        return -ad.nmean(ad.gather_last(logp, tgt))

    assert gradient_check(net, [emb, w1, b1, w2]) < TOL


def test_ndarray_on_left_defers_to_node():
    # numpy must not broadcast a Node element-wise into an object array
    x = ad.param(np.array([2.0, 4.0]))
    arr = np.array([1.0, 3.0])
    out = arr - x
    assert isinstance(out, ad.Node)
    assert np.allclose(out.value, [-1.0, -1.0])
    out2 = arr / x
    assert isinstance(out2, ad.Node)
    assert np.allclose(out2.value, [0.5, 0.75])
    out3 = arr * x
    assert isinstance(out3, ad.Node)
    assert np.allclose(out3.value, [2.0, 12.0])
    out4 = arr + x
    assert isinstance(out4, ad.Node)
    (g,) = ad.backprop(ad.nsum(out4), [x])
    assert np.allclose(g, 1.0)


def test_array_inputs_pass_through_as_arrays():
    # log, exp, nsum, log_softmax, gather_last, scatter and reshape on a
    # plain array give a plain array, bit for bit the value the same call
    # gives on a constant Node
    a = np.abs(rand(2, 3, 4, seed=20)) + 0.1
    idx = np.random.default_rng(21).integers(0, 4, size=(2, 3))
    for f in (ad.log, ad.exp,
              lambda v: ad.nsum(v, axis=1),
              lambda v: ad.nsum(v, axis=-1),
              ad.log_softmax,
              lambda v: ad.gather_last(v, idx),
              lambda v: ad.scatter(v, np.array([3, 0]), (2, 2, 3, 4)),
              lambda v: ad.reshape(v, (6, 4))):
        got = f(a)
        want = f(ad.constant(a)).value
        assert type(got) is np.ndarray
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        ad.gather_last(a, idx[:, :2])
