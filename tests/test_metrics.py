import numpy as np
import pytest

from catdiff import metrics as MX
from catdiff.data import Dataset, gen_labeled_corpus, rule_label


def corpus(rows):
    return Dataset(np.asarray(rows, dtype=np.int64))


# ----------------------------------------------------------------- kmer_js

def test_kmer_js_identical_zero():
    a = corpus([[0, 1, 2], [2, 1, 0]])
    assert MX.kmer_js(a, a, 2) == 0.0


def test_kmer_js_disjoint_is_one():
    a = corpus([[0, 0, 0]])
    b = corpus([[1, 1, 1]])
    assert MX.kmer_js(a, b, 2) == pytest.approx(1.0, abs=1e-12)


def test_kmer_js_symmetric():
    rng = np.random.default_rng(0)
    a = corpus(rng.integers(0, 4, size=(30, 6)))
    b = corpus(rng.integers(0, 4, size=(40, 6)))
    assert MX.kmer_js(a, b, 2) == pytest.approx(MX.kmer_js(b, a, 2), abs=1e-12)
    assert 0.0 <= MX.kmer_js(a, b, 2) <= 1.0


def test_kmer_js_hand_value():
    # unigrams [0,1] vs [0,0]: p=(0.5,0.5), q=(1,0), m=(0.75,0.25)
    a = corpus([[0, 1]])
    b = corpus([[0, 0]])
    expect = 0.5 * (0.5 * np.log2(0.5 / 0.75) + 0.5 * np.log2(0.5 / 0.25)) \
        + 0.5 * (1.0 * np.log2(1.0 / 0.75))
    assert MX.kmer_js(a, b, 1) == pytest.approx(expect, abs=1e-14)


def test_kmer_js_k_validation():
    a = corpus([[0, 1, 2]])
    with pytest.raises(ValueError):
        MX.kmer_js(a, a, 4)
    with pytest.raises(ValueError):
        MX.kmer_js(a, a, 0)


def test_kmer_js_accepts_bare_arrays():
    a = np.array([[0, 1], [1, 0]])
    assert MX.kmer_js(a, a, 1) == 0.0


# -------------------------------------------------------- control accuracy

def test_control_accuracy_perfect_and_chance():
    ds = gen_labeled_corpus(4, 8, 400, "majority_token", seed=1)
    oracle = lambda row: rule_label(row, "majority_token", 4, 4)
    report = MX.control_accuracy(ds.sequences, ds.labels, oracle, 4)
    assert report.accuracy == 1.0
    assert report.macro_recall == 1.0
    assert report.confusion.sum() == 400

    # random requests against the same samples: ~1/K within 3 sigma
    rng = np.random.default_rng(2)
    wrong = rng.integers(0, 4, size=400)
    rep2 = MX.control_accuracy(ds.sequences, wrong, oracle, 4)
    sigma = np.sqrt(0.25 * 0.75 / 400)
    assert abs(rep2.accuracy - 0.25) < 3 * sigma + 0.02


def test_control_accuracy_errors():
    oracle = lambda row: 0
    with pytest.raises(ValueError):
        MX.control_accuracy(np.zeros((0, 4), dtype=int), [], oracle, 2)
    with pytest.raises(ValueError):
        MX.control_accuracy(np.zeros((2, 4), dtype=int), [0], oracle, 2)


def test_macro_recall_ignores_absent_classes():
    samples = np.array([[0, 0], [1, 1], [1, 0]])
    requested = np.array([0, 1, 0])
    oracle = lambda row: int(row[0])
    report = MX.control_accuracy(samples, requested, oracle, 5)
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.macro_recall == pytest.approx((1 / 2 + 1 / 1) / 2)


# ------------------------------------------------- validity/novelty/property

def test_vnp_counts():
    train = corpus([[0, 0], [1, 1]])
    samples = np.array([[0, 0], [2, 2], [2, 2], [3, 3], [1, 2]])
    out = MX.validity_novelty_property(samples, train)
    assert out == {"num_valid": 5,              # every sample
                   "num_novel": 3}              # {(2,2), (3,3), (1,2)}


def test_vnp_no_novel():
    train = corpus([[0, 0]])
    out = MX.validity_novelty_property(np.array([[0, 0], [0, 0]]), train)
    assert out == {"num_valid": 2, "num_novel": 0}
