import json

import numpy as np
import pytest
from scipy import stats

from catdiff import data as D
from catdiff.core import Vocabulary

from .sampling_oracle import cumsum_sample_rows

VOCAB = Vocabulary(4, symbols="abcd")


# ------------------------------------------------------------ tokenization

def test_tokenize_basics():
    assert D.tokenize("ab", Vocabulary(2, symbols="ab")).tolist() == [0, 1]
    assert D.tokenize("dcba", VOCAB).tolist() == [3, 2, 1, 0]


def test_tokenize_rejects_unknown_and_empty():
    with pytest.raises(ValueError, match="'x'"):
        D.tokenize("ax", VOCAB)
    with pytest.raises(ValueError):
        D.tokenize("", VOCAB)


def test_round_trip_property():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = int(rng.integers(1, 20))
        text = "".join(VOCAB.symbols[i] for i in rng.integers(0, 4, length))
        assert D.detokenize(D.tokenize(text, VOCAB), VOCAB) == text


def test_detokenize_rejects_out_of_range():
    with pytest.raises(ValueError):
        D.detokenize([0, 7], VOCAB)


# ------------------------------------------------------------------- files

def test_load_text_dataset(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abca\nbbbb\ndcba\n")
    ds = D.load_text_dataset(path, VOCAB, 4)
    assert ds.count == 3
    assert ds.sequences[2].tolist() == [3, 2, 1, 0]
    assert ds.labels is None


def test_load_rejects_wrong_length_with_line_number(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abca\nbb\n")
    with pytest.raises(ValueError, match=":2"):
        D.load_text_dataset(path, VOCAB, 4)


def test_load_labels_alignment(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("abca\nbbbb\n")
    labels = tmp_path / "l.txt"
    labels.write_text("1\n0\n")
    ds = D.load_text_dataset(corpus, VOCAB, 4, labels_path=labels,
                             num_classes=2)
    assert ds.labels.tolist() == [1, 0]

    labels.write_text("1\n")
    with pytest.raises(ValueError, match="1 labels for 2"):
        D.load_text_dataset(corpus, VOCAB, 4, labels_path=labels)

    labels.write_text("1\n5\n")
    with pytest.raises(ValueError, match="out of range"):
        D.load_text_dataset(corpus, VOCAB, 4, labels_path=labels,
                            num_classes=2)


@pytest.mark.parametrize("label", ["9" * 30, "-" + "9" * 30, str(2 ** 63),
                                   "-1"])
def test_load_labels_refuses_a_label_outside_int64(tmp_path, label):
    # a 30-digit label escaped as an OverflowError from the int64 array
    corpus = tmp_path / "c.txt"
    corpus.write_text("abca\nbbbb\n")
    labels = tmp_path / "l.txt"
    labels.write_text(f"1\n{label}\n")
    with pytest.raises(ValueError, match=r"l\.txt:2: label out of range"):
        D.load_text_dataset(corpus, VOCAB, 4, labels_path=labels)
    labels.write_text(f"{2 ** 63 - 1}\n0\n")  # the largest int64 loads
    ds = D.load_text_dataset(corpus, VOCAB, 4, labels_path=labels)
    assert ds.labels.tolist() == [2 ** 63 - 1, 0]


def test_save_load_round_trip(tmp_path):
    ds = D.gen_labeled_corpus(4, 6, 20, "majority_token", seed=1)
    cpath, lpath = tmp_path / "c.txt", tmp_path / "l.txt"
    D.save_text_dataset(cpath, ds, VOCAB, labels_path=lpath)
    back = D.load_text_dataset(cpath, VOCAB, 6, labels_path=lpath,
                               num_classes=4)
    assert np.array_equal(back.sequences, ds.sequences)
    assert np.array_equal(back.labels, ds.labels)


def test_vocabulary_json_round_trip(tmp_path):
    vocab = Vocabulary(5, mask_index=4, symbols="abcd#")
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"symbols": list(vocab.symbols),
                                "mask_index": vocab.mask_index}))
    back = D.load_vocabulary(path)
    assert back == vocab


# -------------------------------------------------------------- generators

def test_dataset_validation():
    with pytest.raises(ValueError):
        D.Dataset(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        D.Dataset(np.zeros((2, 3)), labels=np.zeros(3))


def test_stationary_distribution_cases():
    # doubly stochastic -> uniform
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(D.stationary_distribution(p), [0.5, 0.5], atol=1e-10)
    # periodic permutation still has the uniform Cesaro limit
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert np.allclose(D.stationary_distribution(perm), 1 / 3, atol=1e-8)
    # generic chain: verify the fixed-point property
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(4), size=4)
    pi = D.stationary_distribution(p)
    assert np.max(np.abs(pi @ p - pi)) < 1e-8
    with pytest.raises(ValueError):
        D.stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_markov_identity_transition_constant_sequences():
    ds = D.gen_markov_corpus(3, 8, np.eye(3), count=50, seed=0)
    assert np.all(ds.sequences == ds.sequences[:, :1])


def test_markov_uniform_transition_iid_chi_square():
    p = np.full((3, 3), 1 / 3)
    ds = D.gen_markov_corpus(3, 40, p, count=2500, seed=1)
    counts = np.bincount(ds.sequences.reshape(-1), minlength=3)
    assert stats.chisquare(counts).pvalue > 0.001


def test_markov_bigram_convergence():
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.full(3, 5.0), size=3)
    ds = D.gen_markov_corpus(3, 32, p, count=10_000, seed=3)
    counts = np.zeros((3, 3))
    src = ds.sequences[:, :-1].reshape(-1)
    dst = ds.sequences[:, 1:].reshape(-1)
    np.add.at(counts, (src, dst), 1)
    emp = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(emp - p)) < 0.01


def test_markov_deterministic_per_seed():
    p = np.full((2, 2), 0.5)
    a = D.gen_markov_corpus(2, 5, p, 20, seed=9)
    b = D.gen_markov_corpus(2, 5, p, 20, seed=9)
    assert np.array_equal(a.sequences, b.sequences)


@pytest.mark.parametrize("n", [2, 6, 7, 12, 36])
def test_markov_corpus_bytes_match_cumsum_draw(monkeypatch, n):
    # 5,000 sequences put each position's draw across a block edge
    p = np.random.default_rng(n).dirichlet(np.full(n, 0.5), size=n)
    got = D.gen_markov_corpus(n, 6, p, 5000, seed=n).sequences
    monkeypatch.setattr(D, "sample_rows", cumsum_sample_rows)
    want = D.gen_markov_corpus(n, 6, p, 5000, seed=n).sequences
    assert got.tobytes() == want.tobytes()


def test_rule_label_cases():
    assert D.rule_label([2, 2, 2], "majority_token", 3, 3) == 2
    assert D.rule_label([0, 1], "majority_token", 3, 3) == 0  # tie -> smallest
    assert D.rule_label([5, 0, 0], "prefix_class", 6, 3) == 2
    assert D.rule_label([1, 9, 9], "prefix_class", 6, 6) == 1
    with pytest.raises(ValueError):
        D.rule_label([0], "suffix", 3, 3)
    with pytest.raises(ValueError):
        D.rule_label([0], "majority_token", 3, 2)


def test_labeled_corpus_balanced_for_prefix_rule():
    ds = D.gen_labeled_corpus(6, 16, 12_000, "prefix_class", seed=4)
    counts = np.bincount(ds.labels, minlength=6)
    assert stats.chisquare(counts).pvalue > 0.001
    # labels reproduce from the rule
    for row, lab in zip(ds.sequences[:100], ds.labels[:100]):
        assert D.rule_label(row, "prefix_class", 6, 6) == lab


def test_labeled_corpus_deterministic_and_validated():
    a = D.gen_labeled_corpus(4, 8, 100, "majority_token", seed=5)
    b = D.gen_labeled_corpus(4, 8, 100, "majority_token", seed=5)
    assert np.array_equal(a.sequences, b.sequences)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ValueError):
        D.gen_labeled_corpus(4, 8, 10, "nope", seed=0)
