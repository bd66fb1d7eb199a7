"""Checks for the self-check machinery: suite registry, report shape,
determinism, and that a deliberately broken integrand is actually caught."""

import numpy as np
import pytest

import catdiff.loss as L
import catdiff.verify as V
from catdiff.core import NoiseSchedule
from catdiff.forward import PriorSpec


# ------------------------------------------------------------ run_suite


@pytest.mark.parametrize("name", V.SUITE_NAMES)
def test_each_suite_runs_and_passes(name):
    rep = V.run_suite(name, seed=0)
    assert rep.suite == name
    assert rep.checks
    assert rep.runtime >= 0.0
    assert rep.passed
    assert all(c.passed for c in rep.checks)


def test_run_suite_takes_no_threads_argument():
    # the checks run one after another in declaration order
    with pytest.raises(TypeError):
        V.run_suite("posteriors", seed=0, threads=2)


def test_all_concatenates_every_suite():
    rep = V.run_suite("all", seed=0)
    assert rep.passed
    prefixes = {c.name.split("/")[0] for c in rep.checks}
    assert prefixes == set(V.SUITE_NAMES)
    per_suite = sum(len(V.run_suite(n, seed=0).checks) for n in V.SUITE_NAMES)
    assert len(rep.checks) == per_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        V.run_suite("everything")


def test_deterministic_given_seed():
    a = V.run_suite("limits", seed=5)
    b = V.run_suite("limits", seed=5)
    assert [c.name for c in a.checks] == [c.name for c in b.checks]
    assert [c.deviation for c in a.checks] == [c.deviation for c in b.checks]
    c = V.run_suite("limits", seed=6)
    # randomized sub-checks draw different cases under a different seed
    assert [x.deviation for x in a.checks] != [x.deviation for x in c.checks]


def test_json_report_shape():
    rep = V.run_suite("posteriors", seed=0)
    blob = rep.to_json()
    assert blob["suite"] == "posteriors"
    assert blob["seed"] == 0
    assert blob["passed"] is True
    assert blob["runtime_s"] >= 0.0
    assert blob["worst_margin"] == rep.worst_margin
    assert len(blob["checks"]) == len(rep.checks)
    for entry in blob["checks"]:
        assert set(entry) >= {"name", "deviation", "tolerance", "passed"}


def test_human_report_lists_every_check():
    rep = V.run_suite("guidance", seed=0)
    text = rep.human()
    for check in rep.checks:
        assert check.name in text
    assert text.count("PASS") == len(rep.checks)
    assert "all green" in text


def test_mutated_integrand_fails_limits_suite(monkeypatch):
    real = L.udlm_integrand

    def flipped(x, z_t, t, x_theta_row, schedule):
        return -real(x, z_t, t, x_theta_row, schedule)

    monkeypatch.setattr(L, "udlm_integrand", flipped)
    rep = V.run_suite("limits", seed=0)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "limits/worked_constant" in failed
    assert "limits/kl_rate_agreement" in failed
    text = rep.human()
    assert "FAIL" in text and "FAILURES" in text


def test_mutated_loss_kernel_fails_limits_and_flips_training(monkeypatch):
    # the limits suite and training read one UDLM kernel, so a sign error
    # there is caught by verify and reaches the training loss
    from catdiff import model as M
    from catdiff.core import Vocabulary

    params = M.init_denoiser(Vocabulary(3), 3, 2, 6, kind="uniform", seed=0,
                             scale=0.3)
    x = np.random.default_rng(0).integers(0, 3, size=(5, 3))
    cond = np.zeros(5, dtype=np.int64)

    def training_loss():
        return float(L.training_loss_node(
            L.LossSpec("udlm_continuous"), M.constant_nodes(params), params,
            x, cond, np.random.default_rng(1)).value)

    before = training_loss()
    real = L._udlm_rate
    monkeypatch.setattr(L, "_udlm_rate", lambda *args: -real(*args))
    assert not V.run_suite("limits", seed=0).passed
    assert before > 0
    assert training_loss() == -before


def test_crashing_check_is_a_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(L, "udlm_integrand", boom)
    rep = V.run_suite("limits", seed=0)
    assert not rep.passed
    crashed = [c for c in rep.checks if c.error]
    assert crashed
    assert all(np.isinf(c.deviation) for c in crashed)
    assert "injected" in crashed[0].error
    assert np.isinf(rep.worst_margin)


def test_suites_are_fast_enough():
    rep = V.run_suite("all", seed=0)
    assert rep.runtime < 60.0


# ------------------------------------------------------------ leave-one-out rows


def _corpus():
    # joint over {0,1,2}^2 with every cell distinct
    seqs = []
    for i in range(3):
        for j in range(3):
            seqs.extend([[i, j]] * (1 + 3 * i + j))
    return np.asarray(seqs, dtype=np.int64)


def test_loo_rows_are_distributions():
    den = V.LeaveOneOutDenoiser(_corpus(), PriorSpec.uniform(3))
    rows = den.rows_batch(np.array([[2, 0]]), 0.37)[0]
    assert rows.shape == (2, 3)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(rows >= 0.0)


def test_loo_single_position_ignores_latent():
    # with nothing else to condition on, the rows are the data marginal
    data = np.array([[0]] * 1 + [[1]] * 3 + [[2]] * 5)
    den = V.LeaveOneOutDenoiser(data, PriorSpec.uniform(3))
    marginal = np.array([1, 3, 5]) / 9.0
    for z in range(3):
        for t in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(
                den.rows_batch(np.array([[z]]), t)[0, 0], marginal,
                atol=1e-12)


def test_loo_rows_match_direct_enumeration():
    sched = NoiseSchedule()
    prior = PriorSpec.uniform(3)
    corpus = _corpus()
    den = V.LeaveOneOutDenoiser(corpus, prior)
    seqs, weights = np.unique(corpus, axis=0, return_counts=True)
    weights = weights / weights.sum()
    z = np.array([1, 2])
    t = 0.42
    a = sched.alpha(t)
    got = den.rows_batch(z[None], t)[0]
    for pos in range(2):
        other = 1 - pos
        joint = np.zeros(3)
        for m, x in enumerate(seqs):
            like = a * (x[other] == z[other]) + (1.0 - a) / 3.0
            joint[x[pos]] += weights[m] * like
        np.testing.assert_allclose(got[pos], joint / joint.sum(), atol=1e-12)


def test_loo_batch_matches_single():
    den = V.LeaveOneOutDenoiser(_corpus(), PriorSpec.uniform(3))
    rng = np.random.default_rng(4)
    batch = rng.integers(0, 3, size=(5, 2))
    stacked = den.rows_batch(batch, 0.6)
    for b in range(5):
        np.testing.assert_allclose(
            stacked[b], den.rows_batch(batch[b:b + 1], 0.6)[0], atol=0)


def test_loo_unreachable_latent_rejected():
    # a prior with a zero-mass token makes some latents impossible
    from catdiff.core import Categorical

    data = np.array([[0, 0], [1, 1]])
    prior = PriorSpec.general(Categorical(np.array([0.5, 0.5, 0.0])))
    den = V.LeaveOneOutDenoiser(data, prior)
    with pytest.raises(ValueError, match="unreachable"):
        den.rows_batch(np.array([[2, 2]]), 0.5)


def test_exact_reverse_nll_budget_checked_before_any_work(monkeypatch):
    # 10^6 states at N=10, L=6: states^2 * T = 1e12 > 1e7, so the oracle
    # must refuse before enumerating a state or calling the denoiser
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the budget check")

    class RefusingDenoiser:
        rows_batch = staticmethod(refuse)

    monkeypatch.setattr(V, "enumerate_sequences", refuse)
    with pytest.raises(ValueError, match="budget"):
        V.exact_reverse_nll(RefusingDenoiser(), np.zeros(6, dtype=np.int64),
                            1, PriorSpec.uniform(10), NoiseSchedule())
