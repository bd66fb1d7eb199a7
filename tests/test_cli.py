"""End-to-end command-line checks, run in process via cli.main()."""

import json

import numpy as np
import pytest

import catdiff.cli as cli
import catdiff.loss as L
from catdiff.checkpoint import load_checkpoint, save_checkpoint
from catdiff.core import Vocabulary
from catdiff.data import gen_labeled_corpus, save_text_dataset
from catdiff.model import ConstantDenoiser

BASE_CONFIG = """\
# small uniform run
kind = uniform
n = 3
length = 4
d_hidden = 8
objective = udlm_continuous
epochs = 1
batch = 64
lr = 0.02
seed = 1
data = {data}
labels = {labels}
num_classes = 3
"""


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Corpus files plus one trained checkpoint shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = gen_labeled_corpus(3, 4, 240, "majority_token", seed=5)
    vocab = Vocabulary(3)
    save_text_dataset(root / "train.txt", ds, vocab,
                      labels_path=root / "labels.txt")
    (root / "cfg.txt").write_text(BASE_CONFIG.format(
        data=root / "train.txt", labels=root / "labels.txt"))
    code = cli.main(["train", "--config", str(root / "cfg.txt"),
                     "--out", str(root / "ckpt.json")])
    assert code == 0
    return root


def test_train_echoes_resolved_config(workdir, capsys):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(workdir / "echo.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "resolved configuration:" in out
    assert "  command = train" in out
    assert "  objective = udlm_continuous" in out
    assert "  condition_dropout = 0.1" in out


def test_train_is_deterministic(workdir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["train", "--config", str(workdir / "cfg.txt"),
                         "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (workdir / "ckpt.json").read_bytes()


def test_flag_overrides_config_key(workdir, tmp_path, capsys):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), "--seed", "9",
                     "--epochs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  seed = 9" in out
    assert "  epochs = 2" in out


def test_unknown_config_key_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text((workdir / "cfg.txt").read_text() + "momentum = 0.9\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_duplicate_config_key_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "dup.txt"
    cfg.write_text((workdir / "cfg.txt").read_text() + "lr = 0.5\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "duplicate key" in capsys.readouterr().err


def test_missing_required_config_key(tmp_path, capsys):
    cfg = tmp_path / "tiny.txt"
    cfg.write_text("kind = uniform\nn = 3\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "missing required config key" in capsys.readouterr().err


def test_continuous_objective_rejects_T(workdir, tmp_path, capsys):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), "--T", "8"])
    assert code == 1
    assert "does not take T" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(workdir, capsys):
    code = cli.main(["sample", "--checkpoint", str(workdir / "ckpt.json"),
                     "--out", "x.txt", "--steps", "4"])
    assert code == 1
    assert "--num" in capsys.readouterr().err


def test_unknown_subcommand_and_bare_call(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()


def test_sample_byte_identical_given_seed(workdir, tmp_path):
    argv = ["sample", "--checkpoint", str(workdir / "ckpt.json"),
            "--num", "6", "--steps", "8", "--guidance", "cfg",
            "--gamma", "2.0", "--label", "1", "--seed", "11"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != b""
    meta = json.loads((tmp_path / "a.txt.meta.json").read_text())
    assert meta["seed"] == 11 and meta["T"] == 8 and meta["gamma"] == 2.0
    lines = a.read_text().splitlines()
    assert len(lines) == 6 and all(len(s) == 4 for s in lines)


def test_sample_guidance_flag_validation(workdir, tmp_path, capsys):
    base = ["sample", "--checkpoint", str(workdir / "ckpt.json"),
            "--out", str(tmp_path / "s.txt"), "--num", "2", "--steps", "4"]
    assert cli.main(base + ["--guidance", "cfg"]) == 1
    assert cli.main(base + ["--guidance", "cbg", "--label", "0"]) == 1
    assert cli.main(base + ["--guidance", "cfg", "--label", "7"]) == 1
    err = capsys.readouterr().err
    assert "needs --label" in err and "needs --classifier" in err
    assert "outside" in err


def test_sample_nonfinite_model_exits_three(workdir, tmp_path, capsys):
    params = load_checkpoint(workdir / "ckpt.json")
    params.output_head = np.full_like(params.output_head, np.nan)
    save_checkpoint(params, tmp_path / "nan.json")
    code = cli.main(["sample", "--checkpoint", str(tmp_path / "nan.json"),
                     "--out", str(tmp_path / "s.txt"), "--num", "2",
                     "--steps", "4"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


def test_eval_reports_all_three_numbers(workdir, capsys):
    code = cli.main(["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--data", str(workdir / "train.txt"),
                     "--labels", str(workdir / "labels.txt"),
                     "--T", "4", "--mode", "mc", "--mc-samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    values = {}
    for line in out.splitlines():
        if " = " in line and not line.startswith(" "):
            key, _, val = line.partition(" = ")
            values[key] = val
    nelbo = float(values["nelbo_nats_per_seq"])
    assert float(values["bpc"]) == pytest.approx(nelbo / (4 * np.log(2)))
    assert float(values["ppl"]) == pytest.approx(np.exp(nelbo / 4))


def test_eval_perfect_model_bpc_is_zero(tmp_path, capsys):
    vocab = Vocabulary(3)
    x = np.array([0, 1, 2, 0])
    save_checkpoint(ConstantDenoiser.from_sequence(x, vocab, kind="uniform"),
                    tmp_path / "perfect.json")
    (tmp_path / "point.txt").write_text("abca\n")
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "perfect.json"),
                     "--data", str(tmp_path / "point.txt"),
                     "--T", "8", "--mode", "exact"])
    out = capsys.readouterr().out
    assert code == 0
    bpc = float(next(l for l in out.splitlines()
                     if l.startswith("bpc = ")).split(" = ")[1])
    assert bpc <= 1e-6


def test_eval_exact_budget_guard(workdir, capsys):
    code = cli.main(["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--data", str(workdir / "train.txt"),
                     "--T", "100000", "--mode", "exact"])
    assert code == 1
    assert "--mode mc" in capsys.readouterr().err


def test_metrics_reports_and_writes_file(workdir, tmp_path, capsys):
    out_path = tmp_path / "m.txt"
    code = cli.main(["metrics", "--samples", str(workdir / "train.txt"),
                     "--reference", str(workdir / "train.txt"),
                     "--n", "3", "--k", "2",
                     "--labels", str(workdir / "labels.txt"),
                     "--rule", "majority_token", "--num-classes", "3",
                     "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "kmer_js_k2 = 0\n" in out      # corpus vs itself
    assert "control_accuracy = 1\n" in out  # labels came from the rule
    body = out_path.read_text()
    for line in body.splitlines():
        assert line in out


def test_metrics_needs_exactly_one_vocab_source(workdir, capsys):
    base = ["metrics", "--samples", str(workdir / "train.txt"),
            "--reference", str(workdir / "train.txt")]
    assert cli.main(base) == 1
    assert cli.main(base + ["--n", "3", "--vocab", "v.json"]) == 1
    capsys.readouterr()


def test_verify_success_and_json_report(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    code = cli.main(["verify", "--suite", "posteriors", "--seed", "0",
                     "--json", str(rep_path), "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all green" in out
    blob = json.loads(rep_path.read_text())
    assert blob["passed"] is True
    assert all("deviation" in c for c in blob["checks"])


def test_verify_failure_exits_two(monkeypatch, capsys):
    real = L.udlm_integrand
    monkeypatch.setattr(
        L, "udlm_integrand",
        lambda x, z, t, row, sched: -real(x, z, t, row, sched))
    code = cli.main(["verify", "--suite", "limits"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out


def test_train_classifier_then_cbg_sample(workdir, tmp_path, capsys):
    cfg = tmp_path / "clf.txt"
    cfg.write_text((workdir / "cfg.txt").read_text()
                   + "train_classifier = true\n"
                   + f"classifier_out = {tmp_path / 'clf.json'}\n")
    assert cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "den.json")]) == 0
    clf = load_checkpoint(tmp_path / "clf.json")
    assert hasattr(clf, "log_probs")
    for flag in ("cbg", "cbg-taylor"):
        code = cli.main(["sample", "--checkpoint", str(tmp_path / "den.json"),
                         "--out", str(tmp_path / f"{flag}.txt"),
                         "--num", "3", "--steps", "6", "--guidance", flag,
                         "--gamma", "2.0", "--label", "0",
                         "--classifier", str(tmp_path / "clf.json")])
        assert code == 0
        assert len((tmp_path / f"{flag}.txt").read_text().splitlines()) == 3
    capsys.readouterr()


def test_absorbing_train_and_sample(tmp_path, capsys):
    ds = gen_labeled_corpus(3, 4, 120, "majority_token", seed=2)
    vocab = Vocabulary(4, mask_index=3)  # data tokens a, b, c plus mask
    save_text_dataset(tmp_path / "train.txt", ds, vocab)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "kind = absorbing\nn = 4\nlength = 4\nd_hidden = 8\n"
        "objective = mdlm_continuous\nepochs = 1\nbatch = 64\nlr = 0.02\n"
        f"seed = 0\ndata = {tmp_path / 'train.txt'}\n")
    assert cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "abs.json")]) == 0
    assert cli.main(["sample", "--checkpoint", str(tmp_path / "abs.json"),
                     "--out", str(tmp_path / "s.txt"),
                     "--num", "5", "--steps", "8"]) == 0
    text = (tmp_path / "s.txt").read_text()
    assert "#" not in text  # every mask gets filled by the final decode
    capsys.readouterr()


def test_classifier_checkpoint_rejected_as_denoiser(workdir, tmp_path,
                                                    capsys):
    cfg = tmp_path / "clf.txt"
    cfg.write_text((workdir / "cfg.txt").read_text()
                   + "train_classifier = true\n"
                   + f"classifier_out = {tmp_path / 'clf.json'}\n")
    assert cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "den.json")]) == 0
    code = cli.main(["sample", "--checkpoint", str(tmp_path / "clf.json"),
                     "--out", str(tmp_path / "s.txt"),
                     "--num", "2", "--steps", "4"])
    assert code == 1
    assert "not a denoiser" in capsys.readouterr().err
