"""End-to-end command-line checks, run in process via cli.main()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import catdiff
import catdiff.cli as cli
import catdiff.loss as L
from catdiff.checkpoint import load_checkpoint, save_checkpoint
from catdiff.core import Vocabulary
from catdiff.data import gen_labeled_corpus, save_text_dataset
from catdiff.model import ConstantDenoiser, init_classifier, init_denoiser

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
    """Corpus files, one trained denoiser checkpoint and one classifier
    checkpoint over its vocabulary and length, shared across tests."""
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
    save_checkpoint(init_classifier(vocab, 4, 3, 8, seed=2),
                    root / "clf.json")
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


def test_every_config_key_has_an_override_flag():
    text = {str: "x", int: "7", float: "0.5", cli._cast_bool: "true"}
    parser = cli.build_parser()
    for key, (caster, _) in cli.TRAIN_SCHEMA.items():
        args = parser.parse_args(["train", "--config", "c.txt", "--out",
                                  "o.json", "--" + key.replace("_", "-"),
                                  text[caster]])
        # the overrides cmd_train merges over the config file
        overrides = {k: getattr(args, k) for k in cli.TRAIN_SCHEMA}
        assert {k: v for k, v in overrides.items() if v is not None} \
            == {key: caster(text[caster])}


@pytest.mark.parametrize("flag, value", [("--kind", "gaussian"),
                                         ("--objective", "elbo")])
def test_bad_kind_or_objective_flag_is_usage_error(workdir, tmp_path, capsys,
                                                   flag, value):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), flag, value])
    assert code == 1
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


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


def test_config_that_is_not_utf8_names_its_file(workdir, tmp_path, capsys):
    cfg = tmp_path / "latin1.txt"
    cfg.write_bytes((workdir / "cfg.txt").read_bytes() + b"# caf\xe9\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:") and "not UTF-8 text" in err
    assert not (tmp_path / "o.json").exists()


def test_missing_required_config_key(tmp_path, capsys):
    cfg = tmp_path / "tiny.txt"
    cfg.write_text("kind = uniform\nn = 3\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "missing required config key" in capsys.readouterr().err


# values a config line may be set to: empty, zero, negative, not a
# number, overflowing to inf, text, a boolean, an unknown kind or objective
CONFIG_VALUES = ["", "0", "-1", "nan", "1e999", "x", "true", "gaussian",
                 "elbo"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_train_configs_never_reach_a_traceback(workdir, tmp_path,
                                                       capsys, monkeypatch,
                                                       data):
    # one line of the train config deleted or repeated, its key renamed
    # to another schema key or an unknown one, or its value replaced from
    # CONFIG_VALUES or by a byte that is not UTF-8: train exits 0, 1 or 3
    # and, unless it exits 0, writes no checkpoint; an uncaught exception
    # would escape cli.main. Run from tmp_path, so a value read as a path
    # names no file.
    monkeypatch.chdir(tmp_path)
    lines = (workdir / "cfg.txt").read_bytes().splitlines(keepends=True)
    at = data.draw(st.integers(1, len(lines) - 1))  # past the comment
    key, _, value = lines[at].decode("utf-8").partition(" = ")
    how = data.draw(st.sampled_from(["delete", "repeat", "key", "value"]))
    if how == "delete":
        del lines[at]
    elif how == "repeat":
        lines.insert(at, lines[at])
    elif how == "key":
        new = data.draw(st.sampled_from(sorted(cli.TRAIN_SCHEMA) + ["rate"]))
        lines[at] = f"{new} = {value}".encode("utf-8")
    else:
        new = data.draw(st.sampled_from(CONFIG_VALUES + [None]))
        lines[at] = (f"{key} = {new}\n".encode("utf-8") if new is not None
                     else f"{key} = ".encode("utf-8") + b"\xff\n")
    (tmp_path / "cfg.txt").write_bytes(b"".join(lines))
    out = tmp_path / "o.json"
    out.unlink(missing_ok=True)
    code = cli.main(["train", "--config", str(tmp_path / "cfg.txt"),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    assert code != 1 or "error:" in err
    assert code == 0 or not out.exists()


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


@pytest.mark.parametrize("guidance", [
    [], ["--guidance", "none"], ["--guidance", "cfg", "--label", "0"],
])
def test_sample_rejects_classifier_without_classifier_guidance(
        workdir, tmp_path, capsys, guidance):
    # only cbg and cbg-taylor read the classifier; elsewhere it would be
    # loaded and then ignored
    save_checkpoint(init_classifier(Vocabulary(3), 4, 3, 8, seed=0),
                    tmp_path / "clf.json")
    code = cli.main(["sample", "--checkpoint", str(workdir / "ckpt.json"),
                     "--out", str(tmp_path / "s.txt"), "--num", "2",
                     "--steps", "4", "--classifier", str(tmp_path / "clf.json")]
                    + guidance)
    captured = capsys.readouterr()
    assert code == 1
    assert "--classifier" in captured.err
    assert "resolved configuration" not in captured.out
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("guidance", [[], ["--guidance", "none"]])
def test_sample_gamma_without_guidance_is_usage_error(workdir, tmp_path,
                                                      capsys, guidance):
    # unguided sampling never reads gamma
    code = cli.main(["sample", "--checkpoint", str(workdir / "ckpt.json"),
                     "--out", str(tmp_path / "s.txt"), "--num", "2",
                     "--steps", "4", "--gamma", "1.0"] + guidance)
    captured = capsys.readouterr()
    assert code == 1
    assert "--gamma" in captured.err
    assert "resolved configuration" not in captured.out
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("mode", [[], ["--mode", "exact"]])
def test_eval_mc_samples_under_exact_mode_is_usage_error(workdir, capsys,
                                                         monkeypatch, mode):
    # exact mode enumerates every latent and draws no samples
    def not_reached(*args, **kwargs):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(L, "nelbo_discrete", not_reached)
    code = cli.main(["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--data", str(workdir / "train.txt"), "--T", "4",
                     "--mc-samples", "8"] + mode)
    captured = capsys.readouterr()
    assert code == 1
    assert "--mc-samples" in captured.err
    assert "resolved configuration" not in captured.out


@pytest.mark.parametrize("edit", [
    lambda doc: doc["schedule"].update(kind="cosine"),
    lambda doc: doc["schedule"].update(t_min=1e-3),
    lambda doc: doc["hyper"].update(n_layers=0),
], ids=["schedule_kind", "schedule_t_min", "no_hidden_layer"])
def test_checkpoint_outside_the_fixed_design_is_usage_error(
        workdir, tmp_path, capsys, edit):
    doc = json.loads((workdir / "ckpt.json").read_text())
    edit(doc)
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code = cli.main(["sample", "--checkpoint", str(tmp_path / "edited.json"),
                     "--out", str(tmp_path / "s.txt"), "--num", "2",
                     "--steps", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


def _set_in(doc, block, key, value):
    doc[block][key] = value
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: _set_in(doc, "hyper", "d", "abc"),
    lambda doc: _set_in(doc, "hyper", "d", 8.5),
    lambda doc: _set_in(doc, "hyper", "num_classes", "2"),
    lambda doc: _set_in(doc, "vocab", "size", "6"),
    lambda doc: _set_in(doc, "vocab", "symbols", 5),
    lambda doc: dict(doc, params=5),
    lambda doc: dict(doc, model_kind=["denoiser_uniform"]),
    lambda doc: [doc],
    lambda doc: _set_in(doc, "hyper", "n_layers", True),
    lambda doc: _set_in(doc, "vocab", "mask_index", False),
    lambda doc: _set_in(doc, "shapes", "output_head", ["8", "3"]),
    lambda doc: dict(doc, params=[[name, [str(v) for v in flat]]
                                  for name, flat in doc["params"]]),
    lambda doc: _set_in(doc, "hyper", "d", 10 ** 12),
    lambda doc: _set_in(doc, "hyper", "length", 10 ** 12),
    lambda doc: _set_in(doc, "hyper", "d", -3),
    lambda doc: _set_in(doc, "hyper", "length", -1),
    lambda doc: _set_in(doc, "hyper", "num_classes", -1),
    lambda doc: _set_in(doc, "hyper", "n_layers", 2),
    lambda doc: _set_in(doc, "hyper", "n_layers", 10 ** 9),
], ids=["d_text", "d_fraction", "num_classes_text", "vocab_size_text",
        "symbols_number", "params_number", "model_kind_list", "document_list",
        "n_layers_bool", "mask_index_bool", "shape_text", "params_text",
        "d_huge", "length_huge", "d_negative", "length_negative",
        "num_classes_negative", "n_layers_more", "n_layers_huge"])
def test_checkpoint_of_the_wrong_json_types_is_usage_error(
        workdir, tmp_path, capsys, edit):
    # refused by type, or by a size in hyper that is out of range or not
    # that of the stored arrays, before any array is built: ValueError from
    # the reader, exit 1 with no traceback from the CLI
    doc = edit(json.loads((workdir / "ckpt.json").read_text()))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    code = cli.main(["sample", "--checkpoint", str(path),
                     "--out", str(tmp_path / "s.txt"), "--num", "2",
                     "--steps", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "s.txt").exists()


def _paths(node, path=()):
    """Every path into a JSON document, its root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


# any JSON value json.dumps writes, NaN and Infinity included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 12, 10 ** 12)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=450, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoints_never_reach_a_traceback(workdir, tmp_path, capsys,
                                                     data):
    # one field of a saved denoiser, or of a saved classifier that cbg or
    # cbg-taylor sampling reads, replaced by another JSON value, or
    # deleted: sampling from it exits 0, 1 or 3 and, unless it exits 0,
    # writes no samples; an uncaught exception would escape cli.main
    guidance = data.draw(st.sampled_from([None, None, "cbg", "cbg-taylor"]))
    doc = json.loads((workdir / ("ckpt.json" if guidance is None
                                 else "clf.json")).read_text())
    paths = list(_paths(doc))[1:]
    entries = [p for p in paths if p[0] == "params" and len(p) == 4]
    fields = [p for p in paths if p not in entries]
    # a field, or one parameter entry, each half the time
    *parent, key = path = data.draw(st.sampled_from(fields)
                                    | st.sampled_from(entries))
    holder = doc
    for step in parent:
        holder = holder[step]
    if data.draw(st.booleans()):
        if isinstance(holder, list):
            holder.pop(key)
        else:
            del holder[key]
    else:
        holder[key] = data.draw(JSON_VALUES, label=f"value at {path}")
    ckpt, out = tmp_path / "mutated.json", tmp_path / "s.txt"
    outputs = (out, tmp_path / "s.txt.meta.json")
    ckpt.write_text(json.dumps(doc))
    for written in outputs:
        written.unlink(missing_ok=True)
    argv = ["sample", "--checkpoint", str(ckpt), "--out", str(out),
            "--num", "2", "--steps", "4"]
    if guidance is not None:
        argv[2] = str(workdir / "ckpt.json")
        argv += ["--guidance", guidance, "--label", "1",
                 "--classifier", str(ckpt)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    assert code == 0 or not any(written.exists() for written in outputs)


# a replacement line: the corpus's symbols, the mask symbol, digits and
# signs (wrong lengths, unknown symbols, non-integer labels), a signed
# integer of exactly 1 to 40 digits (int64 holds 19), or any text
DIGITS = st.integers(1, 40).flatmap(
    lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))
LINES = (st.text(alphabet="abc#d -+0123456789", max_size=6)
         | st.builds("{}{}".format, st.sampled_from(["", "-", "+"]), DIGITS)
         | st.text(max_size=4))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_eval_inputs_never_reach_a_traceback(workdir, tmp_path,
                                                     capsys, data):
    # one line of the corpus or of its labels replaced, deleted or
    # repeated, or one byte replaced (0x80 and above leave UTF-8): eval
    # exits 0, 1 or 3; an uncaught exception would escape cli.main
    files = {name: (workdir / f"{name}.txt").read_bytes().splitlines(
        keepends=True)[:24] for name in ("train", "labels")}
    name = data.draw(st.sampled_from(sorted(files)))
    lines = files[name]
    at = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["line", "delete", "repeat", "byte"]))
    if how == "line":
        lines[at] = data.draw(LINES).encode("utf-8") + b"\n"
    elif how == "delete":
        del lines[at]
    elif how == "repeat":
        lines.insert(at, lines[at])
    else:
        line = bytearray(lines[at])
        line[data.draw(st.integers(0, len(line) - 1))] = data.draw(
            st.integers(0, 255))
        lines[at] = bytes(line)
    for key, body in files.items():
        (tmp_path / f"{key}.txt").write_bytes(b"".join(body))
    code = cli.main(["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--data", str(tmp_path / "train.txt"),
                     "--labels", str(tmp_path / "labels.txt"),
                     "--T", "4", "--mode", "mc", "--mc-samples", "1"])
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert "Traceback" not in err


def test_eval_refuses_a_label_outside_int64(workdir, tmp_path, capsys):
    # a 30-digit label escaped as an OverflowError traceback
    labels = (workdir / "labels.txt").read_text().splitlines()
    labels[4] = "9" * 30
    (tmp_path / "labels.txt").write_text("\n".join(labels) + "\n")
    code = cli.main(["eval", "--checkpoint", str(workdir / "ckpt.json"),
                     "--data", str(workdir / "train.txt"),
                     "--labels", str(tmp_path / "labels.txt"),
                     "--T", "4", "--mode", "mc", "--mc-samples", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {tmp_path / 'labels.txt'}:5: label out of range" in err


@pytest.mark.parametrize("kind, n, objective", [
    ("uniform", "3", "mdlm_continuous"), ("absorbing", "4", "udlm_continuous"),
    ("absorbing", "4", "sedd_form")])
def test_train_refuses_an_objective_that_does_not_bound_the_prior(
        workdir, tmp_path, capsys, kind, n, objective):
    # uniform x mdlm_continuous trained nothing (its loss read 0) and
    # wrote that checkpoint; the uniform rates scored absorbing noise
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), "--kind", kind,
                     "--n", n, "--objective", objective])
    assert code == 1
    assert (f"error: objective '{objective}' bounds a" in
            capsys.readouterr().err)
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.1"])
def test_train_refuses_a_nonfinite_or_nonpositive_lr(workdir, tmp_path,
                                                      capsys, lr):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), "--lr", lr])
    assert code == 1
    assert "error: lr must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs and batch_size must be >= 1"),
    (["--batch", "0"], "epochs and batch_size must be >= 1"),
    (["--d-hidden", "0"], "a trunk needs at least one hidden layer"),
    (["--n-layers", "0"], "a trunk needs at least one hidden layer"),
    (["--n", "1"], "vocabulary needs at least 2 tokens"),
    (["--length", "0"], "train.txt:1: length 4, expected 0"),
    (["--kind", "absorbing", "--objective", "mdlm_continuous", "--vocab",
      "mask_c.json"], "absorbing training data holds the mask token"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
], ids=["epochs", "batch", "d_hidden", "n_layers", "n", "length", "mask",
        "seed"])
def test_train_refusals_come_from_the_library(workdir, tmp_path, capsys,
                                              monkeypatch, flags, message):
    # each rule is the library's, written once where the input is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mask_c.json").write_text(
        json.dumps({"symbols": ["a", "b", "c"], "mask_index": 2}))
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json")] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("rate", ["2.0", "-0.1", "nan"])
def test_train_refuses_a_condition_dropout_outside_0_1(workdir, tmp_path,
                                                       capsys, rate):
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"),
                     "--condition-dropout", rate])
    assert code == 1
    assert "error: condition_dropout must lie in [0, 1]" in \
        capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


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


def test_eval_exact_budget_checked_before_data(tmp_path, capsys, monkeypatch):
    # N = 6, L = 7 at T = 4 passed the old command-line bound (T * N^L <=
    # 2e6) and then failed inside the evaluation
    vocab = Vocabulary(6)
    params = init_denoiser(vocab, 7, 0, 4, kind="uniform", seed=0)
    save_checkpoint(params, tmp_path / "wide.json")
    (tmp_path / "wide.txt").write_text("abcdefa\n")

    def not_reached(*args, **kwargs):
        raise AssertionError("evaluation started past the budget")

    monkeypatch.setattr(L, "nelbo_discrete", not_reached)
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "wide.json"),
                     "--data", str(tmp_path / "wide.txt"),
                     "--T", "4", "--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--mode mc" in captured.err and "budget" in captured.err
    assert "resolved configuration" not in captured.out


@pytest.mark.parametrize("argv", [
    ["train", "--config", "c.txt", "--out", "o.json"],
    ["sample", "--checkpoint", "c.json", "--out", "s.txt", "--num", "1",
     "--steps", "1"],
    ["eval", "--checkpoint", "c.json", "--data", "d.txt"],
    ["metrics", "--samples", "s.txt", "--reference", "r.txt"],
    ["verify", "--suite", "posteriors"],
])
def test_threads_flag_rejected(argv, capsys):
    # no command runs on worker threads, the verify suites included
    code = cli.main(argv + ["--threads", "2"])
    assert code == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", ["-1", "3", "1.5", "9" * 30],
                         ids=["negative", "K", "fraction", "30_digits"])
def test_metrics_refuses_a_label_outside_its_classes(workdir, tmp_path, capsys,
                                                     bad):
    # -1 read as the last class and reported control_accuracy = 1; K ended
    # in an IndexError traceback
    labels = (workdir / "labels.txt").read_text().splitlines()
    labels[4] = bad
    (tmp_path / "labels.txt").write_text("\n".join(labels) + "\n")
    out_path = tmp_path / "m.txt"
    code = cli.main(["metrics", "--samples", str(workdir / "train.txt"),
                     "--reference", str(workdir / "train.txt"), "--n", "3",
                     "--labels", str(tmp_path / "labels.txt"),
                     "--rule", "majority_token", "--num-classes", "3",
                     "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {tmp_path / 'labels.txt'}:5: " in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_metrics_needs_exactly_one_vocab_source(workdir, capsys):
    base = ["metrics", "--samples", str(workdir / "train.txt"),
            "--reference", str(workdir / "train.txt")]
    assert cli.main(base) == 1
    assert cli.main(base + ["--n", "3", "--vocab", "v.json"]) == 1
    capsys.readouterr()


def test_verify_success_and_json_report(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    code = cli.main(["verify", "--suite", "posteriors", "--seed", "0",
                     "--json", str(rep_path)])
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


def test_failed_train_leaves_no_checkpoint(workdir, tmp_path, capsys):
    # every requested model is trained before any file is written, and a
    # checkpoint that cannot be written takes the others with it
    cfg = tmp_path / "clf.txt"
    cfg.write_text((workdir / "cfg.txt").read_text()
                   + "train_classifier = true\n"
                   + f"classifier_out = {tmp_path / 'nodir' / 'clf.json'}\n")
    code = cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "den.json")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "den.json").exists()
    assert not (tmp_path / "nodir").exists()


def test_cbg_label_is_checked_against_the_classifier(tmp_path, capsys):
    # an unconditional denoiser has no classes of its own: under cbg the
    # label names one of the classifier's
    vocab = Vocabulary(3)
    save_checkpoint(init_denoiser(vocab, 4, 0, 8, kind="uniform", seed=1),
                    tmp_path / "den.json")
    save_checkpoint(init_classifier(vocab, 4, 2, 8, seed=2),
                    tmp_path / "clf.json")
    for label, code in (("1", 0), ("2", 1), ("-1", 1)):
        argv = ["sample", "--checkpoint", str(tmp_path / "den.json"),
                "--out", str(tmp_path / "s.txt"), "--num", "2",
                "--steps", "4", "--guidance", "cbg-taylor", "--label", label,
                "--classifier", str(tmp_path / "clf.json")]
        assert cli.main(argv) == code
    assert "target_class -1 out of range [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["cbg", "cbg-taylor"])
@pytest.mark.parametrize("den_vocab,clf_vocab,clf_length", [
    (Vocabulary(3), Vocabulary(4), 4),
    (Vocabulary(3), Vocabulary(3), 5),
    (Vocabulary(4, mask_index=3), Vocabulary(4, mask_index=0), 4),
], ids=["vocab", "length", "mask_index"])
def test_cbg_refuses_a_classifier_of_another_vocabulary_or_length(
        tmp_path, capsys, flag, den_vocab, clf_vocab, clf_length):
    # the classifier reads the denoiser's token ids: over another
    # vocabulary, cbg guided by the wrong tokens and cbg-taylor failed in
    # its gradient's shape; at another length classify failed
    kind = "absorbing" if den_vocab.is_absorbing else "uniform"
    save_checkpoint(init_denoiser(den_vocab, 4, 0, 8, kind=kind, seed=1),
                    tmp_path / "den.json")
    save_checkpoint(init_classifier(clf_vocab, clf_length, 2, 8, seed=2),
                    tmp_path / "clf.json")
    out = tmp_path / "s.txt"
    code = cli.main(["sample", "--checkpoint", str(tmp_path / "den.json"),
                     "--out", str(out), "--num", "2", "--steps", "4",
                     "--guidance", flag, "--label", "1",
                     "--classifier", str(tmp_path / "clf.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "the denoiser" in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "s.txt.meta.json").exists()


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


def test_uniform_train_rejects_a_mask_vocabulary(workdir, tmp_path, capsys):
    (tmp_path / "vocab.json").write_text(
        json.dumps({"symbols": ["a", "b", "c", "#"], "mask_index": 3}))
    code = cli.main(["train", "--config", str(workdir / "cfg.txt"),
                     "--out", str(tmp_path / "o.json"), "--n", "4",
                     "--vocab", str(tmp_path / "vocab.json")])
    assert code == 1
    # the library's rule, raised by model.train before the first step
    assert "uniform denoiser needs a vocabulary without a mask token" in \
        capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


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


def test_denoiser_checkpoint_rejected_as_classifier(workdir, tmp_path,
                                                    capsys):
    code = cli.main(["sample", "--checkpoint", str(workdir / "ckpt.json"),
                     "--out", str(tmp_path / "s.txt"),
                     "--num", "2", "--steps", "4", "--guidance", "cbg",
                     "--label", "0",
                     "--classifier", str(workdir / "ckpt.json")])
    assert code == 1
    assert "not a classifier checkpoint" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # SciPy serves one verification quadrature; train, sample and eval
    # never reach it, so loading the CLI must not import it
    src = os.path.dirname(os.path.dirname(os.path.abspath(catdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, catdiff.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_verify_unloaded():
    # only the verify command runs a check suite, so it imports
    # catdiff.verify itself; a fresh import of the CLI leaves it out
    src = os.path.dirname(os.path.dirname(os.path.abspath(catdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, catdiff.cli; print('catdiff.verify' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_verify_rejects_an_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "unknown suite 'bogus'" in err and "posteriors" in err
