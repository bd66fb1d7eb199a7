"""Command surface: train, sample, eval, metrics, verify.

Training reads a flat key=value config file; command-line flags override
config keys, unknown or duplicate keys are errors, and every command
echoes its resolved configuration before doing any work, so the printed
block plus the binary version is enough to rerun it. Exit codes: 0
success, 1 usage error, 2 verification failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import loss as loss_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import sampler as sampler_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .core import Vocabulary
from .data import load_text_dataset, load_vocabulary, rule_label
from .model import ClassifierParams, TrainingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

GUIDANCE_FLAGS = {
    "none": "none",
    "cfg": "cfg",
    "cbg": "cbg_exact",
    "cbg-taylor": "cbg_taylor",
}


class UsageError(Exception):
    pass


class NumericError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # verification failures here, so route usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ------------------------------------------------------------ config file

def _cast_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (caster, default); None default means "required"
TRAIN_SCHEMA = {
    "kind": (str, None),
    "n": (int, None),
    "length": (int, None),
    "d_hidden": (int, None),
    "n_layers": (int, 1),
    "objective": (str, None),
    "T": (int, ""),
    "epochs": (int, None),
    "batch": (int, None),
    "lr": (float, None),
    "seed": (int, 0),
    "data": (str, None),
    "labels": (str, ""),
    "num_classes": (int, 0),
    "condition_dropout": (float, 0.10),
    "vocab": (str, ""),
    "train_classifier": (_cast_bool, False),
    "classifier_out": (str, ""),
}


def parse_config(path: str) -> dict:
    """Flat key=value lines; blank lines and #-comments ignored; unknown
    and duplicate keys rejected."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in TRAIN_SCHEMA:
                raise UsageError(f"{path}:{lineno}: unknown config key "
                                 f"{key!r}")
            if key in out:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            caster = TRAIN_SCHEMA[key][0]
            try:
                out[key] = caster(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for "
                                 f"{key!r}: {exc}")
    return out


def resolve_train_config(config: dict, overrides: dict) -> dict:
    merged = dict(config)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    for key, (_, default) in TRAIN_SCHEMA.items():
        if key not in merged:
            if default is None:
                raise UsageError(f"missing required config key {key!r}")
            merged[key] = default
    # "" stands for an unset optional string/int above
    for key in ("T", "labels", "vocab", "classifier_out"):
        if merged[key] == "":
            merged[key] = None
    if merged["kind"] not in ("uniform", "absorbing"):
        raise UsageError(f"kind must be uniform or absorbing, "
                         f"got {merged['kind']!r}")
    try:
        loss_mod.LossSpec(merged["objective"], T=merged["T"])
    except ValueError as exc:
        raise UsageError(str(exc))
    for key in ("n", "length", "d_hidden", "n_layers", "epochs", "batch"):
        if merged[key] < 1:
            raise UsageError(f"{key} must be >= 1, got {merged[key]}")
    if not 0.0 < merged["lr"] < float("inf"):  # refuses NaN too
        raise UsageError(f"lr must be positive and finite, got "
                         f"{merged['lr']}")
    if merged["num_classes"] > 0 and merged["labels"] is None:
        raise UsageError("num_classes > 0 needs a labels file")
    if merged["labels"] is not None and merged["num_classes"] < 1:
        raise UsageError("labels need num_classes >= 1")
    if merged["train_classifier"]:
        if merged["labels"] is None or merged["classifier_out"] is None:
            raise UsageError("train_classifier needs labels and "
                             "classifier_out")
    return merged


def _resolve_vocab(cfg: dict) -> Vocabulary:
    if cfg["vocab"] is not None:
        vocab = load_vocabulary(cfg["vocab"])
        if vocab.size != cfg["n"]:
            raise UsageError(f"vocabulary size {vocab.size} != n {cfg['n']}")
    elif cfg["kind"] == "absorbing":
        vocab = Vocabulary(cfg["n"], mask_index=cfg["n"] - 1)
    else:
        vocab = Vocabulary(cfg["n"])
    if vocab.is_absorbing != (cfg["kind"] == "absorbing"):
        need = "with" if cfg["kind"] == "absorbing" else "without"
        raise UsageError(f"{cfg['kind']} training needs a vocabulary {need} "
                         f"a mask token")
    return vocab


# ------------------------------------------------------------------- echo

def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(command: str, mapping: dict) -> None:
    print("resolved configuration:")
    print(f"  command = {command}")
    for key in sorted(mapping):
        print(f"  {key} = {_fmt(mapping[key])}")


# --------------------------------------------------------------- commands

def cmd_train(args) -> int:
    overrides = {key: getattr(args, key) for key in TRAIN_SCHEMA}
    cfg = resolve_train_config(parse_config(args.config), overrides)
    vocab = _resolve_vocab(cfg)
    echo_config("train", {**cfg, "out": args.out})

    dataset = load_text_dataset(cfg["data"], vocab, cfg["length"],
                                labels_path=cfg["labels"],
                                num_classes=cfg["num_classes"])
    if vocab.mask_index is not None \
            and np.any(dataset.sequences == vocab.mask_index):
        raise UsageError("training data contains the mask token")
    spec = loss_mod.LossSpec(cfg["objective"], T=cfg["T"])
    data_arg = (dataset.sequences, dataset.labels) \
        if dataset.labels is not None else dataset.sequences
    params, trace = model_mod.train(
        data_arg, spec, kind=cfg["kind"], vocab=vocab,
        num_classes=cfg["num_classes"], d=cfg["d_hidden"],
        n_layers=cfg["n_layers"], epochs=cfg["epochs"],
        batch_size=cfg["batch"], lr=cfg["lr"],
        condition_dropout=cfg["condition_dropout"], seed=cfg["seed"],
    )
    save_checkpoint(params, args.out)
    print(f"final training loss = {trace[-1]:.12g}")
    print(f"wrote checkpoint {args.out}")
    if cfg["train_classifier"]:
        clf, clf_trace = model_mod.train_classifier(
            (dataset.sequences, dataset.labels), vocab=vocab,
            num_classes=cfg["num_classes"], d=cfg["d_hidden"],
            n_layers=cfg["n_layers"], epochs=cfg["epochs"],
            batch_size=cfg["batch"], lr=cfg["lr"], seed=cfg["seed"],
        )
        save_checkpoint(clf, cfg["classifier_out"])
        print(f"final classifier loss = {clf_trace[-1]:.12g}")
        print(f"wrote checkpoint {cfg['classifier_out']}")
    return EXIT_OK


def _load_denoiser(path: str):
    model = load_checkpoint(path)
    if isinstance(model, ClassifierParams):
        raise UsageError(f"{path} is not a denoiser checkpoint")
    return model


def cmd_sample(args) -> int:
    from .guidance import GuidanceConfig

    mode = GUIDANCE_FLAGS[args.guidance]
    if mode in ("cfg", "cbg_exact", "cbg_taylor") and args.label is None:
        raise UsageError(f"--guidance {args.guidance} needs --label")
    needs_classifier = mode in ("cbg_exact", "cbg_taylor")
    if needs_classifier and args.classifier is None:
        raise UsageError(f"--guidance {args.guidance} needs --classifier")
    if args.classifier is not None and not needs_classifier:
        raise UsageError(f"--classifier is read only by --guidance cbg and "
                         f"cbg-taylor, not {args.guidance}")
    if args.gamma is not None and mode == "none":
        raise UsageError("--gamma is read only by guided sampling, not "
                         "--guidance none")
    gamma = 1.0 if args.gamma is None else args.gamma
    model = _load_denoiser(args.checkpoint)
    # under cbg the label names a classifier class, which generate checks
    if args.label is not None and not needs_classifier \
            and not 0 <= args.label < model.num_classes:
        raise UsageError(f"label {args.label} outside "
                         f"[0, {model.num_classes})")
    classifier = None
    if args.classifier is not None:
        classifier = load_checkpoint(args.classifier)
        if not isinstance(classifier, ClassifierParams):
            raise UsageError(f"{args.classifier} is not a classifier "
                             f"checkpoint")
        # the classifier reads the denoiser's token ids at its positions
        if classifier.vocab != model.vocab:
            raise UsageError(f"{args.classifier} reads {classifier.vocab}, "
                             f"the denoiser {model.vocab}")
    guidance = GuidanceConfig(mode=mode, gamma=gamma,
                              target_class=args.label)
    request = sampler_mod.SampleRequest(
        num_sequences=args.num, length=model.length, T=args.steps,
        guidance=guidance, seed=args.seed, final_decode=args.decode,
    )
    echo_config("sample", {
        "checkpoint": args.checkpoint, "classifier": args.classifier,
        "num": args.num, "steps": args.steps, "guidance": args.guidance,
        "gamma": gamma, "label": args.label, "seed": args.seed,
        "decode": args.decode, "out": args.out,
    })
    samples, diagnostics = sampler_mod.generate(request, model, classifier)
    sampler_mod.write_samples(args.out, samples, model.vocab, request)
    mean_edits = float(np.mean([d["edits"] for d in diagnostics]))
    print(f"sequences = {samples.shape[0]}")
    print(f"mean edits per sequence = {mean_edits:.12g}")
    print(f"wrote samples {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.mode == "exact" and args.mc_samples is not None:
        raise UsageError("--mc-samples is read only by --mode mc")
    mc_samples = 8 if args.mc_samples is None else args.mc_samples
    model = _load_denoiser(args.checkpoint)
    vocab = model.vocab
    if args.mode == "exact":
        try:
            loss_mod.check_exact_budget(args.T, vocab.size, model.length)
        except ValueError as exc:
            raise UsageError(f"{exc}; rerun with --mode mc")
    # labels are range-checked against num_classes, so a model without
    # classes rejects any labels file
    dataset = load_text_dataset(args.data, vocab, model.length,
                                labels_path=args.labels,
                                num_classes=model.num_classes)
    echo_config("eval", {
        "checkpoint": args.checkpoint, "data": args.data,
        "labels": args.labels, "T": args.T, "mode": args.mode,
        "mc_samples": mc_samples, "seed": args.seed,
    })
    per_seq = loss_mod.nelbo_discrete(
        dataset.sequences, model, args.T, model.prior, model.schedule,
        mode=args.mode, rng=np.random.default_rng(args.seed),
        mc_samples=mc_samples, condition=dataset.labels,
    )
    # summed left to right, as when sequences were scored one at a time
    mean_nelbo = sum(per_seq.tolist()) / dataset.count
    if not np.isfinite(mean_nelbo):
        raise NumericError(f"non-finite NELBO {mean_nelbo!r}")
    print(f"sequences = {dataset.count}")
    print(f"nelbo_nats_per_seq = {mean_nelbo:.12g}")
    print(f"bpc = {loss_mod.bpc(mean_nelbo, dataset.length):.12g}")
    print(f"ppl = {loss_mod.ppl(mean_nelbo, dataset.length):.12g}")
    return EXIT_OK


def _line_length(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if not first:
        raise UsageError(f"{path}: empty dataset")
    return len(first)


def cmd_metrics(args) -> int:
    if (args.vocab is None) == (args.n is None):
        raise UsageError("pass exactly one of --vocab and --n")
    vocab = load_vocabulary(args.vocab) if args.vocab is not None \
        else Vocabulary(args.n)
    if args.labels is not None and (args.rule is None
                                    or args.num_classes is None):
        raise UsageError("--labels needs --rule and --num-classes")
    echo_config("metrics", {
        "samples": args.samples, "reference": args.reference, "k": args.k,
        "vocab": args.vocab, "n": args.n, "labels": args.labels,
        "rule": args.rule, "num_classes": args.num_classes,
        "out": args.out,
    })
    samples = load_text_dataset(args.samples, vocab,
                                _line_length(args.samples))
    reference = load_text_dataset(args.reference, vocab,
                                  _line_length(args.reference))
    lines = [f"kmer_js_k{args.k} = "
             f"{metrics_mod.kmer_js(samples, reference, args.k):.12g}"]
    if args.labels is not None:
        requested = np.loadtxt(args.labels, dtype=np.int64, ndmin=1)
        report = metrics_mod.control_accuracy(
            samples, requested,
            lambda row: rule_label(row, args.rule, vocab.size,
                                   args.num_classes),
            args.num_classes,
        )
        lines.append(f"control_accuracy = {report.accuracy:.12g}")
        lines.append(f"macro_recall = {report.macro_recall:.12g}")
    novelty = metrics_mod.validity_novelty_property(samples, reference)
    lines.append(f"num_valid = {novelty['num_valid']}")
    lines.append(f"num_novel = {novelty['num_novel']}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote metrics {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: no other command runs a check suite, and the import
    # costs every CLI process about 11 ms. run_suite refuses an unknown
    # suite name with ValueError, a usage error.
    from .verify import run_suite

    echo_config("verify", {
        "suite": args.suite, "seed": args.seed, "json": args.json,
    })
    report = run_suite(args.suite, seed=args.seed)
    print(report.human())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
        print(f"wrote report {args.json}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ----------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catdiff",
                     description="discrete-diffusion training, sampling, "
                                 "evaluation, and self-checks")
    subs = parser.add_subparsers(dest="subcommand", metavar="command")

    train = subs.add_parser("train", help="train a denoiser from a config")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True)
    for key, (caster, _) in TRAIN_SCHEMA.items():  # overrides config keys
        train.add_argument("--" + key.replace("_", "-"), dest=key, type=caster)
    train.set_defaults(func=cmd_train)

    sample = subs.add_parser("sample", help="generate sequences")
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--out", required=True)
    sample.add_argument("--num", type=_positive_int, required=True)
    sample.add_argument("--steps", type=_positive_int, required=True)
    sample.add_argument("--guidance", choices=tuple(GUIDANCE_FLAGS),
                        default="none")
    sample.add_argument("--gamma", type=float)  # 1.0 under guidance
    sample.add_argument("--label", type=int)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--classifier")
    sample.add_argument("--decode", choices=sampler_mod.DECODES,
                        default="sample")
    sample.set_defaults(func=cmd_sample)

    evaluate = subs.add_parser("eval", help="NELBO, BPC, PPL on a dataset")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--labels")
    evaluate.add_argument("--T", dest="T", type=_positive_int, default=16)
    evaluate.add_argument("--mode", choices=("exact", "mc"), default="exact")
    evaluate.add_argument("--mc-samples", dest="mc_samples",
                          type=_positive_int)  # 8 under --mode mc
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=cmd_eval)

    metrics = subs.add_parser("metrics", help="score samples vs a reference")
    metrics.add_argument("--samples", required=True)
    metrics.add_argument("--reference", required=True)
    metrics.add_argument("--k", type=_positive_int, default=2)
    metrics.add_argument("--vocab")
    metrics.add_argument("--n", type=int)
    metrics.add_argument("--labels")
    metrics.add_argument("--rule", choices=("majority_token", "prefix_class"))
    metrics.add_argument("--num-classes", dest="num_classes", type=int)
    metrics.add_argument("--out")
    metrics.set_defaults(func=cmd_metrics)

    verify = subs.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--suite", default="all",
                        help="a check suite's name, or all")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (TrainingError, NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
