"""Versioned JSON checkpoints for denoisers and classifiers.

One document: format_version, model_kind, vocab, schedule, shapes, and
the parameter arrays flattened in declared field order. Keys are emitted
in a fixed order so identical models serialize byte-identically. The
schedule block records the one fixed schedule; a document with any other
is refused.
"""

from __future__ import annotations

import json

import numpy as np

from .core import NoiseSchedule, Vocabulary
from .model import (ClassifierParams, ConstantDenoiser, DenoiserParams,
                    init_classifier, init_denoiser)

FORMAT_VERSION = 1

KIND_TAGS = {
    ("denoiser", "uniform"): "denoiser_uniform",
    ("denoiser", "absorbing"): "denoiser_absorbing",
    ("constant", "uniform"): "constant_uniform",
    ("constant", "absorbing"): "constant_absorbing",
}
REVERSE_TAGS = {tag: key for key, tag in KIND_TAGS.items()}
SCHEDULE_BLOCK = {"kind": NoiseSchedule.kind, "t_min": NoiseSchedule.t_min,
                  "t_max": NoiseSchedule.t_max}


def _model_kind(params) -> str:
    if isinstance(params, DenoiserParams):
        return KIND_TAGS[("denoiser", params.kind)]
    if isinstance(params, ConstantDenoiser):
        return KIND_TAGS[("constant", params.kind)]
    if isinstance(params, ClassifierParams):
        return "classifier"
    raise TypeError(f"cannot checkpoint {type(params).__name__}")


def checkpoint_document(params) -> dict:
    if isinstance(params, ConstantDenoiser):
        hyper = {"length": params.length, "num_classes": params.num_classes,
                 "d": 0, "n_layers": 0}
        arrays = [("rows_table", params.rows_table)]
    else:
        hyper = {
            "length": params.length,
            "num_classes": params.num_classes,
            "d": params.d,
            "n_layers": len(params.hidden),
        }
        arrays = params.arrays()
    doc = {
        "format_version": FORMAT_VERSION,
        "model_kind": _model_kind(params),
        "vocab": {
            "size": params.vocab.size,
            "mask_index": params.vocab.mask_index,
            "symbols": list(params.vocab.symbols),
        },
        "schedule": dict(SCHEDULE_BLOCK),
        "hyper": hyper,
        "shapes": {name: list(arr.shape) for name, arr in arrays},
        "params": [
            [name, [float(v) for v in arr.reshape(-1)]]
            for name, arr in arrays
        ],
    }
    return doc


def save_checkpoint(params, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_document(params), fh)
        fh.write("\n")


def _checked_arrays(doc: dict, expected: dict) -> dict:
    """The document's arrays by name, each checked against the expected
    shape (ValueError) and for finiteness (FloatingPointError)."""
    named = {}
    for name, flat in doc["params"]:
        if name not in expected:
            raise ValueError(f"unexpected array {name!r} in a "
                             f"{doc['model_kind']} checkpoint")
        arr = np.asarray(flat, dtype=np.float64)
        shape = tuple(doc["shapes"].get(name, ()))
        if shape != expected[name] or arr.size != np.prod(shape):
            raise ValueError(
                f"array {name!r} has shape {shape} and {arr.size} entries; "
                f"the checkpoint's hyper and vocab need {expected[name]}")
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"array {name!r} has non-finite entries")
        named[name] = arr.reshape(shape)
    missing = [name for name in expected if name not in named]
    if missing:
        raise ValueError(f"checkpoint is missing array(s) {missing}")
    return named


def load_checkpoint(path: str):
    """Read a checkpoint into the model it describes. Every array's name
    and shape is checked against that model, freshly initialized from the
    document's hyper and vocab (ValueError), and every entry for
    finiteness (FloatingPointError). A schedule block other than the fixed
    one, or a trunk without a hidden layer, is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {doc.get('format_version')!r}"
        )
    vocab = Vocabulary(
        doc["vocab"]["size"],
        mask_index=doc["vocab"]["mask_index"],
        symbols=tuple(doc["vocab"]["symbols"]),
    )
    if doc["schedule"] != SCHEDULE_BLOCK:
        raise ValueError(f"checkpoint schedule {doc['schedule']!r} is not "
                         f"the fixed schedule {SCHEDULE_BLOCK!r}")
    hyper = doc["hyper"]
    kind_tag = doc["model_kind"]
    if kind_tag != "classifier" and kind_tag not in REVERSE_TAGS:
        raise ValueError(f"unknown model_kind {kind_tag!r}")
    family, kind = REVERSE_TAGS.get(kind_tag, ("classifier", None))
    if family == "constant":
        if hyper["num_classes"] != 0:
            raise ValueError(f"a constant denoiser reads no condition, so "
                             f"num_classes must be 0, not "
                             f"{hyper['num_classes']!r}")
        named = _checked_arrays(
            doc, {"rows_table": (hyper["length"], vocab.size)})
        return ConstantDenoiser(kind=kind, vocab=vocab,
                                rows_table=named["rows_table"])
    sizes = (vocab, hyper["length"], hyper["num_classes"], hyper["d"])
    model = (init_classifier(*sizes, n_layers=hyper["n_layers"])
             if family == "classifier"
             else init_denoiser(*sizes, kind=kind, n_layers=hyper["n_layers"]))
    expected = {name: arr.shape for name, arr in model.arrays()}
    named = _checked_arrays(doc, expected)
    model.set_arrays([(name, named[name]) for name in expected])
    return model
