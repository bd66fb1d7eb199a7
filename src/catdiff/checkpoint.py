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
                    trunk_shapes)

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


TYPE_NAMES = {int: "an integer", str: "a string", list: "a list",
              dict: "an object"}


def _field(obj: dict, key: str, kind: type, where: str = ""):
    """obj[key], which must be of JSON type ``kind`` (ValueError); a bool
    is no integer."""
    if key not in obj:
        raise ValueError(f"checkpoint has no field {where + key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"checkpoint field {where + key!r} must be "
                         f"{TYPE_NAMES[kind]}, not {type(value).__name__}")
    return value


def _check_fields(doc) -> None:
    """ValueError unless each field load_checkpoint reads has its JSON
    type, so no array is built from, and no model sized by, a value of
    another type."""
    if not isinstance(doc, dict):
        raise ValueError(f"a checkpoint is a JSON object, not "
                         f"{type(doc).__name__}")
    _field(doc, "model_kind", str)
    vocab = _field(doc, "vocab", dict)
    _field(vocab, "size", int, "vocab.")
    if vocab.get("mask_index") is not None:
        _field(vocab, "mask_index", int, "vocab.")
    if not all(isinstance(s, str)
               for s in _field(vocab, "symbols", list, "vocab.")):
        raise ValueError("checkpoint field 'vocab.symbols' must list strings")
    hyper = _field(doc, "hyper", dict)
    for key in ("length", "num_classes", "d", "n_layers"):
        _field(hyper, key, int, "hyper.")
    for name, shape in _field(doc, "shapes", dict).items():
        if not (isinstance(shape, list)
                and all(type(k) is int for k in shape)):
            raise ValueError(f"checkpoint shape of {name!r} must list "
                             f"integers")
    for entry in _field(doc, "params", list):
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)):
            raise ValueError("checkpoint params must be [name, values] "
                             "pairs")


def _checked_arrays(doc: dict, expected: dict) -> dict:
    """The document's arrays by name, each checked against the expected
    shape (ValueError) and for finiteness (FloatingPointError)."""
    named = {}
    for name, flat in doc["params"]:
        if name not in expected:
            raise ValueError(f"unexpected array {name!r} in a "
                             f"{doc['model_kind']} checkpoint")
        arr = np.asarray(flat)
        if arr.ndim != 1 or arr.dtype.kind not in "if":
            raise ValueError(f"array {name!r} must be a flat list of "
                             f"numbers")
        arr = arr.astype(np.float64, copy=False)
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
    """Read a checkpoint into the model it describes. Every field's JSON
    type is checked first (ValueError). Then, before any array is built,
    hyper's sizes (``trunk_shapes``; n_layers must count the stored hidden
    layers) and every array's name and shape against them (ValueError),
    and every entry for finiteness (FloatingPointError). A schedule block
    other than the fixed one is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_fields(doc)
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
    layers = sum(name.startswith("hidden_w") for name, _ in doc["params"])
    if hyper["n_layers"] != layers:
        raise ValueError(f"checkpoint hyper.n_layers is {hyper['n_layers']}, "
                         f"but it stores {layers} hidden layer(s)")
    sizes = {"vocab": vocab, "length": hyper["length"],
             "num_classes": hyper["num_classes"], "d": hyper["d"]}
    cls = ClassifierParams if family == "classifier" else DenoiserParams
    expected = dict(trunk_shapes(cls, **sizes, n_layers=layers))
    named = _checked_arrays(doc, expected)
    if cls is DenoiserParams:
        sizes["kind"] = kind
    return cls(**sizes, **cls.array_fields([named[name] for name in expected]))
