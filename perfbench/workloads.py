"""The benchmark's workloads: set-up, one cycle of operations, and checks.

Every workload builds its corpora and models in set-up from the workload
seed, so nothing is read from committed files. A cycle is a fixed list of
operation shapes; the seed decides data, labels, request seeds and the
order inside a cycle, never the shapes. A run measures whole cycles, so
two seeds measure the same mix of work, and each shape's operation times
can be summarised on their own.

All sequences have L = 16 tokens over N = 6 symbols (a 7th mask symbol
for absorbing models), except the exact-eval model (N = 4, L = 5),
whose latent space is small enough to enumerate.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from catdiff import cli, loss, metrics, model, sampler
from catdiff.checkpoint import load_checkpoint, save_checkpoint
from catdiff.core import Vocabulary
from catdiff.data import (Dataset, gen_labeled_corpus, rule_label,
                          save_text_dataset)
from catdiff.forward import PriorSpec
from catdiff.guidance import GuidanceConfig

L = 16
N = 6
RULE = "majority_token"


@dataclass
class Op:
    """One closed-loop operation: `items` sequences or examples of work."""

    kind: str
    items: int
    run: Callable[[], object]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


# op_seed components kept apart from real ones: ORDER_STREAM sits where
# an op position (< 999) goes, CHECK_STREAM where a cycle index goes
ORDER_STREAM = 999
CHECK_STREAM = 2**31 - 1


def op_seed(seed: int, *path: int) -> int:
    """An independent seed for (workload seed, cycle index, op position)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def digest(*values) -> str:
    """sha256 over arrays (bytes and shape), floats (repr) and strings."""
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(repr(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (list, tuple)):
            h.update(digest(*value).encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def params_digest(*models) -> str:
    return digest(*[a for m in models for _, a in m.arrays()])


def skewed_corpus(seed: int, n: int, length: int, count: int) -> Dataset:
    """I.i.d. tokens from a geometric marginal (ratio 0.6) in a seed-chosen
    order, labelled by the majority rule. Two epochs of training bring a
    model's 2-mer JS against it to about 0.01-0.035; an untrained model
    scores above 0.15."""
    rng = np.random.default_rng(seed)
    probs = 0.6 ** np.arange(n)
    probs = probs[rng.permutation(n)] / probs.sum()
    seqs = rng.choice(n, size=(count, length), p=probs)
    labels = np.array([rule_label(row, RULE, n, n) for row in seqs])
    return Dataset(seqs, labels)


def _shuffled(seed: int, index: int, ops: list) -> list:
    rng = np.random.default_rng(op_seed(seed, index, ORDER_STREAM))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _tokens_in_range(tokens, num: int, n: int) -> bool:
    """Shape (num, L) and every token a clean symbol; the mask symbol of
    an absorbing vocabulary is index n, so this also rejects masks."""
    return (isinstance(tokens, np.ndarray) and tokens.shape == (num, L)
            and bool(np.all((tokens >= 0) & (tokens < n))))


class Workload:
    name = ""
    # rough wall time of one cycle on one core; sets the traced plan length
    nominal_cycle_s = 1.0

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def fingerprint(self, state) -> str:
        raise NotImplementedError

    def cycle(self, state, index: int) -> list:
        raise NotImplementedError

    def check_op(self, state, op: Op, output) -> bool:
        return True

    def checks(self, state, done: list) -> list:
        """Run-level checks over [(cycle index, op, output), ...]."""
        return []

    def state_digest(self, state) -> str:
        """State the operations mutate; compared between replays."""
        return ""


# ------------------------------------------------------------------ train

class Train(Workload):
    """Single Adam steps at batch 256 through model.train and
    model.train_classifier, cycling four objectives and the classifier.
    Each call starts a fresh AdamState, so every step is a first Adam
    step; it costs what any later step costs."""

    name = "train"
    nominal_cycle_s = 0.15
    batch = 256
    batches = 8
    lr = 0.01

    def setup(self, seed, workdir):
        count = self.batch * self.batches
        corpus = skewed_corpus(seed, N, L, count)
        labeled = gen_labeled_corpus(N, L, count, RULE, seed=seed + 1)
        vu, va = Vocabulary(N), Vocabulary(N + 1, mask_index=N)

        def denoiser(vocab, kind, d, layers, k):
            return model.init_denoiser(vocab, L, 0, d, kind=kind,
                                       n_layers=layers, seed=seed + k)

        clf = model.init_classifier(vu, L, N, 32, seed=seed + 5)
        steps = [
            ("udlm_continuous", vu, denoiser(vu, "uniform", 32, 1, 1)),
            ("mdlm_continuous", va, denoiser(va, "absorbing", 48, 2, 2)),
            ("classifier", vu, clf),
            ("nelbo_discrete", va, denoiser(va, "absorbing", 32, 1, 3)),
            ("sedd_form", vu, denoiser(vu, "uniform", 48, 2, 4)),
        ]
        return SimpleNamespace(seed=seed, corpus=corpus, labeled=labeled,
                               steps=steps)

    def fingerprint(self, state):
        return digest(state.corpus.sequences, state.labeled.sequences,
                      state.labeled.labels, self.state_digest(state))

    def state_digest(self, state):
        seen = {id(p): p for _, _, p in state.steps}
        return params_digest(*seen.values())

    def _step(self, state, objective, vocab, params, rows, step_seed, lr):
        if objective == "classifier":
            x, y = state.labeled.sequences[rows], state.labeled.labels[rows]
            _, trace = model.train_classifier(
                (x, y), vocab=vocab, num_classes=N, epochs=1,
                batch_size=self.batch, lr=lr, seed=step_seed, params=params)
            return trace[0]
        spec = loss.LossSpec(objective, T=16 if objective == "nelbo_discrete"
                             else None)
        _, trace = model.train(
            state.corpus.sequences[rows], spec, kind=params.kind, vocab=vocab,
            epochs=1, batch_size=self.batch, lr=lr, seed=step_seed,
            params=params)
        return trace[0]

    def cycle(self, state, index):
        start = (index % self.batches) * self.batch
        rows = slice(start, start + self.batch)
        ops = []
        for j, (objective, vocab, params) in enumerate(state.steps):
            step_seed = op_seed(state.seed, index, j)
            ops.append(Op(objective, self.batch, functools.partial(
                self._step, state, objective, vocab, params, rows,
                step_seed, self.lr)))
        return ops

    def check_op(self, state, op, output):
        return bool(np.isfinite(output))

    def _losses(self, state, steps) -> list:
        """Each model's loss at its current parameters (an lr = 0 step) on
        fixed batches with fixed draws, so two parameter sets are compared
        on identical (t, z_t) samples."""
        out, seen = [], set()
        for objective, vocab, params in steps:
            if id(params) in seen:
                continue
            seen.add(id(params))
            out.append(float(np.mean([
                self._step(state, objective, vocab, params,
                           slice(b * self.batch, (b + 1) * self.batch),
                           op_seed(state.seed, CHECK_STREAM, b), 0.0)
                for b in range(2)])))
        return out

    def checks(self, state, done):
        """Training lowers the loss: the run's final parameters against
        the set-up parameters, paired on the same batches and draws (single
        minibatch losses are too noisy to compare across passes)."""
        before = self._losses(state, self.setup(state.seed, "").steps)
        after = self._losses(state, state.steps)
        change = [a / b - 1.0 for a, b in zip(after, before)]
        return [Check("train.loss_decreases", float(np.mean(change)) < 0.0,
                      "relative change per model "
                      + " ".join(f"{c:+.4f}" for c in change))]


# ----------------------------------------------------------------- sample

class Sample(Workload):
    """Unguided and cfg sampling at batch sizes on both sides of the L2
    cache, from models trained in set-up."""

    name = "sample"
    nominal_cycle_s = 3.7
    # pooled 2-mer JS (base 2) of a model's samples against its corpus,
    # between trained (<= 0.035) and untrained (>= 0.15) set-up models
    js_ceiling = 0.08

    def setup(self, seed, workdir):
        corpus = skewed_corpus(seed, N, L, 2048)
        vu, va = Vocabulary(N), Vocabulary(N + 1, mask_index=N)
        common = dict(epochs=2, batch_size=256, lr=0.02)
        uniform, _ = model.train(
            corpus.sequences, loss.LossSpec("udlm_continuous"),
            kind="uniform", vocab=vu, d=48, n_layers=2, seed=seed + 1,
            **common)
        absorbing, _ = model.train(
            corpus.sequences, loss.LossSpec("mdlm_continuous"),
            kind="absorbing", vocab=va, d=48, n_layers=2, seed=seed + 2,
            **common)
        conditional, _ = model.train(
            corpus, loss.LossSpec("udlm_continuous"),
            kind="uniform", vocab=vu, num_classes=N, d=32, n_layers=1,
            seed=seed + 3, **common)
        return SimpleNamespace(seed=seed, corpus=corpus, models={
            "uniform": uniform, "absorbing": absorbing,
            "conditional": conditional})

    def fingerprint(self, state):
        return digest(state.corpus.sequences,
                      params_digest(*state.models.values()))

    def shapes(self):
        """(model, guidance gamma or None, num_sequences, T)."""
        if self.tiny:
            return [("uniform", None, 64, 4), ("absorbing", None, 64, 4),
                    ("conditional", 2.0, 16, 8)]
        return [("uniform", None, 2048, 16), ("uniform", None, 64, 64),
                ("absorbing", None, 512, 16), ("conditional", 1.0, 512, 16),
                ("conditional", 2.0, 64, 64)]

    def request(self, state, index, j):
        name, gamma, num, steps = self.shapes()[j]
        seed = op_seed(state.seed, index, j)
        guidance = GuidanceConfig()
        if gamma is not None:
            label = int(np.random.default_rng(seed).integers(N))
            guidance = GuidanceConfig("cfg", gamma=gamma, target_class=label)
        return name, sampler.SampleRequest(num, L, steps, guidance, seed=seed)

    def cycle(self, state, index):
        ops = []
        for j in range(len(self.shapes())):
            name, request = self.request(state, index, j)
            ops.append(Op(name, request.num_sequences, functools.partial(
                _generate, request, state.models[name])))
        return _shuffled(state.seed, index, ops)

    def check_op(self, state, op, output):
        return _tokens_in_range(output, op.items, N)

    def checks(self, state, done):
        out = []
        # replay the first op of the first pass with its own seed
        index = min(i for i, _, _ in done)
        first = [(op, tokens) for i, op, tokens in done if i == index][0]
        again = first[0].run()
        out.append(Check("sample.replay_identical",
                         isinstance(again, np.ndarray)
                         and again.tobytes() == first[1].tobytes(),
                         f"{first[0].kind} x{first[0].items}"))
        # cfg samples follow the class-conditional distribution by design,
        # so only the unguided models are held to the corpus statistics
        for name in ("uniform", "absorbing"):
            pooled = [t for _, op, t in done
                      if op.kind == name and isinstance(t, np.ndarray)]
            js = (metrics.kmer_js(np.concatenate(pooled), state.corpus, 2)
                  if pooled else float("inf"))
            out.append(Check(f"sample.js2[{name}]", js < self.js_ceiling,
                             f"js={js:.5f} ceiling={self.js_ceiling}"))
        return out


def _generate(request, denoiser, classifier=None):
    tokens, _ = sampler.generate(request, denoiser, classifier)
    return tokens


# -------------------------------------------------- classifier guidance

class Guided(Workload):
    """Small-batch classifier-guided sampling at T = 16: one classifier
    row per candidate edit (exact) or one gradient per sequence (Taylor)."""

    gamma = 3.0
    mode = ""
    sizes = ()
    tiny_sizes = ()
    steps = 16

    def setup(self, seed, workdir):
        labeled = gen_labeled_corpus(N, L, 2048, RULE, seed=seed)
        vocab = Vocabulary(N)
        denoiser, _ = model.train(
            labeled.sequences, loss.LossSpec("udlm_continuous"),
            kind="uniform", vocab=vocab, d=32, n_layers=1, epochs=1,
            batch_size=256, lr=0.02, seed=seed + 1)
        classifier, _ = model.train_classifier(
            labeled, vocab=vocab, num_classes=N, d=32, epochs=4,
            batch_size=256, lr=0.02, seed=seed + 2)
        return SimpleNamespace(seed=seed, labeled=labeled, denoiser=denoiser,
                               classifier=classifier)

    def fingerprint(self, state):
        return digest(state.labeled.sequences,
                      params_digest(state.denoiser, state.classifier))

    def cycle(self, state, index):
        ops = []
        sizes = self.tiny_sizes if self.tiny else self.sizes
        steps = 4 if self.tiny else self.steps
        for j, num in enumerate(sizes):
            seed = op_seed(state.seed, index, j)
            label = int(np.random.default_rng(seed).integers(N))
            request = sampler.SampleRequest(
                num, L, steps, GuidanceConfig(self.mode, gamma=self.gamma,
                                              target_class=label), seed=seed)
            ops.append(Op(self.mode, num, functools.partial(
                _generate, request, state.denoiser, state.classifier)))
        return _shuffled(state.seed, index, ops)

    def check_op(self, state, op, output):
        return _tokens_in_range(output, op.items, N)

    def checks(self, state, done):
        seqs, wanted = [], []
        for _, op, tokens in done:
            if isinstance(tokens, np.ndarray):
                request = op.run.args[0]
                seqs.append(tokens)
                wanted += [request.guidance.target_class] * tokens.shape[0]
        report = metrics.control_accuracy(
            np.concatenate(seqs), np.array(wanted),
            lambda s: rule_label(s, RULE, N, N), N)
        chance = 1.0 / N
        return [Check(f"{self.name}.control_beats_chance",
                      report.accuracy > chance,
                      f"accuracy={report.accuracy:.4f} chance={chance:.4f} "
                      f"over {len(wanted)} sequences")]


class CbgExact(Guided):
    name = "cbg_exact"
    mode = "cbg_exact"
    sizes = (2, 3, 4)
    tiny_sizes = (2,)


class CbgTaylor(Guided):
    name = "cbg_taylor"
    mode = "cbg_taylor"
    sizes = (8, 16, 32)
    tiny_sizes = (8,)


# ------------------------------------------------------------------- eval

NELBO_LINE = re.compile(r"^nelbo_nats_per_seq = (\S+)$", re.M)


def run_eval(argv: list) -> float:
    """cli.main in process; returns the printed NELBO, NaN on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    found = NELBO_LINE.search(out.getvalue())
    if code != 0 or found is None:
        return float("nan")
    return float(found.group(1))


class Eval(Workload):
    """`catdiff eval` through cli.main on a checkpoint and data file
    written in set-up: checkpoint load, data load, then one denoiser call
    per latent."""

    mode = ""
    grid = 16  # T of the discrete-time NELBO

    def check_op(self, state, op, output):
        return bool(np.isfinite(output) and output >= 0.0)

    def argv(self, state, data_path, seed):
        return ["eval", "--checkpoint", state.checkpoint, "--data", data_path,
                "--T", str(self.grid), "--mode", self.mode,
                "--seed", str(seed)]

    def fingerprint(self, state):
        files = [state.checkpoint] + list(state.data)
        h = hashlib.sha256()
        for path in files:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


class EvalMc(Eval):
    name = "eval_mc"
    mode = "mc"

    def setup(self, seed, workdir):
        data = skewed_corpus(seed, N, L, 2048 + (16 if self.tiny else 128))
        corpus = data.sequences[:2048]
        held = Dataset(data.sequences[2048:])
        vocab = Vocabulary(N)
        params, _ = model.train(
            corpus, loss.LossSpec("udlm_continuous"),
            kind="uniform", vocab=vocab, d=32, n_layers=1, epochs=2,
            batch_size=256, lr=0.02, seed=seed + 2)
        os.makedirs(workdir, exist_ok=True)
        checkpoint = os.path.join(workdir, "denoiser.json")
        data = os.path.join(workdir, "heldout.txt")
        save_checkpoint(params, checkpoint)
        save_text_dataset(data, held, vocab)
        return SimpleNamespace(seed=seed, checkpoint=checkpoint, data=[data],
                               count=held.count)

    def cycle(self, state, index):
        argv = self.argv(state, state.data[0], op_seed(state.seed, index))
        argv += ["--mc-samples", "4"]
        return [Op("eval_mc", state.count, functools.partial(run_eval, argv))]


class EvalExact(Eval):
    name = "eval_exact"
    mode = "exact"
    n, length, files = 4, 5, 4

    def setup(self, seed, workdir):
        data = skewed_corpus(seed, self.n, self.length, 1024 + self.files)
        corpus = data.sequences[:1024]
        held = data.sequences[1024:]
        vocab = Vocabulary(self.n)
        params, _ = model.train(
            corpus, loss.LossSpec("udlm_continuous"),
            kind="uniform", vocab=vocab, d=16, n_layers=1, epochs=2,
            batch_size=256, lr=0.02, seed=seed + 2)
        os.makedirs(workdir, exist_ok=True)
        checkpoint = os.path.join(workdir, "tiny.json")
        save_checkpoint(params, checkpoint)
        data = []
        for k, row in enumerate(held):
            path = os.path.join(workdir, f"seq{k}.txt")
            save_text_dataset(path, Dataset(row[None, :]), vocab)
            data.append(path)
        return SimpleNamespace(seed=seed, checkpoint=checkpoint, data=data,
                               rows=held)

    @property
    def grid(self) -> int:
        return 2 if self.tiny else 4

    def cycle(self, state, index):
        ops = [Op(self.name, 1, functools.partial(
                   run_eval, self.argv(state, path, 0)))
               for path in state.data]
        return _shuffled(state.seed, index, ops)

    def checks(self, state, done):
        """The CLI's value for one file equals a direct exact NELBO call
        on that file's sequence."""
        _, op, cli_value = done[0]
        argv = op.run.args[0]
        row = state.rows[state.data.index(argv[argv.index("--data") + 1])]
        params = load_checkpoint(state.checkpoint)
        direct = loss.nelbo_discrete(row, params, self.grid,
                                     PriorSpec.uniform(self.n),
                                     params.schedule, mode="exact")
        close = abs(cli_value - direct) <= 1e-9 * max(1.0, abs(direct))
        return [Check("eval_exact.cli_matches_direct", bool(close),
                      f"cli={cli_value:.12g} direct={direct:.12g}")]


# ----------------------------------------------------------- per sequence

class PerSequence(Workload):
    """Every hot call handles one sequence: exact and Taylor classifier
    guidance at T = 16, and `catdiff eval` in mc and exact mode through
    cli.main. One cycle gives each of the four parts a similar share of
    the time (about 2 s each), so a speed-up of any part shows."""

    name = "per_sequence"
    nominal_cycle_s = 9.0
    # (part, repeats per cycle)
    parts = ((CbgExact, 1), (CbgTaylor, 4), (EvalMc, 8), (EvalExact, 1))

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        self.subs = [(cls(tiny), repeats) for cls, repeats in self.parts]
        self.by_kind = {sub.name: sub for sub, _ in self.subs}

    def setup(self, seed, workdir):
        guided = self.subs[0][0].setup(seed, workdir)
        states = {}
        for sub, _ in self.subs:
            if isinstance(sub, Guided):
                states[sub.name] = guided  # both guidance modes share models
            else:
                states[sub.name] = sub.setup(seed, os.path.join(workdir,
                                                                sub.name))
        return SimpleNamespace(seed=seed, parts=states)

    def fingerprint(self, state):
        return digest([sub.fingerprint(state.parts[sub.name])
                       for sub, _ in self.subs])

    def cycle(self, state, index):
        ops = []
        for sub, repeats in self.subs:
            for r in range(repeats):
                ops += sub.cycle(state.parts[sub.name], index * repeats + r)
        return _shuffled(state.seed, index, ops)

    def check_op(self, state, op, output):
        return self.by_kind[op.kind].check_op(state.parts[op.kind], op, output)

    def checks(self, state, done):
        out = []
        for sub, _ in self.subs:
            mine = [d for d in done if d[1].kind == sub.name]
            out += sub.checks(state.parts[sub.name], mine)
        return out


WORKLOADS = {w.name: w for w in (Train, Sample, PerSequence)}
