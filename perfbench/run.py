"""catdiff benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. The workload runs in
this one process as a single closed-loop client: each operation starts
when the previous one has returned. BLAS is pinned to one thread.

Set-up (corpora, trained models, checkpoint and data files, all derived
from --seed) is repeated five times, and more while the repeats have
taken under two seconds; ``setup_s`` is the median and the products must
all be identical. Then:

* --trace 0 runs whole cycles of the workload until --seconds have passed
  and prints the end-to-end metrics. Every cycle holds the same shapes
  of work, so whole cycles give every seed the same mix. ``op_p50_ms``
  is the geometric mean over operation shapes of each shape's median
  operation time.
* --trace 1 runs a fixed number of cycles (a third of --seconds at the
  workload's nominal cycle time, so counts repeat exactly at one seed)
  twice on two set-up copies, untraced and then with spans installed,
  checks that both produce byte-identical outputs, and prints the
  per-layer metrics.

Every output is checked after the timed region. The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
Spans and the run record are written under .perfbench_out/ at the root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = 1  # steadier and faster than 2 at these matrix sizes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# cheap set-ups repeat until this much set-up time, so their median
# rests on more samples than a few milliseconds of timer noise
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 60
MIN_CYCLES = 2  # the training check compares the first and last pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small requests, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import catdiff from <root>/src; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "catdiff", "__init__.py")):
        raise SystemExit(f"error: no catdiff sources under {src}")
    sys.path.insert(0, src)
    import catdiff

    where = os.path.dirname(os.path.abspath(catdiff.__file__))
    if where != os.path.join(src, "catdiff"):
        raise SystemExit(f"error: imported catdiff from {where}, not {src}")


def _openblas():
    """The loaded OpenBLAS library and its (prefix, suffix) of symbol
    names, or (None, None)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "64_"), ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                return lib, (prefix, suffix)
    return None, None


def pin_blas(np) -> dict:
    """Set BLAS to BLAS_THREADS threads in this process and report what
    the library says it uses."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "env": {k: os.environ.get(k) for k in BLAS_ENV}}
    lib, symbols = _openblas()
    if lib is not None:
        prefix, suffix = symbols
        getattr(lib, f"{prefix}set_num_threads{suffix}")(BLAS_THREADS)
        out["threads"] = getattr(lib, f"{prefix}get_num_threads{suffix}")()
        config = getattr(lib, f"{prefix}get_config{suffix}", None)
        if config is not None:
            config.restype = ctypes.c_char_p
            out["config"] = config().decode()
    return out


def commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/catdiff/*.py, which names the code measured even
    in a checkout without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "catdiff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Pass:
    """Outputs and timings of one sequence of operations."""

    def __init__(self) -> None:
        self.done = []        # (cycle index, op, output)
        self.op_s = []
        self.items = 0
        self.failed = 0
        self.cycles = 0

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)


def run_ops(workload, state, *, seconds=None, cycles=None) -> Pass:
    """Whole cycles until `seconds` have been spent in operations (at
    least MIN_CYCLES), or exactly `cycles` cycles."""
    out = Pass()
    while True:
        for op in workload.cycle(state, out.cycles):
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                output = None
            out.op_s.append(time.perf_counter() - start)
            if output is None or not workload.check_op(state, op, output):
                out.failed += 1
            out.done.append((out.cycles, op, output))
            out.items += op.items
        out.cycles += 1
        if cycles is not None:
            if out.cycles >= cycles:
                return out
        elif out.cycles >= MIN_CYCLES and out.wall_s >= seconds:
            return out


def pass_digest(workloads, workload, state, result: Pass) -> str:
    return workloads.digest([out for _, _, out in result.done],
                            workload.state_digest(state))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def shape_percentile(result: Pass, q: float) -> float:
    """Geometric mean, over the operation shapes (kind, items) of the run,
    of each shape's q-th percentile of operation time.

    A workload mixes shapes whose times differ several-fold; a percentile
    of the pooled times lands on the edge between two shapes and jumps
    between them from run to run. Per shape, every run sees the same
    number of operations (whole cycles), so each shape's percentile is
    steady, and the geometric mean weighs every shape alike."""
    times = {}
    for (_, op, _), op_s in zip(result.done, result.op_s):
        times.setdefault((op.kind, op.items), []).append(op_s)
    logs = [math.log(percentile(v, q)) for v in times.values()]
    return math.exp(sum(logs) / len(logs))


def shape_counts(result: Pass) -> dict:
    counts = {}
    for _, op, _ in result.done:
        key = f"{op.kind}x{op.items}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def kind_rates(result: Pass) -> dict:
    """Items per second of operation time, per operation kind."""
    items, seconds = {}, {}
    for (_, op, _), op_s in zip(result.done, result.op_s):
        items[op.kind] = items.get(op.kind, 0) + op.items
        seconds[op.kind] = seconds.get(op.kind, 0.0) + op_s
    return {kind: items[kind] / seconds[kind] for kind in items}


def load_map() -> dict:
    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    blas = pin_blas(np)
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    checks = []
    try:
        states, setup_s, prints = [], [], set()
        while len(setup_s) < SETUP_REPEATS or (
                sum(setup_s) < SETUP_MIN_S
                and len(setup_s) < SETUP_MAX_REPEATS):
            where = os.path.join(workdir, f"setup{len(setup_s)}")
            start = time.perf_counter()
            product = workload.setup(args.seed, where)
            setup_s.append(time.perf_counter() - start)
            prints.add(workload.fingerprint(product))
            states = (states + [product])[-3:]
        checks.append(workloads.Check(
            "setup.deterministic", len(prints) == 1,
            f"{len(setup_s)} set-ups, {len(prints)} distinct products"))
        # warm up on a set-up copy that nothing below uses; the traced
        # run replays its plan on two further copies
        workload.cycle(states[0], 0)[0].run()
        ref_state, state = states[-2], states[-1]
        del states

        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "setup_repeats": len(setup_s),
                  "setup_s": setup_s}
        if args.trace:
            cycles = max(MIN_CYCLES, math.ceil(
                args.seconds / 3 / workload.nominal_cycle_s))
            ref = run_ops(workload, ref_state, cycles=cycles)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                result = run_ops(workload, state, cycles=cycles)
            same = (pass_digest(workloads, workload, ref_state, ref)
                    == pass_digest(workloads, workload, state, result))
            checks.append(workloads.Check(
                "trace.replay_identical", same,
                "traced outputs and state equal the untraced pass's"))
            overhead = result.wall_s / ref.wall_s - 1.0
            values = tracer.metrics(result.wall_s, overhead)
            expected = (workloads.L * workloads.N
                        * values["guidance.cbg_exact.calls"]
                        + values["guidance.cbg_taylor.calls"])
            rows = values["guidance.classifier_rows"]
            checks.append(workloads.Check(
                "trace.classifier_rows", rows == expected,
                f"{rows} rows; L*N per cbg_exact call + 1 per cbg_taylor "
                f"call = {expected}"))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in spans.per_layer_names()}
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
            record["untraced_wall_s"] = ref.wall_s
            record["traced_wall_s"] = result.wall_s
            record["spans"] = len(tracer.names)
            record["top_self_s"] = sorted(
                ((name[:-len(".self_s")], v) for name, v in values.items()
                 if name.endswith(".self_s") and v > 0),
                key=lambda kv: -kv[1])[:8]
        else:
            result = run_ops(workload, state, seconds=args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "items_per_s": {"value": result.items / result.wall_s,
                                "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * shape_percentile(result, 0.5),
                              "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        checks += workload.checks(state, result.done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = sum(not c.passed for c in checks)
    record.update({
        "commit": commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "cycles": result.cycles, "ops": len(result.op_s),
        "items": result.items, "percentiles": "linear interpolation over "
        "the per-operation wall times of each operation shape (kind, "
        "items), geometric mean over shapes; 'shape_ops' samples per shape",
        "shape_ops": shape_counts(result),
        "op_p90_ms": 1e3 * shape_percentile(result, 0.9),
        "kind_items_per_s": kind_rates(result),
        "failed_ops": result.failed, "client": "closed loop, one client "
        "in one process", "checks": [vars(c) for c in checks],
    })
    mapping = load_map()
    aliases = mapping["end_to_end_aliases"]
    by_kind = {v["kind"]: k for k, v in mapping["part_rates"].items()
               if v["workload"] == args.workload}
    for check in checks:
        print(f"check {check.name} {'PASS' if check.passed else 'FAIL'} "
              f"({check.detail})")
    for name, entry in metrics.items():
        alias = [a for a, where in aliases.items()
                 if where == {"metric": name, "workload": args.workload}]
        note = f"  [{', '.join(alias)}]" if alias else ""
        print(f"metric {name} = {entry['value']!r} {entry['unit']}{note}")
    for kind, rate in record["kind_items_per_s"].items():
        note = f"  [{by_kind[kind]}]" if kind in by_kind else ""
        print(f"part {kind} = {rate!r} 1/s (not gated){note}")
    print(f"op_p90_ms = {record['op_p90_ms']!r} ms (not a gated metric: "
          f"per shape, {min(record['shape_ops'].values())} or more "
          "operations behind each percentile)")
    print(f"failed_frac = {result.failed + failed_checks} / {len(result.op_s)}"
          " (failed operations and checks over attempted operations)")
    print("record " + json.dumps(record))
    record["op_s"] = result.op_s
    record["op_kinds"] = [op.kind for _, op, _ in result.done]
    name = f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed_checks == 0 and result.failed == 0,
        "attempted": len(result.op_s),
        "failed": result.failed + failed_checks,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
