"""Paired benchmark runs of two source trees on one workload.

    python3 tools/bench_pair.py --parent DIR --change DIR --workload NAME \
        --pairs N --seed S --out BENCH_<name>.json

Runs ``perfbench/run.py --trace 0`` N times in each tree, alternating
which tree goes first (pair i runs both trees at seed S + i, the parent
first when i is even), each run in a fresh process from the tree's own
root. The gated metrics, their directions and the run length
(run_seconds) come from the change tree's BENCHMARK.json.

The output file holds, per workload, every run's record (its last JSON
line and its ``record`` line) and, per end-to-end metric, each side's
median, quartiles and IQR, the pairs the change won (ties count for
neither), and whether the gain rule holds: at least nine tenths of the
pairs won, a median difference larger than the parent's IQR, and no more
failed operations than the parent's. Running again with another workload
and the same --out adds that workload's entry and keeps the others.

Each run's record also holds its minor page faults (``minor_faults``,
from getrusage of the finished child), set-up and start-up included. A
tree whose training leaves glibc's mmap and trim thresholds dynamic
returns each step's freed arrays to the kernel and faults them in again,
and its train speed has followed the checkout's directory name; a tree
that fixes them should read the same from root paths of any length, and
its fault count shows whether it does. The file records any MALLOC_*
variable the runs saw, since those set the same thresholds.

Each tree's record also holds the wall time of a user's call, outside
the gated metrics: ``catdiff sample --num 1`` on a small checkpoint that
the tool trains once per tree in a temporary directory, timed
CLI_SAMPLE_REPEATS times per tree, alternating, each in a fresh process
at OpenBLAS's default thread count (perfbench pins it to one thread).
Import and start-up are part of it, as they are for the user.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time

CLI_SAMPLE_REPEATS = 5
# the checkpoint the CLI call samples from: perfbench's sample shapes
# (N 6, L 16, d 48, two layers), one short epoch of training
CLI_TRAIN_CONFIG = """kind = uniform
n = 6
length = 16
d_hidden = 48
n_layers = 2
objective = udlm_continuous
epochs = 1
batch = 64
lr = 0.01
data = {data}
"""
CLI_SAMPLE_ARGS = ["--num", "1", "--steps", "64"]
# variables that would pin the BLAS thread count of the CLI call
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="baseline tree")
    parser.add_argument("--change", required=True, help="changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
    return args


def quartiles(values) -> tuple:
    """(q1, median, q3) by linear interpolation between closest ranks,
    as perfbench computes its percentiles."""
    ordered = sorted(values)

    def at(q):
        pos = (len(ordered) - 1) * q
        lo, hi = math.floor(pos), math.ceil(pos)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def git_commit(tree: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its last JSON line, with
    the ``record`` line's fields under "record" and the run's minor page
    faults under "minor_faults"."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = next(json.loads(line[len("record "):])
                            for line in lines if line.startswith("record "))
    result["minor_faults"] = faults
    return result


def _cli(tree: str, workdir: str, args: list) -> float:
    """Wall seconds of ``python -m catdiff.cli ARGS`` from ``tree``'s
    source in a fresh process, BLAS threads unpinned."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    cmd = [sys.executable, "-m", "catdiff.cli"] + args
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} from {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall


def cli_sample_times(trees: dict) -> dict:
    """Per tree: its own trained checkpoint, then CLI_SAMPLE_REPEATS timed
    ``catdiff sample --num 1`` calls, the trees alternating."""
    rng = random.Random(0)
    corpus = "".join("".join(rng.choice("abcdef") for _ in range(16)) + "\n"
                     for _ in range(256))
    out = {side: {"argv": ["sample"] + CLI_SAMPLE_ARGS, "wall_s": []}
           for side in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in trees.items():
            work = os.path.join(tmp, side)
            os.mkdir(work)
            with open(os.path.join(work, "data.txt"), "w") as fh:
                fh.write(corpus)
            with open(os.path.join(work, "train.cfg"), "w") as fh:
                fh.write(CLI_TRAIN_CONFIG.format(data="data.txt"))
            _cli(tree, work, ["train", "--config", "train.cfg",
                              "--out", "ckpt.json"])
        for i in range(CLI_SAMPLE_REPEATS):
            for side in (trees if i % 2 == 0 else list(trees)[::-1]):
                out[side]["wall_s"].append(_cli(
                    trees[side], os.path.join(tmp, side),
                    ["sample", "--checkpoint", "ckpt.json", "--out",
                     "samples.txt", "--seed", str(i)] + CLI_SAMPLE_ARGS))
    for record in out.values():
        record["median_s"] = quartiles(record["wall_s"])[1]
    return out


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' quartiles and IQR, the pairs the
    change won, and the gain rule, which a change that fails more
    operations than the parent never meets."""
    failed = {side: sum(r[side]["failed"] for r in runs)
              for side in ("parent", "change")}
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {}
        for side in ("parent", "change"):
            values = [r[side]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            sides[side] = {"values": values, "median": med, "q1": q1,
                           "q3": q3, "iqr": q3 - q1}
        parent, change = sides["parent"], sides["change"]
        won = sum((c > p) if higher else (c < p) for p, c in
                  zip(parent["values"], change["values"]))
        gain = change["median"] - parent["median"]
        if not higher:
            gain = -gain
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **{f"{side}_{k}": v
                                         for side, s in sides.items()
                                         for k, v in s.items()},
            "pairs": len(runs), "pairs_won": won,
            "median_gain_frac": gain / parent["median"],
            "gain_rule_holds": (won >= 0.9 * len(runs)
                                and gain > parent["iqr"]
                                and failed["change"] <= failed["parent"]),
            "worse_than_bound": -gain / parent["median"] > metric["bound"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": args.seed + i, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, args.seed + i,
                                  seconds)
            value = pair[side]["metrics"]["items_per_s"]["value"]
            print(f"pair {i} seed {args.seed + i} {side}: items_per_s "
                  f"{value:.1f}, minor faults {pair[side]['minor_faults']}",
                  flush=True)
        runs.append(pair)
    cli_sample = cli_sample_times(trees)
    entry = {
        "seconds": seconds, "pairs": args.pairs, "first_seed": args.seed,
        "trees": {side: {
            "dir": os.path.basename(path),
            "commit": runs[0][side]["record"]["commit"] or git_commit(path),
            "src_sha256": runs[0][side]["record"]["src_sha256"],
            "cli_sample": cli_sample[side]}
            for side, path in trees.items()},
        # glibc's heap thresholds move the train workload's speed
        "malloc_env": {k: v for k, v in os.environ.items()
                       if k.startswith("MALLOC_")},
        "failed_ops": {side: sum(r[side]["failed"] for r in runs)
                       for side in trees},
        "attempted_ops": {side: sum(r[side]["attempted"] for r in runs)
                          for side in trees},
        "metrics": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    first = runs[0]["change"]["record"]
    doc = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["host"] = {"nproc": first["nproc"],
                   "cpu_affinity": first["cpu_affinity"],
                   "python": platform.python_version(),
                   "numpy": first["numpy"], "blas": first["blas"]}
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        print(f"{args.workload} {name}: parent {m['parent_median']:.4g} "
              f"(IQR {m['parent_iqr']:.3g}), change {m['change_median']:.4g}"
              f" (IQR {m['change_iqr']:.3g}), won {m['pairs_won']}/"
              f"{m['pairs']}, gain rule {m['gain_rule_holds']}")
    print("catdiff sample --num 1 wall s: " + ", ".join(
        f"{side} {record['median_s']:.4g}"
        for side, record in cli_sample.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
