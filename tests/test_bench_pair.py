"""The paired-run benchmark tool's statistics, without running the benchmark."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pair", os.path.join(ROOT, "tools", "bench_pair.py"))
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [{"name": "items_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower",
            "bound": 0.25}]


def _pairs(parent, change, change_failed=0):
    def side(v, failed=0):
        return {"metrics": {"items_per_s": {"value": v},
                            "op_p50_ms": {"value": 1000.0 / v}},
                "failed": failed}
    return [{"parent": side(p), "change": side(c, change_failed)}
            for p, c in zip(parent, change)]


def test_quartiles_interpolate_like_perfbench():
    assert bench_pair.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert bench_pair.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_summary_counts_pairs_and_applies_the_gain_rule():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    faster = [110, 111, 109, 112, 108, 110, 113, 107, 111, 110]
    out = bench_pair.summarize(_pairs(parent, faster), METRICS)
    items, p50 = out["items_per_s"], out["op_p50_ms"]
    assert items["pairs_won"] == p50["pairs_won"] == 10
    assert items["gain_rule_holds"] and p50["gain_rule_holds"]
    assert items["median_gain_frac"] == pytest.approx(0.1)
    assert not items["worse_than_bound"]
    # one lost pair of ten still meets nine tenths; two do not
    mixed = faster[:8] + [95, 96]
    assert bench_pair.summarize(_pairs(parent, mixed), METRICS)[
        "items_per_s"]["pairs_won"] == 8
    assert not bench_pair.summarize(_pairs(parent, mixed), METRICS)[
        "items_per_s"]["gain_rule_holds"]
    # a tie counts for neither side; a median inside the parent's IQR is
    # no gain even when every pair is won
    close = [p + 1 for p in parent]
    close[0] = parent[0]
    summary = bench_pair.summarize(_pairs(parent, close), METRICS)
    assert summary["items_per_s"]["pairs_won"] == 9
    assert not summary["items_per_s"]["gain_rule_holds"]
    # every pair won is no gain when the change fails more operations
    failing = bench_pair.summarize(_pairs(parent, faster, change_failed=1),
                                   METRICS)
    assert failing["items_per_s"]["pairs_won"] == 10
    assert not failing["items_per_s"]["gain_rule_holds"]
    slower = [p * 0.7 for p in parent]
    assert bench_pair.summarize(_pairs(parent, slower), METRICS)[
        "items_per_s"]["worse_than_bound"]


STUB_RUN = '''import json
blob = b"x" * (8 << 20)  # 2,048 pages written, so faulted in
print("record " + json.dumps({"commit": "abc", "src_sha256": "0" * 64,
                              "nproc": 2, "cpu_affinity": [0, 1],
                              "numpy": "2", "blas": "stub"}))
print(json.dumps({"metrics": {"items_per_s": {"value": 100.0},
                              "op_p50_ms": {"value": 10.0}},
                  "failed": 0, "attempted": 5}))
'''


# the CLI: train writes the checkpoint sample reads; each records the
# BLAS thread variables it saw
STUB_CLI = '''import json, os, sys
args = sys.argv[1:]
if args[0] == "sample":
    assert open(args[args.index("--checkpoint") + 1]).read() == "ckpt"
with open(args[args.index("--out") + 1], "w") as fh:
    fh.write("ckpt" if args[0] == "train" else "samples")
with open("seen.jsonl", "a") as fh:
    fh.write(json.dumps([args, os.environ.get("OPENBLAS_NUM_THREADS")])
             + "\\n")
'''


def _stub_tree(root):
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "perfbench", "run.py"), "w") as fh:
        fh.write(STUB_RUN)
    os.makedirs(os.path.join(root, "src", "catdiff"))
    open(os.path.join(root, "src", "catdiff", "__init__.py"), "w").close()
    with open(os.path.join(root, "src", "catdiff", "cli.py"), "w") as fh:
        fh.write(STUB_CLI)
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump({"run_seconds": 1, "end_to_end": METRICS}, fh)
    return str(root)


def test_runs_record_their_minor_page_faults(tmp_path):
    parent = _stub_tree(tmp_path / "parent")
    change = _stub_tree(tmp_path / "change")
    run = bench_pair.run_once(change, "train", 3, 1)
    assert run["record"]["commit"] == "abc"
    assert run["metrics"]["items_per_s"]["value"] == 100.0
    assert isinstance(run["minor_faults"], int)
    assert run["minor_faults"] >= 2048
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--parent", parent, "--change", change,
                            "--workload", "train", "--pairs", "2",
                            "--seed", "1", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["train"]
    assert all(r[side]["minor_faults"] >= 2048
               for r in entry["runs"] for side in ("parent", "change"))


def test_each_tree_records_a_cli_sample_outside_the_metrics(tmp_path,
                                                            monkeypatch):
    # the CLI calls run unpinned even when the tool's own process is
    # pinned, train once per tree, and time every sample call
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    seen = []
    real = bench_pair._cli

    def spy(tree, workdir, args):
        wall = real(tree, workdir, args)
        with open(os.path.join(workdir, "seen.jsonl")) as fh:
            seen.append(json.loads(fh.readlines()[-1]))
        return wall

    monkeypatch.setattr(bench_pair, "_cli", spy)
    parent = _stub_tree(tmp_path / "parent")
    change = _stub_tree(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--parent", parent, "--change", change,
                            "--workload", "sample", "--pairs", "1",
                            "--seed", "1", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["sample"]
    repeats = bench_pair.CLI_SAMPLE_REPEATS
    for side in ("parent", "change"):
        record = entry["trees"][side]["cli_sample"]
        assert record["argv"] == ["sample", "--num", "1", "--steps", "64"]
        assert len(record["wall_s"]) == repeats
        assert all(w > 0 for w in record["wall_s"])
        assert record["median_s"] == sorted(record["wall_s"])[repeats // 2]
    assert "cli_sample" not in entry["metrics"]
    assert [args[0] for args, _ in seen] == ["train"] * 2 + \
        ["sample"] * (2 * repeats)
    assert all(threads is None for _, threads in seen)
