"""Tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs at tiny size in a fresh process, the way the benchmark
is invoked; the wrapper tests run in process.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNT_SUFFIXES = (".calls", ".rows", ".fail", ".bytes", "autodiff.nodes",
                  "guidance.classifier_rows")


def run(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def tiny(workload, trace, seed=3):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks_and_counts_repeat(workload):
    untraced = tiny(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} \
        == declared("end_to_end")
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    first, second = tiny(workload, 1), tiny(workload, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == declared("per_layer")
    counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})


def test_declared_per_layer_metrics_are_the_traced_ones():
    assert dict(spans.per_layer_names()) == declared("per_layer")


def test_metric_map_covers_every_metric():
    import fnmatch

    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)
    patterns = [p for row in mapping["per_layer"] for p in row["metrics"]]
    for name in declared("per_layer"):
        assert any(fnmatch.fnmatchcase(name, p) for p in patterns), name
    for alias in mapping["end_to_end_aliases"].values():
        assert alias["metric"] in declared("end_to_end")
        assert alias["workload"] in WORKLOADS
    for part in mapping["part_rates"].values():
        assert part["workload"] in WORKLOADS
    for row in mapping["per_layer"]:
        assert set(row["on"] + row["flat_on"]) <= set(WORKLOADS)


def _snapshot():
    import catdiff.autodiff
    import catdiff.cli
    import catdiff.loss
    import catdiff.model
    import catdiff.sampler

    out = {}
    for owner in (catdiff.autodiff, catdiff.cli, catdiff.loss, catdiff.model,
                  catdiff.sampler, catdiff.model.AdamState,
                  catdiff.autodiff.Node):
        for key, value in vars(owner).items():
            out[(owner.__name__, key)] = value
    return out


def test_wrappers_restore_catdiff_exactly():
    import numpy as np

    from catdiff import model, sampler
    from catdiff.core import Vocabulary

    before = _snapshot()
    tracer = spans.Tracer()
    params = model.init_denoiser(Vocabulary(4), 5, 0, 8, kind="uniform",
                                 seed=0)
    request = sampler.SampleRequest(3, 5, 2, seed=0)
    plain, _ = sampler.generate(request, params)
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert sampler.posterior_matrix is not before[
                ("catdiff.sampler", "posterior_matrix")]
            traced, _ = sampler.generate(request, params)
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert np.array_equal(plain, traced)

    names = tracer.names
    assert names[0] == "sampler.generate" and tracer.parent[0] == -1
    assert names.count("sampler.generate") == 1
    assert names.count("model.denoise_batch") == 2
    child = names.index("model.denoise_batch")
    assert tracer.parent[child] == 0
    self_s = tracer.self_times()
    assert all(s >= 0 for s in self_s)
    assert self_s[0] < tracer.end[0] - tracer.start[0]
    assert tracer.counters["autodiff.nodes"] > 0


def test_failed_call_is_recorded_and_reraised():
    from catdiff import model

    tracer = spans.Tracer()
    with spans.installed(tracer):
        with pytest.raises(AttributeError):
            model.denoise_batch(None, [[0]], 0.5, None)
    metrics = tracer.metrics(1.0, 0.0)
    assert metrics["model.denoise_batch.calls"] == 1
    assert metrics["model.denoise_batch.fail"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
