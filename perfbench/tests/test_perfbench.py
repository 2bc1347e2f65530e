"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Tiny-size smoke runs of every workload through the one command, in
both modes, plus checks that ``BENCHMARK.json`` names exactly what the
command prints.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        run.WORKLOAD_NAMES
    )
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER_METRICS.items()
    }
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == {
        name: better
        for name, (_, better) in layers.PER_LAYER_METRICS.items()
    }
    assert run.REFERENCE_SEED == workloads.DEFAULT_SEED


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in listed}
    if trace:
        spans = ROOT / ".perfbench-out" / f"{workload}.spans.jsonl"
        from repro.obs.trace import build_span_tree

        assert build_span_tree(spans).nodes


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(tmp_path, "fig5-quick", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _rep(units):
    return {"part": "g", "units": units}


def test_divergent_and_failing_units_count_as_failed():
    reference = {
        "seed": 7,
        "parts": [{
            "part": "g",
            "units": {
                "g/a/o": {"cycles": 1.0, "stats": [1] * 6},
                "g/b/o": {"cycles": 2.0, "stats": [2] * 6},
            },
        }],
    }
    good = {"cycles": 1.0, "stats": [1] * 6, "seeded": False}
    seeded = {"cycles": 9.0, "stats": [2] * 6, "seeded": True}
    # A seeded unit is only compared exactly at the reference seed.
    assert run.evaluate(
        [_rep({"g/a/o": good, "g/b/o": seeded})], reference, 3
    )[:2] == (2, 0)
    assert run.evaluate(
        [_rep({"g/a/o": good, "g/b/o": seeded})], reference, 7
    )[:2] == (2, 1)
    # Runs of one seed must agree with each other.
    other = dict(seeded, cycles=8.0)
    assert run.evaluate(
        [_rep({"g/a/o": good, "g/b/o": seeded}),
         _rep({"g/a/o": good, "g/b/o": other})],
        reference, 3,
    )[:2] == (4, 1)
    broken = [
        _rep({"g/a/o": dict(good, cycles=1.5), "g/b/o": seeded}),
        _rep({"g/a/o": {"error": "ValueError: x"}, "g/b/o": seeded}),
        _rep({"g/a/o": dict(good, invalid="bad"), "g/b/o": seeded}),
        _rep({"g/b/o": seeded}),
        {"part": "g", "crash": "worker exited 1"},
    ]
    attempted, failed, problems = run.evaluate(broken, reference, 3)
    assert (attempted, failed) == (10, 6)
    assert len(problems) == 5


def test_guard_flags_a_layer_that_reads_zero():
    tracer = layers.Tracer()
    with tracer.span("ordering.compute", ordering="rcm",
                     dataset="g", edges=10):
        pass
    values = tracer.metrics(wall_s=1.0, load_s=0.0)
    problems = tracer.check(("ordering.compute", "perf.cell"), values,
                            wall_s=1.0)
    assert any("perf.cell recorded 0 calls" in p for p in problems)
    assert any("coverage bound" in p for p in problems)


def test_patching_a_renamed_function_fails_loudly():
    with pytest.raises(layers.AttributionError):
        layers.patch_everywhere(object(), lambda: None)
