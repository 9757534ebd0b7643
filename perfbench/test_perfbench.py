"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q perfbench

The seed-invariance tests run one traced pass of each workload per seed,
which takes a few minutes in all; select one with -k.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from decomp import axioms, ingest, presheaf  # noqa: E402

COUNTS = [m for m, unit in tracing.LAYER_METRICS if unit in ("count", "bytes", "ratio")]


def traced_pass(workload, seed, tmp_path):
    fixture = workload.setup(seed, str(tmp_path))
    t = tracing.Tracer()
    p = workloads.Pass(t)
    t.begin_pass()
    t.install()
    try:
        workload.run_pass(fixture, p, str(tmp_path))
    finally:
        t.uninstall()
    return p, t.pass_metrics()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_names_but_not_answers_or_counts(name, tmp_path):
    """Verdicts, Mobius values (keyed by shape, not name) and digests agree
    across seeds, and so does every per-layer count."""
    workload = workloads.WORKLOADS[name]
    first, counts_first = traced_pass(workload, 3, tmp_path)
    second, counts_second = traced_pass(workload, 4, tmp_path)
    assert [o for o in first.ops if o.error] == []
    assert [o for o in second.ops if o.error] == []
    assert first.outcomes == second.outcomes
    assert {m: counts_first[m] for m in COUNTS} == {m: counts_second[m] for m in COUNTS}


def test_counts_repeat_within_a_run(tmp_path):
    workload = workloads.WORKLOADS["walkthrough"]
    _, once = traced_pass(workload, 5, tmp_path)
    _, again = traced_pass(workload, 5, tmp_path)
    assert {m: once[m] for m in COUNTS} == {m: again[m] for m in COUNTS}


def test_wrong_expected_answer_is_a_failed_op(monkeypatch):
    obj = workloads.PosetObject(workloads.corpus.box_poset("d12", (2, 1), 1), 6)
    monkeypatch.setattr(oracle, "mobius_value", lambda s: 7)
    p = workloads.Pass()
    workloads.certify_ops(p, obj)
    assert [o.name for o in p.ops if o.error] == ["d12/mobius"]
    assert p.op("raises", lambda: 1 // 0) is None
    assert [o.name for o in p.failed] == ["d12/mobius", "raises"]


def test_planted_counterexample_is_valid_but_not_exact():
    box = workloads.corpus.box_poset("planted", (3,), 1)
    X = ingest.nerve(box.spec, 6)
    name = box.name
    P = workloads.corpus.plant_missing_triangle(X, [name[(0,)], name[(1,)], name[(3,)]])
    assert presheaf.validate(P).status == "PASS"
    assert axioms.check_decomposition(P, "both").status == "FAIL"
    assert len(P.levels[2]) < len(X.levels[2])


def test_self_time_partitions_the_root_span():
    X = ingest.nerve(workloads.corpus.box_poset("d12", (2, 1), 1).spec)
    t = tracing.Tracer()
    originals = {attr: getattr(axioms, attr) for attr in ("check_decomposition",
                                                          "validate_sset")}
    t.begin_pass()
    t.install()
    try:
        axioms.check_decomposition(X, "both")
    finally:
        t.uninstall()
    assert {attr: getattr(axioms, attr) for attr in originals} == originals
    root = t.spans[0]
    assert root[0] == "axioms.decomposition" and root[3] is None
    metrics = t.pass_metrics()
    self_total = sum(v for m, v in metrics.items() if m.endswith("_s"))
    assert self_total == pytest.approx(root[2] - root[1])
    assert metrics["presheaf.validate_calls"] == 3
    assert all(v >= 0 for v in metrics.values())


def test_harrell_davis_quantile():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    values = [0.01, 0.02, 0.5, 0.6, 4.0]
    assert run.quantile(values, 0.5) < run.quantile(values, 0.9) < max(values)
    assert run._beta_cdf(0.5, 18.5, 18.5) == pytest.approx(0.5)
    assert run._beta_cdf(0.3, 3.5, 0.5) == pytest.approx(0.0049238042522, rel=1e-9)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    ops = [workloads.OpResult("a", 1.0), workloads.OpResult("b", 2.0)]
    one = workloads.Pass(ops=ops, reference=[0.5, 0.25, 1.0])
    reported = run.end_to_end({"setups": [1.0], "passes": [one], "peak_kb": 1024})
    assert reported["wall_ref"][0] == pytest.approx(6.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in reported.items()]


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
