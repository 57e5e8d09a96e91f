"""Tests of the benchmark itself (not of dspread).

    python3 -m pytest -q perfbench/tests

They run real traced and timed jobs on one chunk per workload, about
half a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# the workload meant to exercise each layer
EXERCISED_BY = {
    "graphs.parse_graph6": "analyze-n62",
    "graphs.distance_profile": "analyze-n62",
    "graphs.is_connected": "analyze-n62",
    "graphs.encode_graph6": "analyze-n62",
    "graphs.is_bipartite": "sweep-small",
    "matrices.generalized_distance_matrix": "analyze-n62",
    "eigen.sym_eigen": "analyze-n62",
    "bounds.EvalContext": "sweep-small",
    "bounds.EvalContext.values": "sweep-small",
    "bounds.clique_number": "bounds-mid",
    "bounds.evaluate_all": "sweep-small",
    "corpus.load_corpus": "sweep-small",
    "corpus.sweep": "sweep-small",
    "jsonfmt.json_text": "bounds-mid",
    "cli.main": "bounds-mid",
}


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """A traced pass over the workload's first chunk."""
    inputs = gen.make_jobs(workload, seed, work / "inputs")
    jobs = inputs["jobs"][:1]
    spec = {"src": str(run.SRC), "out_dir": str(work / "out"), "mode": "traced",
            "seconds": 1, "jobs": jobs, "warmup": inputs["warmup"]}
    child = run.run_jobs(spec, work, run.child_env())
    return {"child": child, "jobs": jobs, "warmup": inputs["warmup"], "out": work / "out"}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {w: traced_run(w, 7, tmp_path_factory.mktemp(w)) for w in gen.WORKLOADS}


def test_every_layer_is_named_in_benchmark_json():
    assert set(EXERCISED_BY) == set(spans.LAYERS)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for layer in spans.LAYERS:
        assert f"{layer}.calls" in names and f"{layer}.self_s" in names
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = gen.make_jobs("bounds-mid", 3, tmp_path / "a")["inputs"]
    b = gen.make_jobs("bounds-mid", 3, tmp_path / "b")["inputs"]
    c = gen.make_jobs("bounds-mid", 4, tmp_path / "c")["inputs"]
    assert a == b
    assert a != c


def test_graph6_writer_round_trips():
    edges = [(0, 1), (1, 2), (0, 6), (5, 6)]  # in graph6's column-major order
    assert gen.decode_graph6(gen.encode_graph6(7, edges)) == (7, edges)
    assert gen.encode_graph6(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"


def test_traced_counts_repeat_on_one_seed(traced, tmp_path):
    again = traced_run("sweep-small", 7, tmp_path)["child"]["trace"]
    first = traced["sweep-small"]["child"]["trace"]
    for key in ("calls", "sum_n3", "reports_built", "output_bytes"):
        assert again[key] == first[key]


def test_self_times_fit_in_traced_wall(traced):
    for t in traced.values():
        wall = sum(r["wall_s"] for r in t["child"]["records"] if r["phase"] == "traced")
        assert 0 < sum(t["child"]["trace"]["self_s"].values()) <= wall


def test_each_layer_is_exercised_by_its_workload(traced):
    for layer, workload in EXERCISED_BY.items():
        assert traced[workload]["child"]["trace"]["calls"][layer] >= 1, (layer, workload)


def test_per_layer_metrics_match_benchmark_json(traced):
    t = traced["sweep-small"]
    metrics = run.per_layer(t["child"]["trace"], t["child"]["records"], t["jobs"])
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["eigen.sym_eigen.calls"][0] == t["jobs"][0]["pairs"]
    assert metrics["bounds.reports_built"][0] == 17 * t["jobs"][0]["pairs"]


def test_missing_layer_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import dspread.graphs

    original = dspread.graphs.parse_graph6
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + ("graphs.no_such_function",))
    with pytest.raises(spans.LayerMissing, match="no_such_function"):
        spans.Tracer().install()
    assert dspread.graphs.parse_graph6 is original  # nothing was wrapped


def _corrupt(text: str) -> str:
    doc = json.loads(text)
    if doc["command"] == "sweep":
        doc["graphs_seen"] += 1
    else:
        doc["reports"][-1]["spectrum"][0] *= 1.0 + 1e-6
    return json.dumps(doc)


def test_failed_ratio_is_one_when_every_output_is_corrupted(traced, monkeypatch):
    for t in traced.values():
        records = t["child"]["records"]
        clean = run.check_records(records, t["jobs"], t["warmup"], t["out"])
        assert not any(clean)
    check = oracle.check_output
    monkeypatch.setattr(oracle, "check_output",
                        lambda job, rc, text: check(job, rc, _corrupt(text)))
    for t in traced.values():
        records = t["child"]["records"]
        verdicts = run.check_records(records, t["jobs"], t["warmup"], t["out"])
        assert sum(1 for v in verdicts if v) / len(records) == 1.0


def test_malformed_output_is_a_failed_check_not_a_crash(traced):
    job = traced["sweep-small"]["jobs"][0]
    for text in ("", "[]", '{"command": "sweep", "discrepancies": [{}]}'):
        assert oracle.check_output(job, 0, text)
    assert oracle.check_output(job, 4, "{}") == ["exit code 4, expected 0"]


def test_timed_run_reports_the_end_to_end_metrics():
    record = run.run_workload("sweep-small", 5, 1, trace=False)
    assert record["failed"] == 0
    metrics = record["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["inputs"] and record["seed"] == 5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
