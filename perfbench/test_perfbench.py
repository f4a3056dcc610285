"""Tests of the benchmark itself: its target data, its correctness gates,
its seeding and its tracer.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import quiverstokes as qs  # noqa: E402
import quiverstokes.cli  # noqa: E402,F401

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DATA = wl.load_data()
A6_SOURCE = qs.an_stokes(6).evaluate(qs.joyce_point(6))


def build(name, seed=1):
    return wl.WORKLOADS[name](qs, random.Random(seed), DATA)


@pytest.mark.parametrize("k", range(len(DATA["a6_targets"]["targets"])))
def test_a6_target_is_found_at_level_6_and_replays(k):
    target = DATA["a6_targets"]["targets"][k]
    res = qs.orbit_search(A6_SOURCE, target["matrix"], wl.ORBIT_DEPTH,
                          wl.ORBIT_ENTRY_BOUND)
    assert res.status == "found"
    assert res.depth_reached == DATA["a6_targets"]["level"] == 6
    assert res.states == target["states"]
    expected = tuple(tuple(Fraction(x) for x in row) for row in target["matrix"])
    assert res.certificate.word.apply(A6_SOURCE) == expected


def test_a6_target_data_has_nine_classes_at_level_6_of_2401():
    data = DATA["a6_targets"]
    assert data["orbit_classes"] == 2401
    assert data["classes_at_level"] == len(data["targets"]) == 9


def test_disguised_orbit_query_passes_its_gate():
    q = build("orbit_a6", seed=3)[0]
    assert q.check(q.run()) is None


def test_orbit_gate_rejects_a_wrong_replay():
    q = build("orbit_a6", seed=3)[0]
    res, replayed = q.run()
    assert "does not carry" in q.check((res, A6_SOURCE))


@pytest.mark.parametrize("name", ["orbit_a6", "braid_relations", "good_quivers"])
def test_seed_fixes_the_inputs(name):
    labels = lambda seed: [q.label for q in build(name, seed)]  # noqa: E731
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def test_braid_relation_queries_pass():
    for q in build("braid_relations", seed=2):
        assert q.check(q.run()) is None, q.label


def test_rank5_good_quiver_queries_match_the_record():
    for q in build("good_quivers", seed=4):
        if "-5-" in q.label:
            assert q.check(q.run()) is None, q.label


def test_good_quiver_gate_rejects_a_different_solution_set():
    q = next(q for q in build("good_quivers") if q.label.startswith("triangular-5-p3"))
    sols = q.run()
    assert q.check(sols[:-1]) is not None


def test_paper_replay_passes_and_gate_rejects_changed_bytes():
    q = build("paper_replay")[0]
    code, text = q.run()
    assert q.check((code, text)) is None
    assert "differs" in q.check((code, text.replace('"ok": true', '"ok":  true', 1)))
    assert q.check((1, text)) == "exit code 1"


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(list(range(1, 41))) == (30, 75.0, 10)
    assert bench.tail([3, 1, 2]) == (3, 100.0, 0)


def traced_metrics(queries):
    tracer = tracing.Tracer()
    passes = bench.measure(queries, 1, tracer)
    assert [p[0] for p in passes] == [False, True]
    return tracer, tracer.metrics([passes[1][1]], [passes[0][1]])


def test_self_times_and_unattributed_add_up_to_the_traced_wall():
    queries = build("braid_relations")[:4] + [
        q for q in build("good_quivers") if q.label.startswith("triangular-5")]
    tracer, metrics = traced_metrics(queries)
    assert set(metrics) == set(tracing.METRICS)
    parts = sum(m["value"] for name, m in metrics.items()
                if name.endswith("self_s") or name == "trace.unattributed_s")
    assert parts == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["braid.beta.calls"]["value"] > 0
    assert metrics["goodness.epsilon.accept_ratio"]["value"] > 0
    assert tracer.spans and not tracer._installed


def test_wrapping_reaches_modules_that_imported_by_name():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qs.verify.stokes_product is qs.stokes.stokes_product
        assert qs.stokes_product is qs.stokes.stokes_product
        assert qs.stokes.stokes_product.__wrapped__ is not None
        assert qs.cli.dumps is qs.serialize.dumps
    finally:
        tracer.uninstall()
    assert not hasattr(qs.stokes.stokes_product, "__wrapped__")


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(qs._kernels, "sign_canonical")
    tracer, metrics = traced_metrics(build("braid_relations")[:2])
    assert tracer.missing == ["quiverstokes._kernels.sign_canonical"]
    assert "kernels.sign_canonical.calls" not in metrics
    assert "kernels.expand_frontier.self_s" in metrics


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "orbit_a6", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_description_lists_every_metric():
    desc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in desc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in desc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in desc["per_layer"]} == {
        name: spec[:2] for name, spec in tracing.METRICS.items()}


def test_benchmark_names_and_units_are_well_formed():
    desc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = desc["end_to_end"] + desc["per_layer"]
    names = [m["name"] for m in desc["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in desc["end_to_end"])
