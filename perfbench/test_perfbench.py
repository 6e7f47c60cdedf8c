"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import reference as ref
from run import percentile
from tracing import Spans, Tracer, self_times


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse((HERE / "reference.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.startswith("cdga_config")]


def test_s2xs3_reference_polynomial():
    assert ref.fm2_betti(*ref.PRESETS["s2xs3"]) == [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]


def test_kunneth_adds_dimensions_and_multiplies_polynomials():
    assert ref.kunneth("s2", "s3") == (5, [1, 0, 1, 1, 0, 1])
    assert ref.kunneth("point", "s2xs3") == ref.PRESETS["s2xs3"]


@pytest.mark.parametrize("name", ["s2", "s3", "cp2", "s2xs3", "s3xs4"])
def test_closed_form_matches_the_package(name):
    from cdga_config import algebra, cone, twisted
    from cdga_config.presets import preset_pd

    pd = preset_pd(name)
    mc = cone.cone_model(pd)
    top = mc.algebra.basis.max_degree()
    want = ref.fm2_betti(*ref.PRESETS[name])
    assert ref.same_betti(algebra.cohomology(mc.algebra).betti_vector(top), want)
    assert ref.same_betti(twisted.quotient_by_diagonal(pd).betti(top), want)
    assert sorted(mc.algebra.basis.degrees) == ref.cone_degrees(*ref.PRESETS[name])


def test_triple_counter_reproduces_the_roadmap_figures():
    degrees = ref.cone_degrees(*ref.kunneth("s2", "s2", "s2", "s3"))
    assert len(degrees) ** 3 == 20_123_648
    assert ref.triples_in_degree(degrees, 18) == 1_124_172
    degrees = ref.cone_degrees(*ref.kunneth("s2xs3", "s3xs4"))
    assert ref.triples_in_degree(degrees, 24) == 1_102_171


def test_triple_counter_agrees_with_brute_force():
    degrees = [0, 2, 2, 3, 5, 5, 7, 8]
    for top in (None, 0, 5, 9, 24):
        brute = sum(1 for i, j, k in itertools.product(degrees, repeat=3)
                    if top is None or i + j + k <= top)
        assert ref.triples_in_degree(degrees, top) == brute


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = Spans()
    spans.add("root", 0.0, 10.0, -1, 0)
    spans.add("a", 1.0, 4.0, 0, 0)
    spans.add("a.child", 2.0, 3.0, 1, 0)
    spans.add("b", 5.0, 9.0, 0, 0)
    spans.add("b.overlap", 8.5, 11.0, 3, 0)   # runs past its parent's end
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 2.5])


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile([3.0], 90) == 3.0


def test_tracer_wraps_everywhere_and_restores():
    from cdga_config import algebra, cone, poincare
    from cdga_config.presets import preset_pd

    original = algebra.check_cdga
    tracer = Tracer()
    tracer.install()
    try:
        assert algebra.check_cdga is not original
        assert cone.check_cdga is algebra.check_cdga
        tracer.job = 0
        pd = preset_pd("s2")
        cone.mapping_cone(poincare.shriek_map(pd))
        algebra.check_cdga(pd.algebra)
    finally:
        tracer.uninstall()
    assert algebra.check_cdga is original and cone.check_cdga is original
    names = [tracer.spans.name_of(i) for i in range(len(tracer.spans))]
    assert "cone.MappingCone" in names and "algebra.check_cdga" in names
    summary = tracer.summary(1)
    assert summary["algebra.check_cdga.calls"] == 1
    assert summary["algebra.check_cdga.triples_visited"] == 8
    assert summary["cone.dim"] == 6


def _cycles(workload, seed: int, count: int = 4):
    w = workload(seed)
    return [w.cycle(i) for i in range(count)]


@pytest.fixture(scope="module")
def workloads():
    import workloads

    return workloads


def test_generators_are_deterministic_and_depend_on_the_seed(workloads):
    for workload in workloads.WORKLOADS.values():
        assert _cycles(workload, 7) == _cycles(workload, 7)
        assert _cycles(workload, 7) != _cycles(workload, 8)


def test_twist_jobs_draw_six_distinct_values(workloads):
    for job in itertools.chain.from_iterable(_cycles(workloads.Twist, 3, 20)):
        assert len(set(job["qs"])) == 6 and job["t"] and job["a"] + job["b"]


def test_expected_status_covers_every_cli_call(workloads):
    for seed in range(5):
        for cycle in _cycles(workloads.Cli, seed) + [workloads.Cli(seed).warmup_jobs()]:
            keys = [key for key, _, _ in cycle]
            assert len(keys) == len(set(keys))
            assert set(keys) == set(workloads.EXPECTED_STATUS)


def test_benchmark_json_lists_what_a_traced_run_reports():
    import json

    from run import unit_of

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {name: unit_of(name) for name in Tracer().summary(1)}
    reported["trace.overhead_ratio"] = "ratio"
    reported["trace.jobs_per_s"] = "1/s"
    assert declared == reported
    assert [w["name"] for w in bench["workloads"]] == ["twist-family", "cli-presets"]


def test_best_jobs_per_s_takes_each_kinds_fastest_run():
    from run import best_jobs_per_s

    latencies = [2.0, 1.0, 3.0, 1.5, 4.0, 1.0]
    kinds = ["a", "b", "c", "a", "c", "b"]
    # best: a 1.5, b 1.0, c 3.0; six jobs at those latencies take 11 s
    assert best_jobs_per_s(latencies, kinds) == pytest.approx(6 / 11)
