"""Tests of the benchmark's own machinery.

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lassokit  # noqa: E402
from lassokit import DenseOperator, LassoProblem  # noqa: E402
from lassokit.probgen import gen_instance  # noqa: E402

import harness  # noqa: E402
from harness import (  # noqa: E402
    Family, ProductCounts, Workload, WORKLOADS, build_instances,
    counting_operator, make_tasks, run_loop, same_results, traced_solve,
)
from tracer import BINDINGS, original, resolve  # noqa: E402

FAMILIES = [(w, fi, fam) for w in WORKLOADS.values()
            for fi, fam in enumerate(w.families)]


def _solve(workload, problem, sigma):
    options = workload.options()
    if workload.entry == "bpdn":
        rep = lassokit.solve_bpdn(problem, sigma, options=options)
        return rep.x, rep.misfit, sum(p.iterations for p in rep.path)
    rep = lassokit.hybrid_solve(problem, options=options)
    return rep.x, rep.f, rep.iterations


@pytest.mark.parametrize("workload,fi,fam", FAMILIES,
                         ids=[fam.label for _, _, fam in FAMILIES])
def test_counting_operator_is_bit_identical_to_dense(workload, fi, fam):
    inst = gen_instance(fam.spec, harness.instance_seed(0, fi, 0))
    results = []
    for op in (DenseOperator(inst.a), counting_operator(inst.a, ProductCounts())):
        problem = LassoProblem(op=op, b=inst.b, tau=inst.tau, mu=fam.mu)
        results.append(_solve(workload, problem, inst.sigma))
    (x0, f0, it0), (x1, f1, it1) = results
    assert np.array_equal(x0, x1)
    assert f0 == f1
    assert it0 == it1


@pytest.mark.parametrize("solve", [lassokit.spg_solve, lassokit.hybrid_solve])
def test_tau_zero_solve_costs_one_forward_and_one_adjoint(solve):
    rng = np.random.default_rng(3)
    counts = ProductCounts()
    problem = LassoProblem(op=counting_operator(rng.normal(size=(8, 12)), counts),
                           b=rng.normal(size=8), tau=0.0)
    solve(problem)
    assert (counts.fwd, counts.adj, counts.col) == (1, 1, 0)


SMALL = (
    Workload("small_solve", "solve", (
        Family("sw128x256_g0.1_mu1e-3", harness._sphere(128, 256, 0.1, 10), 1e-3, 1),
        Family("sw128x256_g0.1_mu0", harness._sphere(128, 256, 0.1, 10), 0.0, 1),
    )),
    Workload("small_arc", "solve", (
        Family("gauss64x128", harness._gauss(64, 128, 10), 0.0, 1),
    ), line_search_mode="trajectory"),
    Workload("small_bpdn", "bpdn", (
        Family("sw200x500_g0.1_mu0", harness._sphere(200, 500, 0.1, 20), 0.0, 1),
    )),
)


@pytest.mark.parametrize("workload", SMALL, ids=[w.name for w in SMALL])
def test_traced_run_matches_untraced_and_restores_bindings(workload):
    before = [original(resolve(path), attr) for path, attr, _, _ in BINDINGS]
    counts = ProductCounts()
    instances = build_instances(workload, 5, counts, [])
    tasks = make_tasks(instances, 5)
    solve, traced = traced_solve(workload, tasks, counts)
    plain = run_loop(workload, tasks, counts, 0.0, solve=solve)

    after = [original(resolve(path), attr) for path, attr, _, _ in BINDINGS]
    assert all(a is b for a, b in zip(before, after))
    assert not plain.errors
    assert len(traced.outcomes) == len(plain.outcomes) == len(traced.solvers)
    for a, b in zip(plain.outcomes, traced.outcomes):
        assert same_results(a, b)
        assert a.f == b.f and np.array_equal(a.x, b.x)
        assert not b.failures and a.solved == b.solved

    # Self times of one solve's spans add up to its root span.
    tracer = traced.tracer
    spans = tracer.arrays()
    own = tracer.self_times()
    for sid in range(len(traced.solvers)):
        mine = spans["solve"] == sid
        root = mine & (spans["parent"] == -1)
        assert root.sum() == 1
        total = float((spans["end"] - spans["start"])[root][0])
        assert math.isclose(float(own[mine].sum()), total, rel_tol=1e-9)
    # The traced layers saw the products the counting operator counted.
    stats = tracer.stats(range(len(traced.solvers)))
    assert stats["model.product"][0] == sum(o.fwd + o.adj + o.col
                                            for o in traced.outcomes)


def test_same_seed_draws_the_same_instances():
    workload = WORKLOADS["bpdn_root"]
    first, again = (build_instances(workload, 9, ProductCounts(), [])
                    for _ in range(2))
    assert [i.seed for i in first] == [i.seed for i in again]
    for a, b in zip(first, again):
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == harness.per_layer_names()


def test_percentiles_average_the_samples_around_them():
    pct, value = harness.tail([float(v) for v in range(1, 41)])
    assert value == 30.0  # ten samples (31..40) lie beyond it
    assert pct == 75.0
    assert harness.median([float(v) for v in range(1, 41)]) == 20.5
    assert harness.median([9.0, 1.0, 2.0]) == 4.0  # fewer than 11: all count
    values = list(np.random.default_rng(1).exponential(size=59))
    pct, value = harness.tail(values)
    assert pct == pytest.approx(100.0 * 49 / 59)  # the 49th smallest
    assert value == pytest.approx(np.mean(sorted(values)[43:54]))
    assert harness.median(values) == pytest.approx(np.mean(sorted(values)[24:35]))
    assert harness.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _outcome(solver, seconds):
    return harness.Outcome(solver, seconds=seconds, status="optimal",
                           x=np.zeros(1), f=0.0, gap=0.0, tau=1.0,
                           fwd=1, adj=1, col=0, iterations=1)


def test_solve_times_are_scaled_to_the_fastest_probe():
    # Two tasks, six passes; the host runs three times slower from the
    # seventh solve on, and the solves and probes slow alike.
    outcomes = [_outcome(s, t * (1.0 if k < 6 else 3.0))
                for k, (s, t) in enumerate([("spg", 1.0), ("hybrid", 2.0)] * 6)]
    probes = [[0.1, 0.1]] * 6 + [[0.3, 0.3]] * 6
    loop = harness.LoopResult(outcomes, outcomes[:2], [], probes)
    assert loop.slowdowns() == pytest.approx([1.0] * 6 + [3.0] * 6)
    assert loop.task_seconds("spg") == pytest.approx([1.0])
    assert loop.task_seconds() == pytest.approx([1.0, 2.0])

    unprobed = harness.LoopResult(outcomes, outcomes[:2], [])
    assert unprobed.task_seconds("hybrid") == pytest.approx([(6.0 + 18.0) / 6])
