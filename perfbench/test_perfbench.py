"""Tests of the benchmark's own machinery: spans, tracing and reference checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import hlsp.cascade
import hlsp.factorization
import hlsp.newton
from tracer import SpanRecorder, SpanTable, has_ancestor_in, instrumented, self_times


def synthetic_table():
    # solve(10) -> [rrqr(4) -> [apply(1)], apply(3) -> [apply(2)]]
    names = ["solve", "rrqr", "apply"]
    return SpanTable(
        names=names,
        name=np.array([0, 1, 2, 2, 2]),
        parent=np.array([-1, 0, 1, 0, 3]),
        solve=np.zeros(5, dtype=np.int64),
        duration=np.array([10.0, 4.0, 1.0, 3.0, 2.0]),
    )


def test_self_time_is_duration_minus_direct_children():
    table = synthetic_table()
    assert self_times(table.parent, table.duration).tolist() == [3.0, 3.0, 1.0, 1.0, 2.0]
    assert table.total_self("solve") == 3.0
    assert table.total_self("apply") == 4.0


def test_group_total_counts_nested_members_once():
    table = synthetic_table()
    # the nested apply (2 s inside the 3 s apply) is not counted twice, the
    # apply under rrqr has no apply ancestor and counts
    assert table.total("apply") == 4.0
    assert table.total("rrqr", "apply") == 7.0
    assert table.total("missing") == 0.0
    assert has_ancestor_in(table.parent, table.mask("apply")).tolist() == [
        False, False, False, False, True,
    ]
    assert table.child_counts("solve", "apply").tolist() == [1]


def test_recorder_links_nested_calls_to_their_parent():
    rec = SpanRecorder()

    def inner():
        return 1

    traced_inner = rec.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = rec.wrap("outer", outer)
    rec.begin_solve()
    assert traced_outer() == 2
    table = rec.table()
    assert table.parent.tolist() == [-1, 0, 0]
    assert table.solve.tolist() == [0, 0, 0]
    assert table.self_time[0] <= table.duration[0]
    assert np.all(table.self_time >= 0.0)


def test_instrumentation_rebinds_every_site_and_restores_it():
    originals = (hlsp.cascade.rrqr, hlsp.newton.rrqr, hlsp.cascade.validate_problem)
    rec = SpanRecorder()
    problem = harness.small_oracle_problem(0, 1)
    with instrumented(rec):
        assert hlsp.cascade.rrqr.__wrapped__ is originals[0]
        assert hlsp.newton.rrqr is hlsp.cascade.rrqr
        harness.solve(problem, "nf-ipm")
    assert (hlsp.cascade.rrqr, hlsp.newton.rrqr, hlsp.cascade.validate_problem) == originals
    assert hlsp.factorization.Rrqr.solve_basic.__name__ == "solve_basic"
    assert not hasattr(hlsp.factorization.Rrqr.solve_basic, "__wrapped__")
    table = rec.table()
    for name in (
        "cascade.solve_hlsp",
        "problem.validate_problem",
        "problem.tag_bound_rows",
        "factorization.rrqr",
        "newton.mehrotra_iteration",
        "factorization.Rrqr.solve_basic",
    ):
        assert table.count(name) > 0, name
    # rrqr called through newton's binding sits under the Newton iteration
    rrqr_parents = {table.names[table.name[p]] for p in table.parent[table.mask("factorization.rrqr")]}
    assert "newton.mehrotra_iteration" in rrqr_parents
    assert table.count("cascade.solve_hlsp") == 1


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_counters_and_outputs_equal_untraced(name):
    # one small problem of the workload's kind keeps the test fast
    small = {
        "small_oracle": harness.small_oracle_problem,
        "ineq_dense": lambda seed, i: harness.random_hlsp(
            seed, 12, [(2, 4, 1, "feasible"), (1, 5, 0, "mixed")]
        ),
        "eq_chain": lambda seed, i: harness.random_hlsp(
            seed, 12, [(3, 0, 1, "feasible")] * 3 + [(12, 0, 0, "feasible")]
        ),
    }
    workload = dataclasses.replace(
        harness.WORKLOADS[name], pool_size=1, generate=small[name]
    )
    problems = [workload.generate(7, i) for i in range(workload.pool_size)]
    refs = [workload.reference(p) for p in problems]
    rec = SpanRecorder()
    plain, traced, ledger = harness.timed_loop(workload, problems, refs, 0.0, rec)
    assert ledger.mismatches == []
    assert len(plain) == len(traced) == len(workload.methods)
    for a, b in zip(plain, traced):
        assert a.work == b.work
        assert a.ok == b.ok
        if a.report is not None:
            assert np.array_equal(a.report.x, b.report.x)
    assert rec.solve_id == len(workload.methods) - 1


def test_ledger_flags_counters_that_change(tmp_path):
    first = harness.CounterLedger()
    first.record((0, "nf-ipm"), {"newton.iterations": 5})
    first.record((0, "nf-ipm"), {"newton.iterations": 5})
    assert first.mismatches == []
    first.merge_file(tmp_path / "c.json", "scope")
    second = harness.CounterLedger()
    second.record((0, "nf-ipm"), {"newton.iterations": 6})
    second.merge_file(tmp_path / "c.json", "scope")
    assert len(second.mismatches) == 1
    other = harness.CounterLedger()
    other.record((0, "nf-ipm"), {"newton.iterations": 6})
    other.merge_file(tmp_path / "c.json", "other scope")
    assert other.mismatches == []


def test_operations_are_problem_method_pairs_and_repeats_must_agree():
    def sample(unit, method, ok, seconds=1.0, ref=0.5):
        return harness.Sample(unit, 0, method, seconds, None, "E", ok, ref)

    samples = [
        sample(0, "nf-ipm", True),
        sample(0, "ls-ipm", False),
        sample(0, "nf-ipm", True, seconds=3.0),
        sample(1, "nf-ipm", True, seconds=2.0),
    ]
    pairs = harness.first_solves(samples)
    assert [(s.unit, s.method, s.ok) for s in pairs] == [
        (0, "nf-ipm", True), (0, "ls-ipm", False), (1, "nf-ipm", True),
    ]
    # problem 0: nf-ipm median ratio 4, ls-ipm 2, mean 3; problem 1: 4
    assert harness.problem_relative_times(samples) == [3.0, 4.0]
    ledger = harness.CounterLedger()
    for s in samples:
        ledger.record((s.unit, s.method), s.work)
    assert ledger.mismatches == []
    ledger.record((0, "ls-ipm"), sample(0, "ls-ipm", True).work)
    assert len(ledger.mismatches) == 1


def test_small_oracle_shapes_do_not_depend_on_the_seed():
    def shape(problem):
        return [(lv.equalities.matrix.shape, lv.inequalities.matrix.shape) for lv in problem.levels]

    def data(problem):
        return np.concatenate(
            [np.ravel(b.matrix) for lv in problem.levels for b in (lv.equalities, lv.inequalities)]
        )

    for index in range(5):
        a = harness.small_oracle_problem(1, index)
        b = harness.small_oracle_problem(2, index)
        assert shape(a) == shape(b)
        assert not np.array_equal(data(a), data(b))


def test_reference_loops_are_fixed_work():
    for loop in (harness.small_reference_loop, harness.dense_reference_loop):
        assert loop() == loop()


def test_oracle_check_flags_perturbed_objectives():
    problem = harness.small_oracle_problem(0, 2)
    ref = harness.oracle_objectives(problem)
    report = harness.solve(problem, "nf-ipm")
    assert harness.check_small_oracle(problem, ref, {"nf-ipm": report}) == {"nf-ipm": True}
    bent = SimpleNamespace(objectives=[o + 1e-5 for o in report.objectives])
    assert harness.check_small_oracle(problem, ref, {"nf-ipm": bent}) == {"nf-ipm": False}


def test_equality_check_flags_perturbed_solution():
    problem = harness.random_hlsp(3, 10, [(3, 0, 1, "feasible"), (10, 0, 0, "feasible")])
    ref = harness.lexicographic_lsq_equality(problem)
    report = harness.solve(problem, "ls-ipm")
    assert harness.check_eq_chain(problem, ref, {"ls-ipm": report}) == {"ls-ipm": True}
    x = report.x.copy()
    x[4] += 1e-6
    bent = SimpleNamespace(x=x)
    assert harness.check_eq_chain(problem, ref, {"ls-ipm": bent}) == {"ls-ipm": False}


def test_cross_form_check_flags_disagreeing_forms():
    nf = SimpleNamespace(objectives=[0.0, 2.5, 7.0])
    close = SimpleNamespace(objectives=[1e-9, 2.5 * (1 + 1e-8), 7.0])
    far = SimpleNamespace(objectives=[0.0, 2.5 * (1 + 1e-4), 7.0])
    both = ("nf-ipm", "ls-ipm")
    assert harness.check_ineq_dense(None, None, {"nf-ipm": nf, "ls-ipm": close}) == dict.fromkeys(both, True)
    assert harness.check_ineq_dense(None, None, {"nf-ipm": nf, "ls-ipm": far}) == dict.fromkeys(both, False)
    assert harness.check_ineq_dense(None, None, {"nf-ipm": nf}) == {"nf-ipm": False}
