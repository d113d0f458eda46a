import numpy as np
import pytest

from hlsp.config import SolverConfig


def test_documented_defaults():
    cfg = SolverConfig()
    assert cfg.eps == 1e-12
    assert cfg.xi == 1e-8
    assert cfg.max_iter == 50
    assert cfg.tau == 0.995
    assert cfg.asm_max_iter == 200
    assert cfg.method == "nf-ipm"


def test_rejects_unknown_method():
    with pytest.raises(ValueError):
        SolverConfig(method="simplex")


def test_step_form_mapping():
    assert SolverConfig(method="nf-ipm").step_form == "normal"
    assert SolverConfig(method="ls-ipm").step_form == "ls"
    assert SolverConfig(method="nf-ipm-asm").step_form == "normal"
    assert SolverConfig(method="ls-ipm-asm").step_form == "ls"
    assert SolverConfig(method="classical").step_form == "classical"
    assert SolverConfig(method="ls-ipm-asm").uses_asm
    assert not SolverConfig(method="ls-ipm").uses_asm


@pytest.mark.parametrize(
    "field,value",
    [
        ("tau", 0.0),
        ("tau", 1.0),
        ("tau", float("nan")),
        ("eps", 0.0),
        ("xi", -1e-8),
        ("eps", float("inf")),
        ("xi", float("nan")),
        ("max_iter", -1),
        ("asm_max_iter", -1),
        ("warm_active_sets", 5),
        ("warm_active_sets", [(0, 1)]),
        ("warm_active_sets", {1: 3}),
        ("warm_active_sets", {1: "ab"}),
        ("warm_active_sets", {1: [0.5]}),
        ("warm_active_sets", {1: [True]}),
        ("warm_active_sets", {1: np.zeros((1, 1), dtype=int)}),
        ("warm_active_sets", {"1": [0]}),
        ("warm_active_sets", {0: [0]}),
    ],
)
def test_rejects_out_of_range_setting(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["rank_tol", "solve_tol"])
def test_rank_tolerances_are_not_settings(field):
    # the rank cuts are constants of the factorization and the Newton step
    with pytest.raises(TypeError, match=field):
        SolverConfig(**{field: 1e-8})


def test_accepts_edge_settings():
    cfg = SolverConfig(tau=0.5, max_iter=0, asm_max_iter=0)
    assert cfg.max_iter == 0
    SolverConfig(warm_active_sets={1: np.arange(2), 2: (), 3: range(1)})
