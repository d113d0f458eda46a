from dataclasses import fields

import numpy as np
import pytest

from hlsp import cascade, newton
from hlsp.config import SolverConfig


def test_documented_defaults():
    cfg = SolverConfig()
    assert cfg.eps == 1e-12
    assert cfg.max_iter == 50
    assert cfg.method == "nf-ipm"
    assert newton.TAU == 0.999
    assert cascade.ASM_MAX_ITER == 200
    assert cascade.XI == 1e-8


def test_report_settings_are_every_field_but_the_warm_start():
    cfg = SolverConfig(
        method="ls-ipm", eps=1e-9, max_iter=7,
        warm_start_x=np.zeros(2), warm_active_sets={1: [0]},
    )
    settings = cfg.to_dict()
    names = [f.name for f in fields(cfg) if not f.name.startswith("warm_")]
    assert list(settings) == names
    assert settings == {"method": "ls-ipm", "eps": 1e-9, "max_iter": 7}


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
        ("xi", 0.0),
        ("xi", float("inf")),
        ("eps", "1e-12"),
        ("eps", 0.0),
        ("xi", -1e-8),
        ("eps", float("inf")),
        ("xi", float("nan")),
        ("max_iter", -1),
        ("max_iter", "3"),
        ("warm_active_sets", 5),
        ("warm_active_sets", [(0, 1)]),
        ("warm_active_sets", {1: 3}),
        ("warm_active_sets", {1: "ab"}),
        ("warm_active_sets", {1: [0.5]}),
        ("warm_active_sets", {1: [True]}),
        ("warm_active_sets", {1: np.zeros((1, 1), dtype=int)}),
        ("warm_active_sets", {"1": [0]}),
        ("warm_active_sets", {0: [0]}),
        # counts are integers and values are real numbers, neither a bool
        ("max_iter", 2.5),
        ("max_iter", True),
        ("eps", True),
        ("xi", True),
        # the step cap, the active-set budget and the activation threshold
        # are constants of the code (newton.TAU, cascade.ASM_MAX_ITER,
        # cascade.XI): any value is an unknown field
        ("tau", 0.0),
        ("tau", 1.0),
        ("tau", float("nan")),
        ("tau", "0.5"),
        ("asm_max_iter", -1),
        ("asm_max_iter", 3.0),
        ("asm_max_iter", False),
    ],
)
def test_rejects_out_of_range_setting(field, value):
    error = TypeError if field in ("tau", "asm_max_iter", "xi") else ValueError
    with pytest.raises(error, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["rank_tol", "solve_tol", "tau", "asm_max_iter", "xi"])
def test_rank_tolerances_are_not_settings(field):
    # the rank cuts, the corrector's step cap (newton.TAU), the active-set
    # budget (cascade.ASM_MAX_ITER) and the activation threshold (cascade.XI)
    # are constants of the code
    with pytest.raises(TypeError, match=field):
        SolverConfig(**{field: 1e-8})


def test_accepts_edge_settings():
    cfg = SolverConfig(max_iter=0)
    assert cfg.max_iter == 0
    SolverConfig(eps=np.float64(1e-10), max_iter=np.int64(3))
    SolverConfig(eps=np.float32(1e-6))
    SolverConfig(warm_active_sets={1: np.arange(2), 2: (), 3: range(1)})
