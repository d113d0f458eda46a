import pytest

from hlsp.config import SolverConfig


def test_documented_defaults():
    cfg = SolverConfig()
    assert cfg.eps == 1e-12
    assert cfg.xi == 1e-8
    assert cfg.max_iter == 50
    assert cfg.tau == 0.995
    assert cfg.density_threshold == 0.4
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
