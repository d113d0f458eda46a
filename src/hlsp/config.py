"""Solver configuration shared by the Newton core and the cascade driver."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

METHODS = ("nf-ipm", "ls-ipm", "nf-ipm-asm", "ls-ipm-asm", "classical")


@dataclass
class SolverConfig:
    method: str = "nf-ipm"
    eps: float = 1e-12
    xi: float = 1e-8
    max_iter: int = 50
    tau: float = 0.995
    density_threshold: float = 0.4
    rank_tol: float = 1e-10
    solve_tol: float = 1e-15
    asm_max_iter: int = 200
    warm_start_x: object = None
    warm_active_sets: object = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        checks = [
            (name, 0.0 < getattr(self, name) < math.inf, "positive and finite")
            for name in ("eps", "xi", "rank_tol", "solve_tol")
        ] + [
            ("tau", 0.0 < self.tau < 1.0, "in (0, 1)"),
            ("max_iter", self.max_iter >= 0, ">= 0"),
            ("asm_max_iter", self.asm_max_iter >= 0, ">= 0"),
            ("density_threshold", 0.0 <= self.density_threshold < math.inf, ">= 0 and finite"),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def step_form(self):
        if self.method in ("nf-ipm", "nf-ipm-asm"):
            return "normal"
        if self.method in ("ls-ipm", "ls-ipm-asm"):
            return "ls"
        return "classical"

    @property
    def uses_asm(self):
        return self.method in ("nf-ipm-asm", "ls-ipm-asm")

    def to_dict(self):
        """The settings for the report, without the warm-start inputs."""
        settings = asdict(self)
        del settings["warm_start_x"], settings["warm_active_sets"]
        return settings
