"""Solver configuration shared by the Newton core and the cascade driver."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

METHODS = ("nf-ipm", "ls-ipm", "nf-ipm-asm", "ls-ipm-asm", "classical")


@dataclass
class SolverConfig:
    method: str = "nf-ipm"
    eps: float = 1e-12
    xi: float = 1e-8
    max_iter: int = 50
    tau: float = 0.995
    asm_max_iter: int = 200
    warm_start_x: object = None
    warm_active_sets: object = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        checks = [
            (name, 0.0 < getattr(self, name) < math.inf, "positive and finite")
            for name in ("eps", "xi")
        ] + [
            ("tau", 0.0 < self.tau < 1.0, "in (0, 1)"),
            ("max_iter", self.max_iter >= 0, ">= 0"),
            ("asm_max_iter", self.asm_max_iter >= 0, ">= 0"),
            (
                "warm_active_sets",
                self.warm_active_sets is None or _is_active_sets(self.warm_active_sets),
                "a {level: rows} dict of positive int levels and integer row sequences",
            ),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

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


def _is_active_sets(sets):
    """A dict from 1-based levels to sequences of integer row indices."""

    def is_index(value):
        return isinstance(value, Integral) and not isinstance(value, bool)

    return isinstance(sets, dict) and all(
        is_index(level)
        and level >= 1
        and isinstance(rows, (list, tuple, range, np.ndarray))
        and getattr(rows, "ndim", 1) == 1
        and all(map(is_index, rows))
        for level, rows in sets.items()
    )
