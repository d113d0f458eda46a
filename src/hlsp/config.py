"""Solver configuration shared by the Newton core and the cascade driver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

METHODS = ("nf-ipm", "ls-ipm", "nf-ipm-asm", "ls-ipm-asm", "classical")


@dataclass
class SolverConfig:
    method: str = "nf-ipm"
    eps: float = 1e-12
    max_iter: int = 50
    warm_start_x: object = None
    warm_active_sets: object = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        positive, count = "a positive finite number", "an integer >= 0"
        checks = [
            ("eps", _is_real(self.eps) and 0.0 < self.eps < math.inf, positive),
            ("max_iter", _is_int(self.max_iter) and self.max_iter >= 0, count),
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
        return {"method": self.method, "eps": self.eps, "max_iter": self.max_iter}


def _is_real(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_active_sets(sets):
    """A dict from 1-based levels to sequences of integer row indices."""
    return isinstance(sets, dict) and all(
        _is_int(level)
        and level >= 1
        and isinstance(rows, (list, tuple, range, np.ndarray))
        and getattr(rows, "ndim", 1) == 1
        and all(map(_is_int, rows))
        for level, rows in sets.items()
    )
