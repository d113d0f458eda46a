"""Problem and report file formats (structured JSON text).

Problem files hold ``n`` and ``levels``; each level has row-lists ``A_e``,
``b_e``, ``A_i``, ``b_i``. Numbers are serialized with full round-trip
precision. Unknown fields are rejected by the loader.
"""

from __future__ import annotations

import json

import numpy as np

from .problem import ConstraintBlock, HlspProblem, Level

PROBLEM_KEYS = {"n", "levels"}
LEVEL_KEYS = {"A_e", "b_e", "A_i", "b_i"}


class ProblemFormatError(ValueError):
    pass


def _numbers(values, where):
    """A JSON list of numbers as floats; anything else is a format error."""
    if not isinstance(values, list):
        raise ProblemFormatError(f"{where}: expected a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProblemFormatError(f"{where}: non-numeric entry {v!r}")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _block_from_lists(rows, rhs, n, where):
    if not isinstance(rows, list):
        raise ProblemFormatError(f"{where}: expected a list of rows, got {rows!r}")
    rows = [_numbers(r, f"{where} row {i}") for i, r in enumerate(rows)]
    rhs = _numbers(rhs, f"{where} rhs")
    if len(rows) != len(rhs):
        raise ProblemFormatError(
            f"{where}: {len(rows)} matrix rows but {len(rhs)} rhs entries"
        )
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ProblemFormatError(
                f"{where}: row {i} has {len(r)} entries, expected {n}"
            )
    matrix = np.array(rows, dtype=float).reshape(len(rows), n)
    return ConstraintBlock(matrix, np.array(rhs, dtype=float))


def problem_from_dict(data):
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    unknown = set(data) - PROBLEM_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown problem fields: {sorted(unknown)}")
    missing = PROBLEM_KEYS - set(data)
    if missing:
        raise ProblemFormatError(f"missing problem fields: {sorted(missing)}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ProblemFormatError(f"n must be a positive integer, got {n!r}")
    if not isinstance(data["levels"], list):
        raise ProblemFormatError(f"levels must be a list, got {data['levels']!r}")
    levels = []
    for idx, entry in enumerate(data["levels"], start=1):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"level {idx} must be an object")
        unknown = set(entry) - LEVEL_KEYS
        if unknown:
            raise ProblemFormatError(
                f"level {idx}: unknown fields {sorted(unknown)}"
            )
        missing = LEVEL_KEYS - set(entry)
        if missing:
            raise ProblemFormatError(
                f"level {idx}: missing fields {sorted(missing)}"
            )
        levels.append(
            Level(
                equalities=_block_from_lists(
                    entry["A_e"], entry["b_e"], n, f"level {idx} equalities"
                ),
                inequalities=_block_from_lists(
                    entry["A_i"], entry["b_i"], n, f"level {idx} inequalities"
                ),
            )
        )
    if not levels:
        raise ProblemFormatError("problem needs at least one level")
    return HlspProblem(n=n, levels=tuple(levels))


def problem_to_dict(problem: HlspProblem):
    levels = []
    for level in problem.levels:
        levels.append(
            {
                "A_e": [list(map(float, r)) for r in level.equalities.matrix],
                "b_e": list(map(float, level.equalities.rhs)),
                "A_i": [list(map(float, r)) for r in level.inequalities.matrix],
                "b_i": list(map(float, level.inequalities.rhs)),
            }
        )
    return {"n": int(problem.n), "levels": levels}


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from exc
    return problem_from_dict(data)


def save_problem(problem: HlspProblem, path):
    save_json(problem_to_dict(problem), path)


def save_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
