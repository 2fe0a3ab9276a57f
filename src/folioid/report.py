"""Check reports in the shape the batch runner serializes, and the one
rule that turns a check's residuals into its verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class CheckReport:
    """Outcome of one check, built only by :meth:`Worst.report`."""

    name: str
    passed: bool
    max_residual: float = 0.0
    witness: Any = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


class Worst:
    """The largest residual a check has seen, where it saw it, and the
    maxima of the kinds named at construction.

    ``see(value, kind=..., **where)`` keeps a residual only when it is
    strictly larger than the kept one, so among equal residuals the first
    keeps its witness: ``{"kind": kind, **where}`` (no ``kind`` key when
    none is given), with array fields stored as lists.  A NaN beats every
    number, and the first NaN keeps its witness, so a NaN fails the check.
    An exact failure is ``see(1.0, **failure)`` judged at tolerance 0.0.
    """

    def __init__(self, *kinds: str):
        self.value = 0.0
        self.witness = None
        self.of = {kind: 0.0 for kind in kinds}

    def see(self, value, /, kind=None, **where) -> None:
        value = float(value)
        if kind in self.of and _beats(value, self.of[kind]):
            self.of[kind] = value
        if _beats(value, self.value):
            self.value = value
            self.witness = {} if kind is None else {"kind": kind}
            self.witness.update((key, v.tolist() if isinstance(v, np.ndarray) else v)
                                for key, v in where.items())

    def see_each(self, *columns) -> None:
        """``see`` sample by sample: a column is ``(kind, values, at)`` with one
        value per sample, seen as ``see(value, kind=kind, at=at(i))`` for
        sample i, the columns of a sample in the order given.  A zero is
        skipped, as ``see`` would keep nothing of it."""
        columns = [(kind, np.asarray(values).tolist(), at) for kind, values, at in columns]
        for i in range(len(columns[0][1]) if columns else 0):
            for kind, values, at in columns:
                if values[i] != 0.0:
                    self.see(values[i], kind=kind, at=at(i))

    def report(self, name: str, tol: float, details: dict | None = None,
               ok: bool = True) -> CheckReport:
        """The verdict rule: pass when ``max_residual <= tol and ok``; the
        witness is kept only on failure."""
        passed = self.value <= tol and ok
        return CheckReport(name, passed, self.value, witness=None if passed else self.witness,
                           details=details or {})


def _beats(value: float, kept: float) -> bool:
    """A larger number replaces ``kept``, and so does a NaN unless ``kept`` is one."""
    return not math.isnan(kept) and not value <= kept


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):  # before int: bool is a subclass of int
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value
