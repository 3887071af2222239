"""Desk-scale limits and parameter functions.

Exceeding a limit raises CapacityError; there is no silent degradation.
Limits can be overridden through FLATWALL_LIMIT_<NAME> environment variables;
any other FLATWALL_LIMIT_ variable is a UsageError, never silently ignored.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

from .errors import UsageError


@dataclass(frozen=True)
class Limits:
    minor_model: int = 24

    def override_from_env(self) -> "Limits":
        out = self
        known = {"FLATWALL_LIMIT_" + f.name.upper(): f.name
                 for f in fields(self)}
        for var, raw in sorted(os.environ.items()):
            if not var.startswith("FLATWALL_LIMIT_"):
                continue
            if var not in known:
                raise UsageError("unknown limit variable",
                                 witness={var: raw, "known": sorted(known)})
            try:
                out = replace(out, **{known[var]: int(raw)})
            except ValueError:
                raise UsageError("limit must be an integer",
                                 witness={var: raw})
        return out


DEFAULT_LIMITS = Limits()


def _poly(coeff: int, power: int):
    def f(t: int) -> int:
        return max(1, coeff * t ** power)
    return f


@dataclass(frozen=True)
class Params:
    """The three parameter functions of the orchestration layer.

    Defaults keep the published asymptotic shapes with unit leading
    constants scaled down to degree 2; they are explicitly NOT the
    cited constants and every certificate records which were used.
    """
    f_questionnaires: object = field(default_factory=lambda: _poly(1, 2))
    f_hierarchical: object = field(default_factory=lambda: _poly(1, 2))
    f_entstandenen: object = field(default_factory=lambda: _poly(1, 1))
    edge_density_coeff: int = 4   # c_t = coeff * t
    limits: Limits = DEFAULT_LIMITS

    def describe(self) -> dict:
        probe = [1, 2, 3]
        return {
            "f_questionnaires": [self.f_questionnaires(t) for t in probe],
            "f_hierarchical": [self.f_hierarchical(t) for t in probe],
            "f_entstandenen": [self.f_entstandenen(t) for t in probe],
            "edge_density_coeff": self.edge_density_coeff,
        }


def unit_params() -> Params:
    one = lambda t: 1
    return Params(f_questionnaires=one, f_hierarchical=one, f_entstandenen=one)
