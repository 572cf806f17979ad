"""Parameter sets for the 4-compartment permeability-limited brain model.

The default constructors carry the abemaciclib reference values (10 mg oral
dose). All parameter objects are frozen; derived code treats them as pure
value types.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum


class ModelVariant(Enum):
    """Sign convention of the model equations. The package implements one:
    PAPER_LITERAL, the printed mass-balance equations term by term (see
    ``brainpbpk.model``). It is kept as the ``variant`` argument of
    ``solvers.solve`` and as the ``variant`` entry of a simulated
    dataset's ``manifest.json``.
    """

    PAPER_LITERAL = "paper-literal"


_VOLUME_FIELDS = ("Vbb", "Vbm", "Vccsf", "Vscsf")
_FLOW_FIELDS = ("Qbrain", "Qcsink", "Qssink", "QbulkBC", "QbulkCB",
                "Qsout", "Qsin", "PSB", "PSC", "PSE")
_CLEARANCE_FIELDS = ("CLBin", "CLBout", "CLCin", "CLCout", "CLmet")
_FRACTION_FIELDS = ("fubb", "fubm", "fuccsf", "lam_bb", "lam_bm", "lam_ccsf")

# valid range of each kind of parameter: a test that works elementwise on
# floats and arrays (NaN fails it), and the error message
_RULES = (
    (_VOLUME_FIELDS, lambda v: v > 0, "volume {} must be strictly positive"),
    (_FLOW_FIELDS, lambda v: v >= 0, "flow {} must be non-negative"),
    (_CLEARANCE_FIELDS, lambda v: v >= 0, "clearance {} must be non-negative"),
    (_FRACTION_FIELDS, lambda v: (0.0 <= v) & (v <= 1.0),
     "fraction {} must lie in [0, 1]"),
)
_RULE_OF = {name: (test, message.format(name))
            for names, test, message in _RULES for name in names}


def in_range(name: str, value):
    """Elementwise: whether ``value`` is in the valid range of ``name``."""
    return _RULE_OF[name][0](value)


def _check_fields(obj) -> None:
    # Validation only applies to plain numeric instances; arrays (a DE
    # population, the PINN's complex-step batch) may be substituted.
    fields = dataclasses.fields(obj)
    if all(isinstance(getattr(obj, f.name), (int, float)) for f in fields):
        for f in fields:
            if not in_range(f.name, getattr(obj, f.name)):
                raise ValueError(_RULE_OF[f.name][1])


@dataclass(frozen=True)
class SystemParams:
    """System-specific (physiological) parameters.

    Volumes in L, flows and permeability-surface products in L/h.
    """

    Vbb: float = 0.064952435
    Vbm: float = 1.104115461
    Vccsf: float = 0.103984624
    Vscsf: float = 0.025996156
    Qbrain: float = 38.0
    Qcsink: float = 0.01277633
    Qssink: float = 0.007761342
    QbulkBC: float = 0.005164106
    QbulkCB: float = 0.005164106
    Qsout: float = 0.007489995
    Qsin: float = 0.015251337
    PSB: float = 135.0
    PSC: float = 67.5
    PSE: float = 300.0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class DrugParams:
    """Drug-specific parameters (abemaciclib defaults).

    Clearances in L/h; unbound and unionized fractions dimensionless.
    """

    CLBin: float = 0.0
    CLBout: float = 110.0
    CLCin: float = 11.9
    CLCout: float = 0.0
    CLmet: float = 0.0
    fubb: float = 0.125
    fubm: float = 0.044
    fuccsf: float = 1.0
    lam_bb: float = 0.033
    lam_bm: float = 0.017
    lam_ccsf: float = 0.026

    __post_init__ = _check_fields


SYSTEM_PARAM_NAMES = tuple(f.name for f in dataclasses.fields(SystemParams))
DRUG_PARAM_NAMES = tuple(f.name for f in dataclasses.fields(DrugParams))
ALL_PARAM_NAMES = SYSTEM_PARAM_NAMES + DRUG_PARAM_NAMES


# the reference sets: every parameter that is not substituted keeps its value
_REFERENCE = (SystemParams(), DrugParams())


def reference_value(name: str) -> float:
    """Reference (default) value of any of the 25 model parameters."""
    sys, drug = _REFERENCE
    if name in SYSTEM_PARAM_NAMES:
        return getattr(sys, name)
    if name in DRUG_PARAM_NAMES:
        return getattr(drug, name)
    raise KeyError(f"unknown model parameter: {name}")


def substitute(values: dict):
    """(SystemParams, DrugParams) at the reference values, with the fields
    named in ``values`` replaced.

    Replacement values may be plain floats or arrays.
    """
    sys, drug = _REFERENCE
    sys_over = {k: v for k, v in values.items() if k in SYSTEM_PARAM_NAMES}
    drug_over = {k: v for k, v in values.items() if k in DRUG_PARAM_NAMES}
    unknown = set(values) - set(sys_over) - set(drug_over)
    if unknown:
        raise KeyError(f"unknown model parameters: {sorted(unknown)}")
    if sys_over:
        sys = dataclasses.replace(sys, **sys_over)
    if drug_over:
        drug = dataclasses.replace(drug, **drug_over)
    return sys, drug
