"""Exact positivity criteria for pullbacks along cyclic coverings.

Subpackages:

  combinatorics  -- the integer functions gamma, tau, sigma and sigma tables
  lemmas         -- exhaustive checks of the two supporting lemmas
  engine         -- decision procedures on positivity profiles
  catalog        -- stock geometries with their expected claims
  cyclotomic     -- exact arithmetic in Q(zeta_d)
  series         -- truncated multivariate polynomials (jets)
  localmodel     -- symbolic section constructions on toy local models
  cli            -- command-line front end

Importing the package loads none of them.  A subpackage, or a name in
``__all__``, is imported on first access (PEP 562), so a CLI command pays
only for the layers it runs.
"""

import importlib

__all__ = [
    "CoveringScenario",
    "CriterionVerdict",
    "PositivityProfile",
    "ResourceBudgetError",
    "SingularSystemError",
    "explain_requirement",
    "gamma",
    "max_guaranteed_jet_order",
    "max_guaranteed_very_order",
    "sigma",
    "sigma_table",
    "tau",
]

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "combinatorics", "lemmas", "engine", "catalog", "cyclotomic", "series",
    "localmodel", "cli", "errors"})
# The submodule each name in __all__ comes from.
_SOURCE = {
    "gamma": "combinatorics", "sigma": "combinatorics",
    "sigma_table": "combinatorics", "tau": "combinatorics",
    "CoveringScenario": "engine", "CriterionVerdict": "engine",
    "PositivityProfile": "engine", "explain_requirement": "engine",
    "max_guaranteed_jet_order": "engine",
    "max_guaranteed_very_order": "engine",
    "ResourceBudgetError": "errors", "SingularSystemError": "errors",
}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
