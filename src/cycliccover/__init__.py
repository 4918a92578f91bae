"""Exact positivity criteria for pullbacks along cyclic coverings.

Subpackages:

  combinatorics  -- the integer functions gamma, tau, sigma and sigma tables
  lemmas         -- brute-force oracles for the two supporting lemmas
  engine         -- decision procedures on positivity profiles
  catalog        -- stock geometries with their expected claims
  cyclotomic     -- exact arithmetic in Q(zeta_d)
  series         -- truncated multivariate polynomials (jets)
  localmodel     -- symbolic section constructions on toy local models
  cli            -- command-line front end
"""

from .combinatorics import (
    gamma,
    sigma,
    sigma_table,
    tau,
)
from .engine import (
    CoveringScenario,
    CriterionVerdict,
    PositivityProfile,
    explain_requirement,
    max_guaranteed_jet_order,
    max_guaranteed_very_order,
)
from .errors import ResourceBudgetError, SingularSystemError

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
