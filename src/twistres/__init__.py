"""Exact kernel for twisted tensor products and their AW/EZ chain maps.

The package constructs twisted tensor product algebras R (x)_tau S from
generator rules, bicharacters, or Hopf (group) actions; builds bar, reduced
bar, Koszul, intermediate, and twisted product resolutions as basis-word
oracles; implements the twisted Alexander-Whitney and Eilenberg-Zilber
maps with their reduced versions; converts between resolutions through
compatible chain maps and bootstrap lifting; and machine-verifies every
identity at finite degree truncation with exact arithmetic.
"""

from .algebras import (AlgebraElement, Group, GroupAlgebra, PolynomialAlgebra,
                       RewritingAlgebra, TwistedProductAlgebra)
from .awez import ChainMap, Shuffle, TwistedBarMaps, enumerate_shuffles
from .checks import CheckReport
from .complexes import (BarComplex, IntermediateComplex, KoszulComplex,
                        TwistedProductComplex, check_d_squared,
                        check_truncated_exactness)
from .conversion import (BootstrapLift, CompatibleChainMapPair,
                         check_compatible, conversion_pi_iota,
                         smash_koszul_pipeline, tensor_chain_maps)
from .errors import (ActionNotAdmissible, BudgetExceeded, DimensionMismatch,
                     FieldError, InstanceError, NotInvertible, NotLiftable,
                     TwistInconsistent, TwistresError)
from .fields import Fp, PrimeField, Rationals, field_from_name
from .hopf import (HopfAction, HopfAlgebra, group_hopf, linear_group_action,
                   permutation_group_action, smash_twist)
from .instances import (BUILTIN_NAMES, Budgets, Instance, builtin_instance,
                        parse_instance)
from .linalg import SparseMatrix, null_space, rank, solve_linear_system
from .suite import run_suite
from .twisting import (TwistingMap, bicharacter_twist,
                       twist_from_generator_rules)

__all__ = [
    "ActionNotAdmissible", "AlgebraElement", "BUILTIN_NAMES", "BarComplex",
    "BootstrapLift", "Budgets", "BudgetExceeded", "ChainMap", "CheckReport",
    "CompatibleChainMapPair", "DimensionMismatch", "FieldError", "Fp",
    "Group", "GroupAlgebra", "HopfAction", "HopfAlgebra", "Instance",
    "InstanceError", "IntermediateComplex", "KoszulComplex", "NotInvertible",
    "NotLiftable", "PolynomialAlgebra", "PrimeField", "Rationals",
    "RewritingAlgebra", "Shuffle", "SparseMatrix",
    "TwistInconsistent", "TwistedBarMaps", "TwistedProductAlgebra",
    "TwistedProductComplex", "TwistingMap", "TwistresError",
    "bicharacter_twist", "builtin_instance", "check_compatible",
    "check_d_squared", "check_truncated_exactness", "conversion_pi_iota",
    "enumerate_shuffles", "field_from_name", "group_hopf",
    "linear_group_action", "null_space", "parse_instance",
    "permutation_group_action", "rank", "run_suite", "smash_koszul_pipeline",
    "smash_twist", "solve_linear_system",
    "tensor_chain_maps", "twist_from_generator_rules",
]
