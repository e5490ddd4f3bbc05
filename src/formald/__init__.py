"""formald: exact truncated calculus for differential operators over
formal power series rings.

The package computes with multivariate truncated power series over exact
rationals, differential operators in normal form, their principal symbols
and Poisson brackets, desk-scale module presentations (localizations and
integrable connections), truncated de Rham complexes with exact rank
computations, one-variable operators with finite kernel/cokernel, and
finite-generation probes for iterated derivations.
"""

from .errors import (BoundOverflow, InsufficientPrecision, NonIntegrable,
                     NotAUnit, NotFoundWithinBudget, NotRegular, ParseError,
                     PoleBudgetExceeded, PreconditionViolated, ToolkitError,
                     UnsupportedExponent, WrongVariant, ZeroOperator)
from .series import (Divisor, LinearSubstitution, Series, WeierstrassForm,
                     apply_linear_substitution, exp_series,
                     find_regularizing_substitution, invert_unit,
                     is_xn_regular, weierstrass_divide,
                     weierstrass_prepare, xn_coefficient)
from .weyl import DiffOp, commutator, op_product
from .symbols import (MembershipVerdict, Symbol, bracket_chain_probe,
                      involutivity_check, membership_truncated,
                      poisson_bracket)
from .modules import (LocElement, ModulePresentation, check_integrability,
                      loc_normalize, partial_action, scalar_action)
from .derham import (CohomologyReport, TruncatedComplex, cohomology_dims,
                     cokernel_of_dn, kernel_of_dn, les_consistency,
                     stable_cohomology_dims, stabilized_dims)
from .malgrange import (IndicialData, finite_dims, indicial_data,
                        truncated_cokernel_rank)
from .regularity import (cover_check, iterate_recurrence,
                         kernel_relation_homogeneity, power_search,
                         xn_regular_element_check)

__version__ = "0.1.0"
