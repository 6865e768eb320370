"""Exact arithmetic for twisted semigroup rings, associated graded
algebras of monomial valuations, and the degreewise map between them."""

from .errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    DomainError,
    LiftingError,
    RootNotFound,
    SetupError,
)
from .graded import (
    GradedElement,
    HomogeneousElement,
    HZERO,
    constant_lift,
    h_add,
    h_mul,
    in_v,
    psi,
    psi_inverse,
)
from .mpoly import (
    Monomial,
    Polynomial,
    RationalFunction,
    nth_root,
    parse_polynomial,
    parse_rational_function,
    rf_nth_root,
)
from .ordgroup import FgSubgroup, GroupElement
from .constructions import (
    AnalyzerReport,
    ExtensionStep,
    PowerCheck,
    SubgroupWithChoice,
    analyze_counterexample,
    counterexample_valuation,
    extend_choice,
    forced_power_check,
    free_pair,
    make_initial,
    monomial_pool,
)
from .setupfile import SetupFile, load_setup, parse_document
from .twist import (
    ChoiceFunction,
    GeneratorChoice,
    TableChoice,
    TwistedRingElement,
    TwistingTable,
    is_trivial,
    semigroup_hom_check,
    twisted_mul,
)
from .valuation import MonomialValuation, ResidueElement

__version__ = "0.1.0"
