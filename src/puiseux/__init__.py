"""Exact Newton-polygon solving over generalized Puiseux series.

The package provides four layers:

* :mod:`puiseux.series` -- exact truncated Puiseux series arithmetic;
* :mod:`puiseux.algebraic` -- roots of polynomials with series
  coefficients via the contour (Newton polygon) construction;
* :mod:`puiseux.ode` -- complete branch analysis of first-order ODEs in
  finite monomial form: initial terms, resonance, proper and
  algebraic-type continuation, substitution verification;
* :mod:`puiseux.first_integrals` / :mod:`puiseux.liouville` -- first
  integrals over differential expression towers, integrating-factor
  recurrences, ghost detection and the Riccati bridge.
"""

from .algebraic import (
    AlgebraicSolveResult,
    PartialSolution,
    SeriesPolynomial,
    StepLimitError,
    UnresolvedBranch,
    VertexData,
    breaking_data,
    contour_of,
    recenter,
    solve_algebraic,
)
from .coefficients import (
    AlgebraicNumber,
    NumberField,
    ParamPoly,
    canonical_sqrt,
    sqrt_field,
)
from .contour import Contour, Line
from .first_integrals import (
    CaseError,
    ConstantVerdict,
    FirstIntegralCandidate,
    GhostRecord,
    GhostSet,
    IntegralFactorProblem,
    IntegralFactorSeries,
    IntegratingFactorEquation,
    RiccatiBridgeResult,
    YSeries,
    closedness_defect,
    ghost_roots,
    integrating_factor_equation,
    riccati_bridge,
    solve_w,
    verify_constant,
)
from .liouville import Element, Tower, parse_sexpr
from .ode import (
    FREE,
    ClassificationError,
    InitialTerm,
    InitialTermsResult,
    IndexLattice,
    Monomial,
    MonomialODE,
    SolutionBranch,
    SolveAllReport,
    VerifyResult,
    classify,
    continue_proper,
    expand_rational,
    index_lattice,
    initial_terms,
    ode_contour,
    solve_algebraic_type,
    solve_all,
    verify_branch,
    verify_series,
)
from .parsing import (
    ParseError,
    parse_algebraic_equation,
    parse_integral_factor_problem,
    parse_ode,
    parse_series_text,
)
from .ratfunc import RatFunc
from .series import (
    INF,
    BranchError,
    PoleError,
    PrecisionError,
    PuiseuxSeries,
    format_series,
    substitute_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
