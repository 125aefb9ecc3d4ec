"""Exact solving-degree analysis for polynomial systems over prime fields.

Computes the degree of regularity, solving degree, last fall degree, and
Groebner basis degree of a polynomial family over GF(p), and certifies the
inequalities that relate them.
"""

from .errors import (
    AlgebraError,
    CapExceeded,
    DimensionError,
    DomainError,
    GenerationError,
    InconsistencyError,
    ParseError,
    PreconditionError,
)
from .rings import (
    GREVLEX,
    GRLEX,
    MAX_DEGREE,
    MAX_VARS,
    MINUS_INFINITY,
    Polynomial,
    PolySystem,
    Ring,
    TermOrder,
    is_prime,
)
from .linalg import RowBasis
from .vspace import (
    ClosureStats,
    VSpaceBasis,
    construct_top_representatives,
    interreduce_tops,
    reduce_against_tops,
    v_space_closure,
)
from .groebner import (
    GroebnerBasis,
    buchberger_reduced,
    gbd,
    ideal_dim_le,
    normal_form,
)
from .invariants import (
    Certificate,
    DegreeReport,
    InfiniteDegree,
    degree_of_regularity,
    last_fall_degree,
    solving_degree,
    verify_bounds,
)
from .harness import (
    RandomSpec,
    SystemFile,
    gen_fk,
    gen_random,
    parse_system,
    render_report,
    render_system,
)

__version__ = "0.1.0"
