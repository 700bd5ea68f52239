"""Exact geometry of numbers over the Laurent series field F_q((1/x)).

The package computes successive minima, packing and covering radii,
point counts and related invariants for lattices and periodic lattices
in K^d, K = F_q((1/x)), entirely in exact arithmetic, and ships
brute-force oracles that re-derive every closed form independently.
"""

from .errors import (
    BudgetExceeded,
    CapExceeded,
    FFLatError,
    InsufficientPrecision,
    NRational,
    ParseError,
    PrecisionTooCoarse,
    SingularInput,
    UndefinedValue,
)
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QExp,
    Rat,
    abs_value,
    expand_rational,
    frac_part,
    parse_element,
)
from .lattice import (
    ConvexBody,
    Lattice,
    norm_in_body,
    reduce_lattice,
)
from .periodic import (
    PeriodicLattice,
    check_bounds,
    count_points,
    covrad_bounds,
    covrad_periodic,
    d_invariant,
    from_lattice,
    hankel,
    make_alpha_lattice,
    make_coset_lattice,
    minkowski_search,
    packing_density,
    packing_radius,
    succ_minima_periodic,
)
from .oracle import (
    count_oracle,
    covrad_oracle,
    density_oracle,
    enumerate_points,
    succmin_oracle,
)

__version__ = "0.1.0"
