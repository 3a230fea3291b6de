"""Numerical laboratory for dispersive decay on product domains.

Building blocks: 1-D spectral Schrodinger propagators (free, free plus
a potential, hyperbolic-radial), tensor composition across factors,
exact rational Strichartz exponent algebra, a log-log decay-rate
measurement harness, and a small-data NLS fixed-point solver with
scattering diagnostics.
"""

__version__ = "0.1.0"

from .fields import (
    Grid1D,
    Field,
    SeparableField,
    Trajectory,
    make_grid,
    lp_norm,
)
from .propagators import (
    PropagatorSpec,
    PotentialSpec,
    product_propagate,
    two_particle_rotate,
    two_particle_propagate,
)
from .exponents import (
    INF,
    ExponentPair,
    DispersionIndex,
    NLSExponentSelection,
    HypothesisViolation,
    is_admissible,
    in_triangle_T,
    interpolation_exponent,
    select_nls_exponents,
    dual_exponent,
)
from .decay import (
    DecayFit,
    norm_series,
    fit_decay_exponent,
    compare_prediction,
)
from .nls import (
    Nonlinearity,
    PicardState,
    apply_nonlinearity,
    splitstep_nls,
    picard_iterate,
)
