"""Chordal Loewner flows, half-plane transforms, and non-commutative convolutions.

The package realizes the dictionary between the chordal Loewner differential
equations on the upper half-plane and the free, monotone, and anti-monotone
convolutions of probability measures on the real line:

* :mod:`loewner.measures` -- measures, densities, mean and variance
* :mod:`loewner.transforms` -- Cauchy/F/R transforms, Stieltjes inversion
* :mod:`loewner.convolve` -- the three convolutions and subordination
* :mod:`loewner.flows` -- forward/reverse/anti-monotone flows, traces, welding
* :mod:`loewner.evolution` -- evolution families, sampled Brownian drivers,
  the convolution-chain approximation, Burgers diagnostics
* :mod:`loewner.cli` -- command-line front end (``python -m loewner``)
"""

from . import errors
from .measures import (
    Arcsine,
    Dirac,
    Empirical,
    Measure,
    Semicircle,
    density_at,
    mean_variance,
)
from .transforms import (
    AnalyticMap,
    asymptotic_moments,
    as_cauchy,
    as_f,
    cauchy,
    cauchy_from_r,
    f_transform,
    halfplane_sqrt,
    invert_cauchy,
    invert_stieltjes,
    r_transform,
)
from .convolve import (
    anti_monotone,
    free_r,
    free_subordination,
    materialize,
    monotone,
    parse_expression,
)
from .flows import (
    AtomPath,
    Driving,
    FlowPoint,
    HullTrace,
    MeasurePath,
    SemicircleFamily,
    Welding,
    constant_driver,
    driving_from_dict,
    flow_forward,
    flow_reverse,
    flow_reverse_anti,
    inverse_map,
    trace,
    welding,
)
from .evolution import (
    EvolutionFamily,
    anti_monotone_family,
    burgers_residual,
    burgers_residual_of,
    chain_approximation,
    free_family,
    monotone_family,
    sle_driving,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Arcsine", "Dirac", "Empirical", "Measure", "Semicircle", "density_at",
    "mean_variance",
    "AnalyticMap", "asymptotic_moments", "as_cauchy", "as_f", "cauchy",
    "cauchy_from_r", "f_transform", "halfplane_sqrt", "invert_cauchy",
    "invert_stieltjes", "r_transform",
    "anti_monotone", "free_r", "free_subordination", "materialize", "monotone",
    "parse_expression",
    "AtomPath", "Driving", "FlowPoint", "HullTrace", "MeasurePath",
    "SemicircleFamily", "Welding", "constant_driver", "driving_from_dict",
    "flow_forward", "flow_reverse", "flow_reverse_anti", "inverse_map", "trace",
    "welding",
    "EvolutionFamily", "anti_monotone_family", "burgers_residual",
    "burgers_residual_of", "chain_approximation", "free_family",
    "monotone_family", "sle_driving",
]
