"""Exact constructive measure and integration on the unit interval.

The library represents reals by certified rational approximants, almost-full
subsets of [0, 1] by regular sequences of nonnegative piecewise-linear
functions, and a.e.-defined functions by witness-consuming evaluators.  On
top of that it provides Daniell-style summability with exact decay
certificates, Lebesgue integrals with explicit error bounds, measurable
sets, and the conversion of Riemann-integrable functions into summable ones
through dyadic sampling nets.
"""

from .errors import AlmostFullError, BudgetExhausted, CertificationError, RegularityError
from .exact import (CReal, DyadicInterval, Rational, Verdict, ceil_log2,
                    from_ratstr, pow2, rat_approx, soft_compare, to_ratstr)
from .polygonal import (IntervalUnion, Polygonal, indicator_approx,
                        step_function, sublevel, union_indicator)
from .regular import (DomainWitness, RealizedPoint, RegularSeq,
                      decay_bound, geometric_decay, intersect_countable,
                      intersect_pair, point_avoiding_seq, point_in_pps,
                      realize_point, row_witness, witness_precision)
from .aefunc import (AEFunction, MeasurableSet, Summable,
                     ae_zero_of_null_integral, certify_l1_gap,
                     char_of_interval_union, countable_set_intersection,
                     full_measure_to_pps, integral_uniqueness_check,
                     limit_of_summables, point_in_positive_set, positive_point,
                     summable_min)
from .bridge import Bridge, GammaInfo, NetIndex, RiemannCertificate, bridge_for

__version__ = "0.1.0"

__all__ = [
    "AEFunction", "AlmostFullError", "Bridge", "BudgetExhausted", "CReal",
    "CertificationError", "DomainWitness", "DyadicInterval", "GammaInfo",
    "IntervalUnion", "MeasurableSet", "NetIndex", "Polygonal", "Rational",
    "RealizedPoint", "RegularSeq", "RegularityError", "RiemannCertificate",
    "Summable", "Verdict", "ae_zero_of_null_integral",
    "bridge_for", "ceil_log2", "certify_l1_gap", "char_of_interval_union",
    "countable_set_intersection", "decay_bound", "from_ratstr",
    "full_measure_to_pps", "geometric_decay", "indicator_approx",
    "integral_uniqueness_check", "intersect_countable", "intersect_pair",
    "limit_of_summables", "point_avoiding_seq", "point_in_positive_set",
    "point_in_pps", "positive_point", "pow2", "rat_approx", "realize_point",
    "row_witness", "soft_compare", "step_function", "sublevel", "summable_min",
    "to_ratstr", "union_indicator", "witness_precision",
]
