"""Limit-average cost analysis for weighted featured transition systems.

A featured transition system superimposes every product of a software
product line in one model whose transitions carry feature-expression guards;
adding rational weights makes long-run average cost a per-product quantity.
This package computes the maximum or minimum limit average for all products
at once (family-based, via one policy iteration over product sets) and
per product (enumerative baseline), plus a brute-force cycle oracle that
both are validated against.  The layers live in the submodules; the package exports
the names needed to build, write and analyze a model.
"""

from .analysis import analyze_family, analyze_products
from .dsl import serialize
from .features import FeatureModel
from .generators import taxi
from .model import Transition, Wfts, expand_lengths

__all__ = [
    "FeatureModel", "Transition", "Wfts", "analyze_family", "analyze_products",
    "expand_lengths", "serialize", "taxi",
]
