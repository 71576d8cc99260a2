"""Exact moduli data for (almost) commuting pairs and triples in compact
simple Lie groups, computed from extended coroot diagrams."""

from .center import center_group, parse_center
from .derived import check_samediags, quotient_marked
from .diagrams import classify, diagram_of, is_affine_type, quotient
from .moduli import clock_report, components_for, rank_zero_list
from .projection import check_diagram1, fold, project
from .rootdata import SimpleType, datum, dual_coxeter, parse_type

__all__ = [
    "SimpleType",
    "center_group",
    "check_diagram1",
    "check_samediags",
    "classify",
    "clock_report",
    "components_for",
    "datum",
    "diagram_of",
    "dual_coxeter",
    "fold",
    "is_affine_type",
    "parse_center",
    "parse_type",
    "project",
    "quotient",
    "quotient_marked",
    "rank_zero_list",
]
