"""Exact moduli data for (almost) commuting pairs and triples in compact
simple Lie groups, computed from extended coroot diagrams."""
