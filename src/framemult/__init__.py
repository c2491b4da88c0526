"""Finite frame multipliers, their inverses and the dual frames they induce."""

__version__ = "0.1.0"
