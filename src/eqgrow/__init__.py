"""Equational rule discovery substrates and growth-law analysis tools."""

__version__ = "0.2.0"
