"""Pseudospectral shallow-water solver with thin-domain diagnostics."""

__version__ = "0.1.0"
