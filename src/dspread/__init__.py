"""Generalized distance matrices of connected graphs: spectra, spread,
closed-form family spectra, and numerical verification of spread bounds."""

__version__ = "0.1.0"
