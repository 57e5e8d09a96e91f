"""Generalized distance matrices of connected graphs: spectra, spread, and
numerical verification of spread bounds on graph families and corpora."""

__version__ = "0.1.0"
