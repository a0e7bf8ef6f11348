"""Quantum-noise force-sensitivity spectra and limit bounds for linear detectors."""
