"""Federated-learning simulator with loss-landscape constant probing,
convergence-bound evaluation, and node-usefulness analysis."""

__version__ = "0.1.0"
