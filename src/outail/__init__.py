"""Numerical verification lab for Gaussian-semigroup tail bounds.

The package evaluates the Ornstein-Uhlenbeck and heat semigroups of density
families relative to the standard Gaussian measure, simulates the drift
process whose time-1 law is f dgamma, and checks every quantitative
inequality of the construction at desk scale: tail envelopes, entropy
identities, Girsanov normalizations, deviation bounds, and the perturbation
estimates behind them.

The namespace is the modules themselves; ``outail.cli`` is the entry point.
"""

__version__ = "0.1.0"
