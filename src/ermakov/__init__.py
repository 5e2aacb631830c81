"""Simulation and invariant-drift verification for coupled parametric
oscillator pairs of Ermakov / Ray-Reid type.

Import the modules, as in ``from ermakov import dynamics, model``: the
package itself loads none of them."""

__version__ = "0.1.0"
