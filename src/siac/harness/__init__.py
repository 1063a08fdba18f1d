"""Experiment harness: run configs, convergence sweeps, verification, CLI."""
