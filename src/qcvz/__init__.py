"""Desk-scale simulator and pulse compiler for a resonator-multiplexed,
TDM cryogenic qubit controller with virtual Z gates."""

__version__ = "0.1.0"
