"""Closed-form and reference oracles that the tests check qcvz against.

None of these is on a path that qcvz runs: the ideal and lowered unitaries
with their distance up to global phase, a one-row view of the compiler's
lowering, the analytic Rabi population, the ground-state density matrix and
one resonator's complex gain.

Sign convention (the compiler's module docstring): an X90 emitted at frame F
is driven at theta_if = F, i.e. with physical pulse phase -F, so the pulse
product applies R_phi(pi/2) at phi = -theta for each lowered theta.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qcvz.compiler import QUARTER, Program, _gate_matrix, _lower
from qcvz.demux import _gains


class LoweredQubit(NamedTuple):
    """Pulse phase list plus the residual virtual-Z frame after the last pulse."""

    thetas_deg: tuple[float, ...]
    final_frame_rad: float


def lower(gates, quantized: bool = True) -> LoweredQubit:
    """One gate list through ``compiler._lower``, as X90 pulse phases in
    degrees and the residual frame. Quantized mode requires every Z angle to
    be a multiple of pi/4 (within 1e-9 of one)."""
    phases, _, final = _lower(Program((tuple(gates),)), quantized)
    thetas = 45.0 * phases if quantized else phases
    return LoweredQubit(tuple(thetas.tolist()), float(final[0]))


def ideal_unitary(gates) -> np.ndarray:
    """Matrix product of the standard gate definitions, first gate applied first."""
    u = np.eye(2, dtype=complex)
    for g in gates:
        u = _gate_matrix(g) @ u
    return u


def pulse_unitary(phi_rad: float) -> np.ndarray:
    """R_phi(pi/2) = exp(-i (pi/4)(cos phi sigma_x + sin phi sigma_y))."""
    c = math.cos(QUARTER)
    s = math.sin(QUARTER)
    return np.array(
        [
            [c, -1j * s * np.exp(-1j * phi_rad)],
            [-1j * s * np.exp(1j * phi_rad), c],
        ],
        dtype=complex,
    )


def pulse_product(thetas_deg) -> np.ndarray:
    """Unitary of the X90 pulses at ``thetas_deg`` (degrees), first applied first."""
    u = np.eye(2, dtype=complex)
    for theta in thetas_deg:
        u = pulse_unitary(-math.radians(theta)) @ u
    return u


def lowered_unitary(lq: LoweredQubit) -> np.ndarray:
    """Unitary realized by the pulse list followed by the residual frame Z."""
    zf = np.array([[1.0, 0.0], [0.0, np.exp(1j * lq.final_frame_rad)]], dtype=complex)
    return zf @ pulse_product(lq.thetas_deg)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over alpha of ||u - e^{i alpha} v||_F."""
    tr = np.trace(v.conj().T @ u)
    alpha = np.angle(tr) if tr != 0 else 0.0
    return float(np.linalg.norm(u - np.exp(1j * alpha) * v))


def rabi_analytic(omega_rad: float, delta_rad: float, t_s) -> np.ndarray | float:
    """Closed-form Rabi population from the ground state under a flat drive.

    p1 = (Omega^2 / (Omega^2 + delta^2)) sin^2(sqrt(Omega^2 + delta^2) t / 2)
    """
    t = np.asarray(t_s, dtype=float)
    w2 = omega_rad**2 + delta_rad**2
    if w2 == 0.0:
        out = np.zeros_like(t)
    else:
        out = (omega_rad**2 / w2) * np.sin(0.5 * math.sqrt(w2) * t) ** 2
    return float(out) if np.isscalar(t_s) else out


def ground_state() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def resonator_gain(r, f_hz) -> complex:
    """Complex transfer of the resonator ``r`` at frequency f, broadcast over f:
    gain = 1 / (1 + 2j Q (f - f_r) / f_r), through ``demux._gains``; unity on
    resonance, |gain| <= 1."""
    return _gains(r.q, r.f_r_hz, np.asarray(f_hz, dtype=float))
