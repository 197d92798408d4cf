"""Two-level transmon dynamics in the drive rotating frame.

The density matrix evolves under
    drho/dt = -i[H, rho] + (1/T1) D[sigma-] rho + (1/(2 Tphi)) D[sigma_z] rho
with H = (delta/2) sigma_z + (Omega_re sigma_x + Omega_im sigma_y)/2,
Omega(t) = 2 pi * envelope(t) and delta = 2 pi (carrier - f_qubit).
Drives are sample-and-hold, so propagation is exact: a product of 4x4
superoperator exponentials, with no step size to choose. Basis: index
0 = ground, index 1 = excited; p1 = rho[1, 1].
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit

from .mixer import DriveEnvelope

TWO_PI = 2.0 * math.pi

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, decay operator
I2 = np.eye(2, dtype=complex)


class QubitError(ValueError):
    """Invalid qubit parameters or state."""


class FitError(RuntimeError):
    """Curve fit did not converge."""


@dataclass(frozen=True)
class QubitParams:
    """Transmon frequency plus T1 and pure-dephasing time Tphi.

    ``math.inf`` for either time is the closed-system sentinel.
    T2 = 1 / (1/(2 T1) + 1/Tphi).
    """

    f_qubit_hz: float
    t1_s: float = math.inf
    tphi_s: float = math.inf

    def __post_init__(self):
        if not 0 < self.f_qubit_hz < math.inf:
            raise QubitError(f"qubit frequency must be positive and finite, got {self.f_qubit_hz}")
        if not (self.t1_s > 0 and self.tphi_s > 0):
            raise QubitError(
                f"T1 and Tphi must be positive (inf allowed), got {self.t1_s}, {self.tphi_s}"
            )

    @property
    def t2_s(self) -> float:
        rate = 0.5 / self.t1_s + 1.0 / self.tphi_s
        return math.inf if rate == 0.0 else 1.0 / rate

    @classmethod
    def from_t2(cls, f_qubit_hz: float, t1_s: float, t2_s: float) -> "QubitParams":
        """Build params from a (T1, T2) pair by solving for Tphi."""
        if not (t1_s > 0 and t2_s > 0):
            raise QubitError(f"T1 and T2 must be positive (inf allowed), got {t1_s}, {t2_s}")
        rphi = 1.0 / t2_s - 0.5 / t1_s
        if rphi < 0:
            raise QubitError(f"T2={t2_s} exceeds the 2*T1={2 * t1_s} limit")
        return cls(f_qubit_hz, t1_s, math.inf if rphi == 0.0 else 1.0 / rphi)

    def closed(self) -> "QubitParams":
        """Decoherence-free twin (used for calibration)."""
        return QubitParams(self.f_qubit_hz, math.inf, math.inf)


def ground_state() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def excited_state() -> np.ndarray:
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise QubitError(f"density matrix must be 2x2, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > max(tol, 1e-12):
        raise QubitError(f"trace {np.trace(rho)} != 1")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise QubitError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -tol:
        raise QubitError("density matrix is not positive semidefinite")
    return rho


@dataclass
class Trajectory:
    """Sampled excited-state population along one evolution."""

    times_s: np.ndarray
    p1: np.ndarray
    rho_final: np.ndarray | None = None

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        if np.any(np.diff(self.times_s) < 0):
            raise QubitError("trajectory times must be monotone")
        if not np.all((self.p1 >= -1e-9) & (self.p1 <= 1.0 + 1e-9)):  # NaN fails too
            raise QubitError("populations out of [0, 1]")


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


def _dissipator(lop: np.ndarray) -> np.ndarray:
    ldl = lop.conj().T @ lop
    return np.kron(lop, lop.conj()) - 0.5 * (np.kron(ldl, I2) + np.kron(I2, ldl.T))


def _hamiltonian_super(h: np.ndarray) -> np.ndarray:
    return -1j * (np.kron(h, I2) - np.kron(I2, h.T))


# Liouvillian generators (vec row-major), built once at import.
LZ = _hamiltonian_super(0.5 * SZ)
D_DECAY = _dissipator(SM)
D_DEPHASE = _dissipator(SZ)
LX = _hamiltonian_super(0.5 * SX)
LY = _hamiltonian_super(0.5 * SY)


def _l0(t1_s, tphi_s, delta_rad):
    return delta_rad * LZ + (1.0 / t1_s) * D_DECAY + (0.5 / tphi_s) * D_DEPHASE


def liouvillian_parts(q: QubitParams, delta_rad: float):
    """l0 = delta LZ + D[sigma-]/T1 + D[sigma_z]/(2 Tphi) plus the drive generators LX, LY."""
    return _l0(q.t1_s, q.tphi_s, delta_rad), LX, LY


def _held_maps(t1_s, tphi_s, delta_rad, sample_hz, dt_s) -> np.ndarray:
    """expm((l0 + 2 pi (Re s LX + Im s LY)) dt) for a sample s (Hz) held for dt,
    stacked over the broadcast array arguments: the one exponential of the
    drive model."""
    def col(v):
        return np.asarray(v)[..., None, None]

    s = col(sample_hz)
    # A step too large for float64 gives a NaN map, which every caller rejects
    # (a population or angle-error check) without a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _l0(col(t1_s), col(tphi_s), col(delta_rad)) + TWO_PI * (s.real * LX + s.imag * LY)
        gen = gen * col(dt_s)
    return expm(gen)


def _held_steps(q: QubitParams, drive: DriveEnvelope, times: np.ndarray):
    """Cut the drive at its sample-run starts, its end and ``times``: (cuts, steps,
    which), where the exponential steps[which[j]] propagates cuts[j] -> cuts[j + 1]."""
    s = drive.samples
    starts = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1))  # runs of equal samples
    t_starts = starts / drive.envelope_rate_hz
    cuts = np.union1d(np.append(t_starts, drive.duration_s), times)
    held = s[starts[np.searchsorted(t_starts, cuts[:-1], side="right") - 1]]
    dt = np.diff(cuts)
    _, first, which = np.unique(
        np.stack([held.real, held.imag, dt], axis=1), axis=0, return_index=True,
        return_inverse=True,
    )
    delta = TWO_PI * (drive.carrier_hz - q.f_qubit_hz)
    return cuts, _held_maps(q.t1_s, q.tphi_s, delta, held[first], dt[first]), which


def propagate(
    q: QubitParams,
    drive: DriveEnvelope,
    rho0: np.ndarray,
    times_s=None,
) -> Trajectory:
    """Exact Lindblad propagation of a sample-and-hold drive.

    Each maximal run of equal samples between report times is one
    exponential expm(L t) with L = l0 + 2 pi (Re s lx + Im s ly); equal
    (sample, duration) pairs share one exponential. p1 is reported at
    ``times_s`` (sorted, inside [0, duration]; default: start and end of
    the drive) and ``rho_final`` is the state at the end of the drive.
    """
    rho0 = validate_density_matrix(rho0)
    duration = drive.duration_s
    times = np.array([0.0, duration]) if times_s is None else np.asarray(times_s, dtype=float)
    if times.ndim != 1 or not np.all((times >= 0.0) & (times <= duration)):
        raise QubitError(f"report times must lie in [0, {duration:.6g}] s")
    if np.any(np.diff(times) < 0):
        raise QubitError("report times must be sorted")
    cuts, steps, which = _held_steps(q, drive, times)
    states = np.empty((len(cuts), 4), dtype=complex)
    states[0] = rho0.reshape(4)
    for j, k in enumerate(which):
        states[j + 1] = steps[k] @ states[j]
    p1 = states[np.searchsorted(cuts, times), 3].real
    return Trajectory(times, np.clip(p1, 0.0, 1.0), states[-1].reshape(2, 2))


def delay_maps(q: QubitParams, t_s, delta_rad: float = 0.0) -> np.ndarray:
    """Drive-free maps exp(l0 t), one (4, 4) per delay, in closed form.

    l0 couples no population to a coherence: it is diagonal apart from
    l0[0, 3] = -l0[3, 3] = 1/T1. So p1 relaxes as p1 e^{-t/T1} into p0,
    rho01 decays at 1/T2 and rotates at delta (its sign from LZ), and rho10
    is its conjugate. Raises QubitError for a negative or non-finite delay.
    """
    t = np.asarray(t_s, dtype=float).reshape(-1)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise QubitError("negative delay" if np.any(t < 0.0) else "delays must be finite")
    rates = np.diag(_l0(q.t1_s, q.tphi_s, delta_rad))
    maps = np.zeros((t.size, 4, 4), dtype=complex)
    maps[:, range(4), range(4)] = np.exp(np.multiply.outer(t, rates))
    maps[:, 0, 3] = 1.0 - maps[:, 3, 3]
    return maps


class FitModel(str, Enum):
    EXP_DECAY = "exp_decay"
    DAMPED_COSINE = "damped_cosine"
    RABI_SINUSOID = "rabi_sinusoid"


@dataclass
class FitResult:
    model: FitModel
    params: dict[str, float]
    sigma: dict[str, float]
    residual: float


def _guess_freq(t: np.ndarray, y: np.ndarray) -> float:
    yc = y - np.mean(y)
    n = len(t)
    freqs = np.fft.rfftfreq(n, d=(t[-1] - t[0]) / (n - 1))
    mag = np.abs(np.fft.rfft(yc))
    k = int(np.argmax(mag[1:])) + 1
    return max(freqs[k], 1.0 / (t[-1] - t[0]))


_FIT_PARAMS = {
    FitModel.EXP_DECAY: ("a", "tau", "c"),
    FitModel.DAMPED_COSINE: ("a", "tau", "f", "phi", "c"),
    FitModel.RABI_SINUSOID: ("a", "f", "phi", "c"),
}


def fit_curve(model: FitModel | str, times_s, values) -> FitResult:
    """Least-squares fit of a decay/oscillation model to sampled data.

    Models: exp_decay  a*exp(-t/tau) + c
            damped_cosine  a*exp(-t/tau)*cos(2 pi f t + phi) + c
            rabi_sinusoid  a*cos(2 pi f t + phi) + c
    """
    model = FitModel(model)
    t = np.asarray(times_s, dtype=float)
    y = np.asarray(values, dtype=float)
    names = _FIT_PARAMS[model]
    if len(t) < 4 * len(names):
        raise FitError(f"need at least {4 * len(names)} points for {model.value}, got {len(t)}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitError(f"{model.value} fit needs finite times and values")
    if not np.ptp(t) > 0:
        raise FitError(f"{model.value} fit needs times spanning a nonzero interval")
    if model is FitModel.EXP_DECAY:
        def f(t, a, tau, c):
            return a * np.exp(-t / tau) + c

        span = max(t[-1] - t[0], np.finfo(float).tiny)
        p0 = (y[0] - y[-1], span / 2.0, y[-1])
    elif model is FitModel.DAMPED_COSINE:
        def f(t, a, tau, f0, phi, c):
            return a * np.exp(-t / tau) * np.cos(TWO_PI * f0 * t + phi) + c

        p0 = (0.5 * (y.max() - y.min()), (t[-1] - t[0]), _guess_freq(t, y), 0.0, y.mean())
    else:
        def f(t, a, f0, phi, c):
            return a * np.cos(TWO_PI * f0 * t + phi) + c

        p0 = (0.5 * (y.max() - y.min()), _guess_freq(t, y), 0.0, y.mean())

    try:
        # A noise-free decay can leave the covariance singular; sigma then
        # reads inf, which callers report, so the warning is not printed.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(f, t, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"{model.value} fit did not converge: {exc}") from exc
    if not np.all(np.isfinite(popt)):
        raise FitError(f"{model.value} fit did not converge: non-finite parameters")
    resid = float(np.linalg.norm(f(t, *popt) - y))
    params = dict(zip(names, (float(v) for v in popt)))
    # Report rates/frequencies as positive magnitudes.
    for key in ("tau", "f"):
        if key in params:
            params[key] = abs(params[key])
    with np.errstate(invalid="ignore"):
        sig = np.sqrt(np.abs(np.diag(pcov)))
    sigma = dict(zip(names, (float(v) for v in sig)))
    return FitResult(model, params, sigma, resid)
