"""Two-level transmon dynamics in the drive rotating frame.

The density matrix evolves under
    drho/dt = -i[H, rho] + (1/T1) D[sigma-] rho + (1/(2 Tphi)) D[sigma_z] rho
with H = (delta/2) sigma_z + (Omega_re sigma_x + Omega_im sigma_y)/2,
Omega(t) = 2 pi * envelope(t) and delta = 2 pi (carrier - f_qubit).
Drives are sample-and-hold, so propagation is exact: a product of 4x4
exponentials, with no step size to choose. Basis: index 0 = ground, index
1 = excited; p1 = rho[1, 1].

States are real Bloch vectors v = (1, x, y, z), with rho = (I + x sigma_x +
y sigma_y + z sigma_z)/2, and maps are real 4x4: there the Lindblad
generator is the Bloch equations and, without T1 or Tphi, a pure rotation
of (x, y, z). Rotations are exact (Rodrigues); other slices go through numpy
degree-13 Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
2005). Drive-free time, a held zero sample included, has its own closed form.
Only propagate takes and returns density matrices. Only fit_curve needs an
optimizer, and it imports one on its first call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mixer import DriveEnvelope
from .signals import raise_first

TWO_PI = 2.0 * math.pi

# The Bloch vector (1, x, y, z) of the ground state, and the readout row that
# takes a Bloch vector to its excited-state population p1 = (1 - z)/2.
BLOCH_GROUND = np.array([1.0, 0.0, 0.0, 1.0])
BLOCH_P1 = np.array([0.5, 0.0, 0.0, -0.5])


class QubitError(ValueError):
    """Invalid qubit parameters or state."""


class FitError(RuntimeError):
    """Curve fit did not converge."""


# A Trajectory's check of its p1, which NaN fails.
POPULATION_CHECKS = (
    (QubitError, "populations out of [0, 1]",
     lambda f: (f["p1"] >= -1e-9) & (f["p1"] <= 1.0 + 1e-9)),
)


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
        raise_first(POPULATION_CHECKS, p1=self.p1)


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


_EYE4 = np.eye(4)
_HALVES = np.array([1.0, 0.5])


# Higham's (2005) degree-13 Pade numerator coefficients b_0..b_13, and theta_13,
# the largest 1-norm it takes to double precision.
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
      129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
      40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA = 5.371920351148152
# A norm past theta_13 2^52 needs over 52 squarings, after which the rounding
# error of a rotation can reach order one: such a step, or a non-finite one,
# gives a NaN map.
_NORM_MAX = _THETA * 2.0**52


def _bloch_generator(t1_s, tphi_s, delta_rad, sample_hz, dt_s) -> np.ndarray:
    """The Lindblad generator times dt in the Bloch basis, over the broadcast
    arguments: the Bloch equations. (x, y, z) rotates about
    (2 pi Re s, 2 pi Im s, delta); z relaxes to 1 at 1/T1; x and y decay at 1/T2."""
    s, dt = np.asarray(sample_hz), np.asarray(dt_s)
    decay, dephase = dt / t1_s, dt / tphi_s
    wx, wy, wz = TWO_PI * dt * s.real, TWO_PI * dt * s.imag, dt * delta_rad
    gen = np.zeros(np.broadcast(decay, dephase, wx, wy, wz).shape + (4, 4))
    gen[..., 3, 2], gen[..., 1, 3], gen[..., 2, 1] = wx, wy, wz
    gen -= np.swapaxes(gen, -1, -2)  # the rotation is antisymmetric
    gen[..., 3, 0] = decay
    gen[..., 3, 3] = -decay
    gen[..., 1, 1] = gen[..., 2, 2] = -0.5 * decay - dephase
    return gen


def _rotation_maps(gen: np.ndarray) -> np.ndarray:
    """exp of each (4, 4) rotation generator in the stack, in closed form:
    I + sin(t)/t G + (1 - cos t)/t^2 G^2, t = |(x, y, z) rotation angle|."""
    angle = np.hypot(np.hypot(gen[:, 3, 2], gen[:, 1, 3]), gen[:, 2, 1])
    # A zero angle takes the t -> 0 limits (a tiny t gives them exactly).
    angle = np.where(angle <= _NORM_MAX, np.maximum(angle, 1e-300), np.nan)
    x = angle[:, None] * _HALVES
    sinc = np.sin(x) / x
    maps = gen @ gen
    maps *= 0.5 * sinc[:, 1, None, None] ** 2
    maps += sinc[:, 0, None, None] * gen
    maps += _EYE4
    return maps


def _pade_maps(gen: np.ndarray) -> np.ndarray:
    """exp of each (4, 4) slice in the stack by degree-13 Pade scaling and
    squaring, the squarings per slice. Every step is per slice (elementwise or
    a product of 4x4 slices), so a slice's map does not depend on its stack."""
    norm = np.abs(gen).sum(axis=1).max(axis=1)
    bad = ~(norm <= _NORM_MAX)
    norm[bad] = 0.0
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA) / _THETA)).astype(int)
    a = np.where(bad[:, None, None], 0.0, gen) * np.ldexp(1.0, -squarings)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B
    # Higham's odd part U and even part V, from I, A^2, A^4 and A^6 only.
    u = a @ (a6 @ (b[9] * a2 + b[11] * a4 + b[13] * a6)
             + b[1] * _EYE4 + b[3] * a2 + b[5] * a4 + b[7] * a6)
    v = (a6 @ (b[8] * a2 + b[10] * a4 + b[12] * a6)
         + b[0] * _EYE4 + b[2] * a2 + b[4] * a4 + b[6] * a6)
    # exp is (V - U)^-1 (V + U) = I + X with X = 2 (V - U)^-1 U. X is carried
    # and squared as X <- X X + 2 X, so an eigenvalue near 1 keeps its digits.
    # The generator's first row is 0 (the trace is kept), so X's is exactly 0.
    x = 2.0 * np.linalg.solve(v - u, u)
    x[:, 0] = 0.0
    for _ in range(squarings.min()):
        x = x @ x + 2.0 * x
    for k in range(squarings.min(), squarings.max()):
        live = np.flatnonzero(squarings > k)
        x[live] = x[live] @ x[live] + 2.0 * x[live]
    maps = x + _EYE4
    maps[bad] = np.nan
    return maps


def _held_maps(t1_s, tphi_s, delta_rad, sample_hz, dt_s) -> np.ndarray:
    """The Bloch map (4, 4) of a sample s (Hz) held for dt, the exponential of
    _bloch_generator, stacked over the broadcast array arguments: the one
    exponential of the drive model.

    A zero sample is drive-free time and takes its closed form,
    _drive_free_maps. Any other slice without dissipation (T1 = Tphi = inf,
    or dt = 0) is a rotation, in closed form, and the rest go through Pade. A
    step whose generator norm passes _NORM_MAX or is not finite gives a NaN
    map, which every caller rejects (a population or angle-error check),
    without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _bloch_generator(t1_s, tphi_s, delta_rad, sample_hz, dt_s)
        shape = gen.shape[:-2]
        free = np.broadcast_to(np.asarray(sample_hz) == 0, shape)
        rotation = ~gen.diagonal(0, -2, -1).any(axis=-1) & ~free
        pade = ~(free | rotation)
        maps = np.empty(gen.shape)
        if free.any():
            maps[free] = _drive_free_maps(
                *(np.broadcast_to(a, shape)[free] for a in (t1_s, tphi_s, delta_rad, dt_s)))
        if rotation.any():
            maps[rotation] = _rotation_maps(gen[rotation])
        if pade.any():
            maps[pade] = _pade_maps(gen[pade])
    return maps


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

    Each maximal run of equal samples between report times is one held
    map of ``_held_maps``; equal (sample, duration) pairs share one
    exponential. p1 is reported at ``times_s`` (sorted, inside [0,
    duration]; default: start and end of the drive) and ``rho_final`` is the
    state at the end of the drive (``rho0`` itself if the drive is empty).
    rho0 becomes a Bloch vector on entry, and back on exit.
    """
    rho0 = validate_density_matrix(rho0)
    duration = drive.duration_s
    times = np.array([0.0, duration]) if times_s is None else np.asarray(times_s, dtype=float)
    if times.ndim != 1 or not np.all((times >= 0.0) & (times <= duration)):
        raise QubitError(f"report times must lie in [0, {duration:.6g}] s")
    if np.any(np.diff(times) < 0):
        raise QubitError("report times must be sorted")
    cuts, steps, which = _held_steps(q, drive, times)
    (r00, r01), (r10, r11) = rho0
    states = np.empty((len(cuts), 4))
    states[0] = np.array([r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11]).real
    for j, k in enumerate(which):
        states[j + 1] = steps[k] @ states[j]
    p1 = states[np.searchsorted(cuts, times)] @ BLOCH_P1
    if len(which):
        v, x, y, z = states[-1]
        rho0 = 0.5 * np.array([[v + z, x - 1j * y], [x + 1j * y, v - z]])
    return Trajectory(times, np.clip(p1, 0.0, 1.0), rho0)


def delay_maps(q: QubitParams, t_s, delta_rad: float = 0.0) -> np.ndarray:
    """Drive-free Bloch maps of ``_drive_free_maps``, one (4, 4) per delay.
    Raises QubitError for a negative or non-finite delay.
    """
    t = np.asarray(t_s, dtype=float).reshape(-1)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise QubitError("negative delay" if np.any(t < 0.0) else "delays must be finite")
    return _drive_free_maps(q.t1_s, q.tphi_s, delta_rad, t)


def _drive_free_maps(t1_s, tphi_s, delta_rad, t_s) -> np.ndarray:
    """Drive-free Bloch maps (..., 4, 4) over the broadcast arguments, in
    closed form: z relaxes to 1 at 1/T1, and (x, y) decays at 1/T2 while it
    rotates by delta t. The one map of drive-free time. A delta t that
    overflows, or a delta that did, gives a NaN map without a warning."""
    t = np.asarray(t_s)
    relax = np.exp(-t / t1_s)
    decay = np.exp(-t * (0.5 / t1_s + 1.0 / tphi_s))
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = decay * np.cos(delta_rad * t), decay * np.sin(delta_rad * t)
    maps = np.zeros(np.broadcast(relax, cos).shape + (4, 4))
    maps[..., 0, 0] = 1.0
    maps[..., 1, 1] = maps[..., 2, 2] = cos
    maps[..., 2, 1], maps[..., 1, 2] = sin, -sin
    maps[..., 3, 3] = relax
    maps[..., 3, 0] = 1.0 - relax
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
    from scipy.optimize import OptimizeWarning, curve_fit  # loaded on the first fit

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
