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
Only propagate takes and returns density matrices. fit_curve fits by
variable projection in numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mixer import DriveEnvelope
from .signals import NumericError, raise_first

_EPS = float(np.finfo(float).eps)
# validate_density_matrix's bound on trace error, anti-Hermitian part and
# negative eigenvalues.
DENSITY_TOL = 1e-9

# The Bloch vector (1, x, y, z) of the ground state, and the readout row that
# takes a Bloch vector to its excited-state population p1 = (1 - z)/2.
BLOCH_GROUND = np.array([1.0, 0.0, 0.0, 1.0])
BLOCH_P1 = np.array([0.5, 0.0, 0.0, -0.5])


class QubitError(NumericError, ValueError):
    """Invalid qubit parameters or state."""


class FitError(NumericError, RuntimeError):
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
        """Decoherence-free twin."""
        return QubitParams(self.f_qubit_hz, math.inf, math.inf)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise QubitError(f"density matrix must be 2x2, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > DENSITY_TOL:
        raise QubitError(f"trace {np.trace(rho)} != 1")
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise QubitError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -DENSITY_TOL:
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
        if not np.all(np.isfinite(self.times_s)):
            raise QubitError("trajectory times must be finite")
        if np.any(np.diff(self.times_s) < 0):
            raise QubitError("trajectory times must be monotone")
        raise_first(POPULATION_CHECKS, p1=self.p1)


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
    wx, wy, wz = math.tau * dt * s.real, math.tau * dt * s.imag, dt * delta_rad
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


def propagate(
    q: QubitParams,
    drive: DriveEnvelope,
    rho0: np.ndarray,
    times_s=None,
) -> Trajectory:
    """Exact Lindblad propagation of a sample-and-hold drive.

    Each maximal run of equal samples between report times is one held
    map of ``_held_maps``. p1 is reported at ``times_s`` (sorted, inside [0,
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
    # Cut the drive at its sample-run starts, its end and the report times.
    s = drive.samples
    starts = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1))  # runs of equal samples
    t_starts = starts / drive.envelope_rate_hz
    cuts = np.union1d(np.append(t_starts, drive.duration_s), times)
    held = s[starts[np.searchsorted(t_starts, cuts[:-1], side="right") - 1]]
    delta = math.tau * (drive.carrier_hz - q.f_qubit_hz)
    steps = _held_maps(q.t1_s, q.tphi_s, delta, held, np.diff(cuts))
    (r00, r01), (r10, r11) = rho0
    states = np.empty((len(cuts), 4))
    states[0] = np.array([r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11]).real
    for j, step in enumerate(steps):
        states[j + 1] = step @ states[j]
    p1 = states[np.searchsorted(cuts, times)] @ BLOCH_P1
    if len(steps):
        v, x, y, z = states[-1]
        rho0 = 0.5 * np.array([[v + z, x - 1j * y], [x + 1j * y, v - z]])
    return Trajectory(times, np.clip(p1, 0.0, 1.0), rho0)


def check_delays(t_s) -> np.ndarray:
    """``t_s`` as a flat float array. Raises QubitError for a negative or
    non-finite delay."""
    t = np.asarray(t_s, dtype=float).reshape(-1)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise QubitError("negative delay" if np.any(t < 0.0) else "delays must be finite")
    return t


def delay_maps(q: QubitParams, t_s, delta_rad: float = 0.0) -> np.ndarray:
    """Drive-free Bloch maps of ``_drive_free_maps``, one (4, 4) per delay
    that ``check_delays`` passes."""
    return _drive_free_maps(q.t1_s, q.tphi_s, delta_rad, check_delays(t_s))


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


_FIT_PARAMS = {
    FitModel.EXP_DECAY: ("a", "tau", "c"),
    FitModel.DAMPED_COSINE: ("a", "tau", "f", "phi", "c"),
    FitModel.RABI_SINUSOID: ("a", "f", "phi", "c"),
}


def _solve(a: np.ndarray, b: np.ndarray, d=(0.0, 0.0)) -> np.ndarray:
    """(a + diag(d))^-1 b for a 1x1 or 2x2 ``a``, by the adjugate
    (np.linalg.solve's overhead is a quarter of a fit step); non-finite if
    singular."""
    if len(a) == 1:
        return b / (a[0, 0] + d[0])
    (p, q), (r, s) = a.tolist()
    p, s = p + d[0], s + d[1]
    return np.array([[s, -q], [-r, p]]) @ b / (p * s - q * r)


def _project(model: FitModel, theta: np.ndarray, u: np.ndarray, y: np.ndarray):
    """Variable projection at the rate g and/or frequency nu in ``theta`` (units
    of u), over the columns exp(-g u), or cos(w) and sin(w)/(2 pi nu), w = 2 pi
    nu u, times exp(-g u) if damped: their coefficients beta and c, the residual,
    and the normal matrix and gradient of theta in Kaufman's projected form
    (BIT 15, 1975)."""
    e = np.exp(-theta[0] * u) if model is not FitModel.RABI_SINUSOID else 1.0
    if model is FitModel.EXP_DECAY:
        cols = [e, u * e]  # the linear column, then the derivative columns
    else:
        nu = theta[-1]
        cos, sin = e * np.cos((math.tau * nu) * u), e * np.sin((math.tau * nu) * u) / (math.tau * nu)
        cols = [cos, sin, u * cos, u * sin, (u * cos - sin) / nu]
        if model is FitModel.RABI_SINUSOID:
            del cols[2]  # no rate
    x = np.column_stack([*cols, y])
    mean = (1.0 / len(u)) * (np.ones(len(u)) @ x)
    x -= mean  # projects out the constant c
    k = 1 if model is FitModel.EXP_DECAY else 2
    gram = x.T @ x
    sol = _solve(gram[:k, :k], gram[:k, k:])
    beta = sol[:, -1]
    r = x[:, -1] - x[:, :k] @ beta
    if k == 2:  # one step of iterative refinement: the normal equations square
        # the condition number of cos and sin, which is large under one cycle.
        beta = beta + _solve(gram[:k, :k], x[:, :k].T @ r)
        r = x[:, -1] - x[:, :k] @ beta
    # The model's derivatives in theta are x[:, k:-1] @ dw.
    if model is FitModel.EXP_DECAY:
        dw = -beta[:, None]
    else:
        dw = np.array([[-beta[0], 0.0], [-beta[1], -math.tau**2 * nu * beta[0]], [0.0, beta[1]]])
        dw = dw[1:, 1:] if model is FitModel.RABI_SINUSOID else dw
    normal = dw.T @ (gram[k:-1, k:-1] - gram[:k, k:-1].T @ sol[:, :-1]) @ dw
    grad = dw.T @ (x[:, k:-1].T @ r)
    if model is not FitModel.EXP_DECAY:
        # The cost is even in nu, so its slope over nu is a curvature too; where
        # it is the larger, as nu -> 0, Gauss-Newton's would overshoot to -nu.
        normal[-1, -1] = max(normal[-1, -1], -grad[-1] / nu)
    return beta, mean[-1] - mean[:k] @ beta, r, normal, grad


def _variable_projection(model: FitModel, theta: np.ndarray, u: np.ndarray, y: np.ndarray):
    """Levenberg-Marquardt over theta alone (Golub and Pereyra, SIAM J. Numer.
    Anal. 10, 1973): (theta, projection) where it stops, or after 100 steps (a
    best fit at infinity, such as a decay fitted to noise, never stops)."""
    state = _project(model, theta, u, y)
    cost, lam, yy, scale = state[2] @ state[2], 1e-3, y @ y, 0.0
    for _ in range(100):
        # Damp by the largest curvature seen (More, 1978): the frequency's own
        # can vanish as nu -> 0, where it would leave nu undamped.
        scale = np.maximum(scale, state[3].diagonal())
        step = _solve(state[3], state[4], lam * scale)
        # Stop once the predicted gain is below the rounding of the cost (or NaN).
        if not step @ state[4] > _EPS * math.sqrt(cost * yy):
            break
        trial = _project(model, theta + step, u, y)
        if trial[2] @ trial[2] < cost:
            theta, state, cost, lam = theta + step, trial, trial[2] @ trial[2], 0.1 * lam
        elif lam > 1e10:
            break
        else:
            lam *= 10.0
    return theta, state


def fit_curve(model: FitModel | str, times_s, values) -> FitResult:
    """Least-squares fit of a decay/oscillation model to sampled data.

    Models: exp_decay  a*exp(-t/tau) + c
            damped_cosine  a*exp(-t/tau)*cos(2 pi f t + phi) + c
            rabi_sinusoid  a*cos(2 pi f t + phi) + c

    Only the rate 1/tau and f are searched, from 2/span (exp_decay) or 1/span
    and the largest FFT bin, and again from half a cycle if f ends under one
    cycle per span. Such a damped cosine is also fitted as a plain decay (f = 0),
    kept if its residual is smaller. sigma**2 is
    the diagonal of (J^T J)^-1 residual**2 / (points - parameters), inf if the
    Jacobian J is singular. tau is inf when the trace shows no decay (README).
    """
    model = FitModel(model)
    t = np.asarray(times_s, dtype=float)
    y = np.asarray(values, dtype=float)
    names = _FIT_PARAMS[model]
    m = len(t)
    if m < 4 * len(names):
        raise FitError(f"need at least {4 * len(names)} points for {model.value}, got {m}")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitError(f"{model.value} fit needs finite times and values")
    span = float(t.max() - t.min())
    if not span > 0:
        raise FitError(f"{model.value} fit needs times spanning a nonzero interval")
    # Fit in units of the span and of max |y|, so that the rate g, the frequency
    # nu and the singular-value test are scale-free.
    scale = float(np.abs(y).max()) or 1.0
    u, yn = t / span, y / scale
    theta = [2.0]  # exp_decay: rate 2/span
    if model is not FitModel.EXP_DECAY:  # rate 1/span and the largest nonzero FFT bin
        nu = max((int(np.abs(np.fft.rfft(yn - yn.mean()))[1:].argmax()) + 1) * (m - 1) / m, 1.0)
        theta = [nu] if model is FitModel.RABI_SINUSOID else [1.0, nu]
    with np.errstate(all="ignore"):
        start, (theta, state) = theta, _variable_projection(model, np.array(theta), u, yn)
        if model is not FitModel.EXP_DECAY and abs(theta[-1]) < 1.0:
            # Under one cycle, the search from the 1-cycle floor can stop in a
            # valley towards nu = 0: also start from half a cycle.
            half = _variable_projection(model, np.array([*start[:-1], 0.5]), u, yn)
            if half[1][2] @ half[1][2] < state[2] @ state[2]:
                theta, state = half
    beta, c, r, _, _ = state
    if not (np.isfinite(theta).all() and np.isfinite(beta).all()):
        raise FitError(f"{model.value} fit did not converge: non-finite parameters")
    g = theta[0] if model is not FitModel.RABI_SINUSOID else 0.0
    a, nu, phi = beta[0], 0.0, 0.0
    if model is not FitModel.EXP_DECAY:  # a cos(w + phi) = a cos(phi) cos(w) - a sin(phi) sin(w)
        nu = abs(theta[-1])
        a_sin = -beta[1] / (math.tau * nu)
        a, phi = math.hypot(a, a_sin), math.atan2(a_sin, a)
    # The Jacobian at the solution, in the fit's units (the rate g for tau).
    e, psi = np.exp(-g * u), (math.tau * nu) * u + phi
    d_a, d_phi = e * np.cos(psi), -a * e * np.sin(psi)
    jac = {"a": d_a, "tau": -a * u * d_a, "f": math.tau * u * d_phi, "phi": d_phi, "c": np.ones(m)}
    _, sv, vt = np.linalg.svd(np.column_stack([jac[k] for k in names]), full_matrices=False)
    cost = float(r @ r)
    sig = unit = np.full(len(names), math.inf)  # unit: sigma at a noise of 1
    if sv[-1] > _EPS * m * sv[0]:
        unit = np.sqrt(((vt / sv[:, None]) ** 2).sum(axis=0))
        sig = unit * math.sqrt(cost / (m - len(names)))
    sig, unit = dict(zip(names, sig)), dict(zip(names, unit))
    sigma = {k: sig[k] * {"a": scale, "f": 1.0 / span, "c": scale}.get(k, 1.0) for k in names}
    params = {"a": a * scale, "f": nu / span, "phi": phi, "c": c * scale}
    if "tau" in names:
        # No decay: the amplitude within its sigma, or the rate within its sigma
        # at a noise of at least 1000 ulps of max |y| (a simulated trace's
        # rounding error is not white noise).
        decays = abs(g) > max(sig["tau"], 1e3 * _EPS * unit["tau"]) and abs(a) > sig["a"]
        params["tau"], sigma["tau"] = (span / g, sig["tau"] * span / g**2) if decays else (
            math.inf, math.inf)
    residual = math.sqrt(cost) * scale
    if model is FitModel.DAMPED_COSINE and nu < 1.0:
        decay = fit_curve(FitModel.EXP_DECAY, t, y)
        if decay.residual < residual:
            params = {**decay.params, "a": abs(decay.params["a"]), "f": 0.0,
                      "phi": math.pi * (decay.params["a"] < 0)}
            sigma, residual = {**decay.sigma, "f": math.inf, "phi": math.inf}, decay.residual
    return FitResult(model, {k: float(params[k]) for k in names},
                     {k: float(sigma[k]) for k in names}, residual)
