"""Power, multiplexing-capacity and cabling estimates for an N-qubit controller."""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .demux import DEFAULT_BANDWIDTH_HZ, DEFAULT_Q, DEFAULT_REF_FREQ_HZ
from .mixer import MAX_OUTPUT_POWER_PW, MAX_OUTPUT_POWER_DBM
from .signals import NumericError

STANDBY_PW = 1.92
PEAK_PW = 220.0


class ResourceError(NumericError, ValueError):
    """Invalid resource-estimate inputs."""


def power_estimate(n_qubits: int) -> tuple[float, float]:
    """(average pW per qubit, total average W); average of standby and peak."""
    if n_qubits < 1:
        raise ResourceError(f"need at least one qubit, got {n_qubits}")
    avg_pw = 0.5 * (STANDBY_PW + PEAK_PW)
    total_w = n_qubits * avg_pw * 1e-12
    if total_w == math.inf:
        raise ResourceError(f"total power of {n_qubits} qubits overflows")
    return avg_pw, total_w


def max_tones(
    q: float = DEFAULT_Q,
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
    ref_freq_hz: float = DEFAULT_REF_FREQ_HZ,
) -> int:
    """Tones per LO cable at one-linewidth spacing: floor(W Q / f_c)."""
    if not all(0 < v < math.inf for v in (q, bandwidth_hz, ref_freq_hz)):
        raise ResourceError("Q, bandwidth and reference frequency must be positive and finite")
    tones = bandwidth_hz * q / ref_freq_hz
    if tones == math.inf:
        raise ResourceError(f"W Q / f_c = {bandwidth_hz} * {q} / {ref_freq_hz} overflows")
    return int(math.floor(tones))


def cable_count(n_qubits: int, tones_per_cable: int) -> int:
    """LO cables needed; one additional shared IF cable serves the whole system."""
    if tones_per_cable < 1:
        raise ResourceError(f"tones per cable must be >= 1, got {tones_per_cable}")
    return math.ceil(n_qubits / tones_per_cable)


@dataclass(frozen=True)
class ResourceReport:
    n_qubits: int
    standby_pw_per_qubit: float
    peak_pw_per_qubit: float
    avg_pw_per_qubit: float
    total_avg_w: float
    max_tones_per_cable: int
    cable_count: int
    parallelism_worst: float
    parallelism_best: int
    max_output_power_pw: float = MAX_OUTPUT_POWER_PW
    max_output_power_dbm: float = MAX_OUTPUT_POWER_DBM

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        rows = [
            ("Qubits", f"{self.n_qubits}"),
            ("Standby power", f"{self.standby_pw_per_qubit:g} pW/qubit"),
            ("Peak power", f"{self.peak_pw_per_qubit:g} pW/qubit"),
            ("Average power", f"{self.avg_pw_per_qubit:g} pW/qubit"),
            ("Total average power", f"{self.total_avg_w:.6g} W"),
            ("Max mixer output", f"{self.max_output_power_pw:g} pW ({self.max_output_power_dbm:g} dBm)"),
            ("Tones per LO cable", f"{self.max_tones_per_cable}"),
            ("LO cables (+1 shared IF)", f"{self.cable_count}"),
            ("Parallelism (random phases)", f"{self.parallelism_worst:g}"),
            ("Parallelism (uniform workload)", f"{self.parallelism_best}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def resource_report(
    n_qubits: int,
    q: float = DEFAULT_Q,
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
    ref_freq_hz: float = DEFAULT_REF_FREQ_HZ,
) -> ResourceReport:
    avg_pw, total_w = power_estimate(n_qubits)
    tones = max_tones(q, bandwidth_hz, ref_freq_hz)
    return ResourceReport(
        n_qubits=n_qubits,
        standby_pw_per_qubit=STANDBY_PW,
        peak_pw_per_qubit=PEAK_PW,
        avg_pw_per_qubit=avg_pw,
        total_avg_w=total_w,
        max_tones_per_cable=tones,
        cable_count=cable_count(n_qubits, tones),
        parallelism_worst=n_qubits / 8.0,
        parallelism_best=n_qubits,
    )
