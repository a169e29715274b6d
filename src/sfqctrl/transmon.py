"""Truncated-level transmon model: operators, SFQ pulse trains, fidelity metrics.

The transmon is modeled as a Duffing oscillator truncated to a few levels,
with level energies

    E_n / hbar = 2*pi * (f*n - (alpha/2)*n*(n-1))      [rad/s]

where ``f`` is the 0-1 transition frequency and ``alpha > 0`` the
anharmonicity (the 1-2 transition sits at ``f - alpha``).  SFQ pulses are
instantaneous kicks generated by ``(a^dag - a)``; in the two-level
truncation a kick of tip angle ``theta`` is exactly ``Ry(theta)``.

Frame convention
----------------
All simulations run in the lab frame.  A gate realized over a window of
length ``T`` is reported as the *anchored* unitary

    U_anchored = exp(+i*H0*T) @ U_lab

with ``H0`` the free Hamiltonian at the qubit's actual (drifted)
frequency.  In this frame free evolution is exactly the identity, so an
idle clock cycle is error-free and a z-rotation arises only from shifting
subsequent pulses in time.  The anchored train is therefore the ordered
product of one conjugated kick per pulse,

    pulse_train_unitary = prod_s F(s)^dag K F(s),   F(s) = exp(-i*H0*s*tau),

later pulses on the left, with ``K`` the kick and ``s`` the pulse's cycle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TransmonSpec:
    """Physical parameters of one transmon qubit.

    Parameters
    ----------
    nominal_freq : float
        Design-time 0-1 transition frequency in Hz.  Scheduling and
        bitstream design use this value.
    anharmonicity : float
        Positive anharmonicity in Hz; the 1-2 transition is lower by this.
    levels : int
        Truncation dimension (>= 2); levels 0 and 1 are the qubit, the
        rest carry leakage.  Single-qubit work uses six levels.
    drift : float
        Actual minus nominal frequency in Hz.  All simulations use the
        actual frequency ``nominal_freq + drift``.
    """

    nominal_freq: float
    anharmonicity: float = 250e6
    levels: int = 6
    drift: float = 0.0

    def __post_init__(self):
        if not isinstance(self.levels, numbers.Integral) or self.levels < 2:
            raise ValueError(f"levels must be an integer >= 2, got {self.levels}")
        for name in ("nominal_freq", "anharmonicity"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not abs(self.drift) < self.nominal_freq:
            raise ValueError(f"drift must be finite with |drift| < nominal_freq, "
                             f"got {self.drift}")

    @property
    def actual_freq(self) -> float:
        """Frequency used by all simulations: nominal plus drift, in Hz."""
        return self.nominal_freq + self.drift

    def with_drift(self, drift: float) -> "TransmonSpec":
        """Copy of this spec with a different drift."""
        return replace(self, drift=drift)


@dataclass(frozen=True)
class FidelityReport:
    """Average gate fidelity of a projected evolution; ``error = 1 - avg_gate_fidelity``."""

    avg_gate_fidelity: float
    error: float


def annihilation(levels: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)


def level_energies(freq: float, anharmonicity: float, levels: int) -> np.ndarray:
    """Diagonal of the free Hamiltonian in rad/s: 2*pi*(f*n - (alpha/2)*n*(n-1))."""
    n = np.arange(levels, dtype=float)
    return 2.0 * np.pi * (freq * n - 0.5 * anharmonicity * n * (n - 1.0))


@cache
def _kick_eig(levels: int):
    gen = annihilation(levels)
    gen = gen.conj().T - gen  # a^dag - a, anti-Hermitian
    lam, v = np.linalg.eig(gen)
    return lam, v, np.linalg.inv(v)


def sfq_kick(spec: TransmonSpec, tip_angle: float | np.ndarray) -> np.ndarray:
    """Instantaneous SFQ-pulse unitary exp((tip_angle/2) * (a^dag - a)).

    In the two-level truncation this is exactly ``Ry(tip_angle)``.  An
    array of tip angles gives a stack of kicks, each equal to the scalar
    call bit for bit.
    """
    lam, v, vi = _kick_eig(spec.levels)
    tips = np.asarray(tip_angle, dtype=float)
    d = np.zeros(tips.shape + (spec.levels, spec.levels), dtype=complex)
    k = np.arange(spec.levels)
    d[..., k, k] = np.exp(0.5 * tips[..., None] * lam)
    return np.ascontiguousarray(v @ d @ vi)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of U^dag U from the identity."""
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(d).max())


def checked_finite(name: str, value: float, nonnegative: bool = False) -> float:
    """``value`` as a float; ValueError naming it unless finite (and >= 0 if asked)."""
    value = float(value)
    if not np.isfinite(value) or (nonnegative and value < 0.0):
        bound = " and >= 0" if nonnegative else ""
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return value


def checked_target(target) -> np.ndarray:
    """``target`` as a complex array; ValueError unless a finite unitary 2x2 matrix."""
    v = np.asarray(target, dtype=complex)
    if v.shape != (2, 2) or not np.isfinite(v).all() or unitarity_defect(v) > 1e-8:
        raise ValueError("target must be a finite unitary 2x2 matrix")
    return v


def pulse_train_unitary(
    spec: TransmonSpec,
    pulse_slots: Sequence[int],
    n_cycles: int,
    tip_angle: float | np.ndarray,
    clock_period: float,
) -> np.ndarray:
    """Anchored unitary of an SFQ pulse train on one transmon.

    A kick fires at the start of each cycle listed in ``pulse_slots``;
    the qubit evolves freely otherwise.  The returned unitary carries the
    frame correction ``exp(+i*H0*T)`` over the full ``n_cycles`` window,
    with ``H0`` at the actual (drifted) frequency.  An array of tip angles
    walks the slots once for a stack of trains, one per angle, each equal
    to the scalar call bit for bit.
    """
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    kick = sfq_kick(spec, tip_angle)
    u = np.broadcast_to(np.eye(spec.levels, dtype=complex), kick.shape)
    prev = 0
    for s in pulse_slots:
        if s < prev or s >= n_cycles:
            raise ValueError("pulse slots must be sorted and lie inside the window")
        gap = s - prev
        if gap:
            u = (np.exp(-1j * energies * gap * clock_period)[:, None]) * u
        u = kick @ u
        prev = s
    # trailing free evolution to the end of the window, then frame correction;
    # the two diagonals combine into the anchor phase at the last pulse time
    u = (np.exp(1j * energies * prev * clock_period)[:, None]) * u
    return u


def projected_errors(blocks: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Error ``1 - Fbar`` of each (..., >=2, >=2) block projected onto levels {0, 1}.

    Fbar = (Tr(E E^dag) + |Tr(target^dag E)|^2) / 6 with ``E`` a block's 2x2 corner
    and ``target`` a 2x2 gate, so leakage out of the qubit levels counts as error.
    """
    if target.shape != (2, 2) or np.ndim(blocks) < 2 or min(blocks.shape[-2:]) < 2:
        raise ValueError(f"target must be 2x2 and blocks at least 2x2, got shapes "
                         f"{target.shape} and {np.shape(blocks)}")
    e = np.ascontiguousarray(blocks[..., :2, :2])
    ee, tr = e @ e.conj().swapaxes(-1, -2), target.conj().T @ e
    tr = tr[..., 0, 0] + tr[..., 1, 1]
    mag = np.hypot(tr.real, tr.imag)  # the scalar abs bit for bit, which np.abs is not
    return 1.0 - ((ee[..., 0, 0] + ee[..., 1, 1]).real + mag * mag) / 6


def projected_fidelity(actual: np.ndarray, target: np.ndarray) -> FidelityReport:
    """:func:`projected_errors` of the one evolution ``actual``, as a report."""
    err = float(projected_errors(actual, target))
    return FidelityReport(avg_gate_fidelity=1.0 - err, error=err)


# --- small gate constructors used throughout the toolkit --------------------

def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def phase_gate(gamma: float) -> np.ndarray:
    """diag(1, e^{i*gamma}) — Rz(gamma) up to global phase."""
    return np.diag([1.0, np.exp(1j * gamma)])
