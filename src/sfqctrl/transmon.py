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
subsequent pulses in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        Truncation dimension (>= 2).  Six levels for single-qubit work,
        four per transmon for coupled pairs.
    drift : float
        Actual minus nominal frequency in Hz.  All simulations use the
        actual frequency ``nominal_freq + drift``.
    """

    nominal_freq: float
    anharmonicity: float = 250e6
    levels: int = 6
    drift: float = 0.0

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.anharmonicity <= 0:
            raise ValueError("anharmonicity must be > 0")
        if abs(self.drift) >= self.nominal_freq:
            raise ValueError("|drift| must be smaller than the nominal frequency")

    @property
    def actual_freq(self) -> float:
        """Frequency used by all simulations: nominal plus drift, in Hz."""
        return self.nominal_freq + self.drift

    def with_drift(self, drift: float) -> "TransmonSpec":
        """Copy of this spec with a different drift."""
        return replace(self, drift=drift)


@dataclass(frozen=True)
class FidelityReport:
    """Average gate fidelity of a projected evolution.

    ``error = 1 - avg_gate_fidelity``; ``leakage`` is the worst-case
    population escaping the computational subspace over computational
    basis inputs.
    """

    avg_gate_fidelity: float
    error: float
    leakage: float


def annihilation(levels: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)


def level_energies(freq: float, anharmonicity: float, levels: int) -> np.ndarray:
    """Diagonal of the free Hamiltonian in rad/s: 2*pi*(f*n - (alpha/2)*n*(n-1))."""
    n = np.arange(levels, dtype=float)
    return 2.0 * np.pi * (freq * n - 0.5 * anharmonicity * n * (n - 1.0))


def free_hamiltonian(spec: TransmonSpec) -> np.ndarray:
    """Free (Duffing) Hamiltonian of ``spec`` at its actual frequency.

    Returns the diagonal ``levels x levels`` matrix in angular-frequency
    units (rad/s).
    """
    return np.diag(level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)).astype(complex)


_KICK_EIG_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _kick_eig(levels: int):
    if levels not in _KICK_EIG_CACHE:
        gen = annihilation(levels)
        gen = gen.conj().T - gen  # a^dag - a, anti-Hermitian
        lam, v = np.linalg.eig(gen)
        _KICK_EIG_CACHE[levels] = (lam, v, np.linalg.inv(v))
    return _KICK_EIG_CACHE[levels]


def sfq_kick(spec: TransmonSpec, tip_angle: float) -> np.ndarray:
    """Instantaneous SFQ-pulse unitary exp((tip_angle/2) * (a^dag - a)).

    In the two-level truncation this is exactly ``Ry(tip_angle)``.
    """
    lam, v, vi = _kick_eig(spec.levels)
    u = v @ np.diag(np.exp(0.5 * tip_angle * lam)) @ vi
    return np.ascontiguousarray(u)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of U^dag U from the identity."""
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(d).max())


def pulse_train_unitary(
    spec: TransmonSpec,
    pulse_slots: Sequence[int],
    n_cycles: int,
    tip_angle: float,
    clock_period: float,
) -> np.ndarray:
    """Anchored unitary of an SFQ pulse train on one transmon.

    A kick fires at the start of each cycle listed in ``pulse_slots``;
    the qubit evolves freely otherwise.  The returned unitary carries the
    frame correction ``exp(+i*H0*T)`` over the full ``n_cycles`` window,
    with ``H0`` at the actual (drifted) frequency.
    """
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    kick = sfq_kick(spec, tip_angle)
    u = np.eye(spec.levels, dtype=complex)
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


def _comp_indices(subsystem_dims: Sequence[int], comp_levels: Sequence[Sequence[int]]) -> np.ndarray:
    """Full-space indices of the computational subspace (row-major subsystems)."""
    idx = np.array([0])
    for dim, keep in zip(subsystem_dims, comp_levels):
        if any(k >= dim for k in keep):
            raise ValueError("computational level index exceeds subsystem dimension")
        idx = (idx[:, None] * dim + np.asarray(list(keep))[None, :]).ravel()
    return idx


def projected_fidelity(
    actual: np.ndarray,
    target: np.ndarray,
    subsystem_dims: Sequence[int] | None = None,
    comp_levels: Sequence[Sequence[int]] | None = None,
) -> FidelityReport:
    """Average gate fidelity of ``actual`` projected onto the computational subspace.

    With ``E = P @ actual @ P`` restricted to the d-dimensional
    computational block,

        Fbar = (Tr(E E^dag) + |Tr(target^dag E)|^2) / (d*(d+1))

    so any population leaking out of the subspace is captured as
    additional error.  ``leakage`` reports the worst-case escaped
    population over computational basis inputs.

    Parameters
    ----------
    actual : ndarray
        Full-space unitary (dimension = product of ``subsystem_dims``).
    target : ndarray
        Computational-space target (d x d, d = product of kept levels).
    subsystem_dims : sequence of int, optional
        Dimension of each subsystem; defaults to one subsystem spanning
        all of ``actual``.
    comp_levels : sequence of sequences, optional
        Levels kept per subsystem; defaults to ``[0, 1]`` each.
    """
    if subsystem_dims is None:
        subsystem_dims = [actual.shape[0]]
    if comp_levels is None:
        comp_levels = [[0, 1]] * len(subsystem_dims)
    if int(np.prod(subsystem_dims)) != actual.shape[0]:
        raise ValueError("subsystem dimensions do not match the actual unitary")
    idx = _comp_indices(subsystem_dims, comp_levels)
    d = target.shape[0]
    if len(idx) != d:
        raise ValueError(
            f"target dimension {d} does not match computational subspace size {len(idx)}"
        )
    e = actual[np.ix_(idx, idx)]
    fbar = (np.trace(e @ e.conj().T).real + abs(np.trace(target.conj().T @ e)) ** 2) / (d * (d + 1))
    fbar = float(fbar)
    kept = np.sum(np.abs(actual[np.ix_(idx, idx)]) ** 2, axis=0)
    leakage = float(1.0 - kept.min())
    return FidelityReport(avg_gate_fidelity=fbar, error=1.0 - fbar, leakage=leakage)


# --- small gate constructors used throughout the toolkit --------------------

def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def phase_gate(gamma: float) -> np.ndarray:
    """diag(1, e^{i*gamma}) — Rz(gamma) up to global phase."""
    return np.diag([1.0, np.exp(1j * gamma)])
