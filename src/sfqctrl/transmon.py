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
subsequent pulses in time.  ``pulse_train_stack`` is the one walker that
simulates whole trains (calibration, and the bitstream design's stage-1
scan and tip refinement): kick, free evolution exp(-i*H0*g*tau) over each
gap of g cycles, kick, ..., then the diagonal exp(+i*H0*s*tau) that
anchors the train at its last pulse s.  A train's unitary is therefore
the same bit for bit in whichever stack it is walked.  Equivalently, the
anchored train is the ordered product of one conjugated kick per pulse,

    prod_s F(s)^dag K F(s),   F(s) = exp(-i*H0*s*tau),

later pulses on the left, with ``K`` the kick and ``s`` the pulse's cycle.
The bitstream descent scores its candidates from these per-cycle kicks
(``bitstream._cycle_kicks``); their product agrees with the walker within
1e-12, not bit for bit.
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
        checked_int("levels", self.levels, 2)
        checked_finite("nominal_freq", self.nominal_freq, "> 0")
        checked_finite("anharmonicity", self.anharmonicity, "> 0")
        if not abs(checked_finite("drift", self.drift)) < self.nominal_freq:
            raise ValueError(f"drift must satisfy |drift| < nominal_freq, got {self.drift}")

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
    return np.diag(np.sqrt(np.arange(1, checked_int("levels", levels, 1))), 1).astype(complex)


def level_energies(freq: float, anharmonicity: float, levels: int) -> np.ndarray:
    """Diagonal of the free Hamiltonian in rad/s: 2*pi*(f*n - (alpha/2)*n*(n-1))."""
    freq, alpha = checked_finite("freq", freq), checked_finite("anharmonicity", anharmonicity)
    n = np.arange(checked_int("levels", levels, 1), dtype=float)
    return 2.0 * np.pi * (freq * n - 0.5 * alpha * n * (n - 1.0))


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
    call bit for bit.  ValueError unless every tip angle is a finite real, not a bool.
    """
    tips = np.asarray(tip_angle)
    given = () if isinstance(tip_angle, np.ndarray) else np.asarray(tip_angle, dtype=object).flat
    bad = [t for t in given if isinstance(t, (bool, np.bool_))]  # np.asarray made them 1.0
    if bad or tips.dtype.kind not in "iuf" or not np.isfinite(tips).all():
        bad = bad or (tips if tips.dtype.kind not in "iuf" else tips[~np.isfinite(tips)])
        raise ValueError(f"tip_angle must be finite reals, got {np.ravel(bad)[0].item()!r}")
    lam, v, vi = _kick_eig(spec.levels)
    d = np.zeros(tips.shape + (spec.levels, spec.levels), dtype=complex)
    k = np.arange(spec.levels)
    d[..., k, k] = np.exp(0.5 * tips[..., None] * lam)
    return np.ascontiguousarray(v @ d @ vi)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of U^dag U from the identity; ValueError unless finite and square."""
    u = np.asarray(u)
    if not (u.ndim == 2 and len(u) == u.shape[1] and u.dtype.kind in "iufc"
            and np.isfinite(u).all()):
        raise ValueError(f"u must be a finite square matrix, got {u.dtype} of shape {u.shape}")
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.abs(d).max())


def checked_finite(name: str, value, bound: str = "") -> float:
    """``value`` as a float if a finite real within ``bound`` ("", ">= 0" or "> 0"), else a
    ValueError naming it.  A real is a non-bool ``numbers.Real``: no bool, string or array."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < np.inf
    if not (real and {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]):
        raise ValueError(f"{name} must be finite{' and ' * bool(bound)}{bound}, got {value!r}")
    return float(value)


def checked_int(name: str, value, lo: int, hi: float = np.inf) -> int:
    """``value`` as an int if a non-bool ``numbers.Integral`` in [lo, hi], else a ValueError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not lo <= value <= hi:
        span = f">= {lo}" if hi == np.inf else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def checked_target(target) -> np.ndarray:
    """``target`` as a complex array; ValueError unless a finite unitary 2x2 matrix."""
    v = np.asarray(target)
    if (v.dtype.kind not in "iufc" or v.shape != (2, 2) or not np.isfinite(v).all()
            or unitarity_defect(v) > 1e-8):
        raise ValueError("target must be a finite unitary 2x2 matrix")
    return v.astype(complex, copy=False)


def pulse_train_stack(
    spec: TransmonSpec,
    trains: Sequence[tuple[Sequence[int], float]],
    n_cycles: int,
    clock_period: float,
) -> np.ndarray:
    """Anchored unitaries of SFQ pulse trains on one transmon, one per train.

    Each train is a ``(pulse_slots, tip_angle)`` pair: a kick of that tip
    angle fires at the start of each listed cycle, and the qubit evolves
    freely otherwise.  The walk goes pulse by pulse: step j applies the
    j-th kick of every train that still has one, after the free evolution
    since that train's previous pulse.  The trains are walked in order of
    decreasing pulse count, so the ones still pulsing are a leading slice,
    and every gap's diagonal comes from one table of exp(-i*E*g*tau) over
    the gaps g that occur.  Each train is then anchored at its last pulse,
    which folds the trailing free evolution and the frame correction
    ``exp(+i*H0*T)`` over the ``n_cycles`` window into one diagonal, with
    ``H0`` at the actual (drifted) frequency.  A train equals its own
    one-train walk bit for bit.

    Raises
    ------
    ValueError
        If ``clock_period`` is not finite and > 0, ``n_cycles`` is not an
        integer >= 0, a tip angle is not finite, or a train's slots are not
        integers, sorted, inside [0, n_cycles).
    """
    clock_period = checked_finite("clock_period", clock_period, "> 0")
    order, counts, gaps = _walk_gaps([s for s, _ in trains], checked_int("n_cycles", n_cycles, 0))
    kicks = sfq_kick(spec, [tip for _, tip in trains])[order]
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    g, at = np.unique(gaps, return_inverse=True)
    steps = np.exp(-1j * energies * g[:, None] * clock_period)[at.reshape(gaps.shape).T]
    u = np.tile(np.eye(spec.levels, dtype=complex), (len(order), 1, 1))
    active = (counts > np.arange(gaps.shape[1])[:, None]).sum(axis=1)  # trains at step j
    for j, n in enumerate(active):
        u[:n] = kicks[:n] @ (steps[j, :n, :, None] * u[:n])
    u = np.exp(1j * energies * gaps.sum(axis=1)[:, None] * clock_period)[:, :, None] * u
    return u[np.argsort(order)]


def _walk_gaps(slot_sets: Sequence[Sequence[int]], n_cycles: int):
    """(order, counts, gaps) of the trains in walk order, most pulses first (ties in
    the given order): each train's pulse count and its gaps s_j - s_(j-1), s_(-1) = 0,
    one zero-padded row per train.  ValueError naming the first train whose slots are
    not integers, sorted and inside [0, n_cycles)."""
    def fault(k, rule):
        return ValueError(f"pulse_slots of train {k} must be {rule}, got {slot_sets[k]!r}")

    slots = [np.asarray(s) for s in slot_sets]
    for k, s in enumerate(slots):
        if s.ndim != 1 or s.size and s.dtype.kind not in "iuf":
            raise fault(k, "integers")
    counts = np.array([s.size for s in slots], dtype=int)
    owner = np.repeat(np.arange(len(slots)), counts)
    flat = np.concatenate([np.zeros(0, dtype=int), *slots])
    fractional = ~(np.isfinite(flat) & (np.floor(flat) == flat))
    if fractional.any():
        raise fault(owner[fractional][0], "integers")
    flat = flat.astype(int)
    first = np.cumsum(counts) - counts  # where each train starts in flat
    gap = np.diff(flat, prepend=0)
    gap[first[counts > 0]] = flat[first[counts > 0]]
    outside = (gap < 0) | (flat >= n_cycles)
    if outside.any():
        raise fault(owner[outside][0], f"sorted and lie inside the window [0, {n_cycles})")
    order = np.argsort(-counts, kind="stable")
    row = np.empty_like(order)
    row[order] = np.arange(len(order))
    gaps = np.zeros((len(slots), counts.max(initial=0)), dtype=int)
    gaps[row[owner], np.arange(flat.size) - first[owner]] = gap
    return order, counts[order], gaps


def pulse_train_unitary(
    spec: TransmonSpec,
    pulse_slots: Sequence[int],
    n_cycles: int,
    tip_angle: float | np.ndarray,
    clock_period: float,
) -> np.ndarray:
    """Anchored unitary of an SFQ pulse train on one transmon.

    The :func:`pulse_train_stack` of the one slot set ``pulse_slots``: a
    scalar tip angle gives one unitary, an array of tip angles one per
    angle, each equal to the scalar call bit for bit.
    """
    tips = np.asarray(tip_angle, dtype=object)  # each tip as given, for sfq_kick's check
    u = pulse_train_stack(spec, [(pulse_slots, t) for t in tips.ravel()], n_cycles,
                          clock_period)
    return u.reshape(tips.shape + u.shape[1:])


def projected_errors(blocks: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Error ``1 - Fbar`` of each (..., >=2, >=2) block projected onto levels {0, 1}.

    Fbar = (Tr(E E^dag) + |Tr(target^dag E)|^2) / 6 with ``E`` a block's 2x2 corner
    and ``target`` a 2x2 gate, so leakage out of the qubit levels counts as error.
    """
    if (not isinstance(target, np.ndarray) or not isinstance(blocks, np.ndarray)
            or target.shape != (2, 2) or blocks.ndim < 2 or min(blocks.shape[-2:]) < 2):
        raise ValueError(f"target must be a 2x2 array and blocks an array at least 2x2, got "
                         f"shapes {np.shape(target)} and {np.shape(blocks)}")
    e = np.ascontiguousarray(blocks[..., :2, :2])
    ee, tr = e @ e.conj().swapaxes(-1, -2), target.conj().T @ e
    tr = tr[..., 0, 0] + tr[..., 1, 1]
    mag = np.hypot(tr.real, tr.imag)  # the scalar abs bit for bit, which np.abs is not
    return 1.0 - ((ee[..., 0, 0] + ee[..., 1, 1]).real + mag * mag) / 6


def projected_fidelity(actual: np.ndarray, target: np.ndarray) -> FidelityReport:
    """:func:`projected_errors` of one finite evolution ``actual``, as a report."""
    target = checked_target(target)
    if not (isinstance(actual, np.ndarray) and actual.dtype.kind in "iufc"
            and np.isfinite(actual).all()):
        raise ValueError("actual must be a finite numeric array")
    err = projected_errors(actual, target)
    if err.ndim:
        raise ValueError(f"actual must be one block, got a stack of shape {actual.shape}")
    err = float(err)
    return FidelityReport(avg_gate_fidelity=1.0 - err, error=err)


# --- small gate constructors used throughout the toolkit --------------------

def ry(theta: float) -> np.ndarray:
    c, s = np.cos(checked_finite("theta", theta) / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * checked_finite("theta", theta)), np.exp(0.5j * theta)])


def phase_gate(gamma: float) -> np.ndarray:
    """diag(1, e^{i*gamma}) — Rz(gamma) up to global phase."""
    return np.diag([1.0, np.exp(1j * checked_finite("gamma", gamma))])
