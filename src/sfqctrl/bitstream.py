"""SFQ bitstream design and delay-quantized z-rotation analysis.

A bitstream is a fixed-clock binary sequence (40 ps default, at most 300
bits); a 1 fires an SFQ pulse at that clock cycle.  A shared Ry(pi/2)
bitstream plus programmable idle delays of d clock cycles realize the
continuous gate set {Ry(pi/2), Rz(phi)}: idling d cycles before the
stored bitstream tilts its rotation axis by

    phi_d = (2*pi * f_actual * d * tau) mod 2*pi,

so only the N+1 grid phases phi_0..phi_N are available per qubit.

Bitstream search
----------------
``design_ry_bitstream`` places pulses where the qubit phase sits within a
half-window ``w`` of zero, capped at ceil((pi/2)/dtheta) pulses, and scans
(w, dtheta).  That two-parameter family alone saturates around 4e-3 gate
error at the default operating points: the per-pulse leakage into level 2
adds nearly in phase (the anharmonicity phasor advances only ~0.25 rad per
pulse), and no window/tip-angle combination cancels it.  The scan is
therefore followed by a deterministic greedy descent (bit flips plus
pulse relocations, fixed visiting order, golden-section tip-angle
refinement per sweep) which finds leakage-cancelling pulse patterns and
reaches the 1e-4 target with an order of magnitude to spare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from sfqctrl.transmon import (
    TransmonSpec,
    projected_fidelity,
    pulse_train_unitary,
    ry,
)

SFQ_CLOCK_PERIOD = 40e-12
MAX_BITSTREAM_LEN = 300
DEFAULT_N_MAX = 255

# gate lengths (clock cycles) for the default parking frequencies
GATE_LENGTH_CYCLES = {
    6.21286e9: 253,  # 10.12 ns
    4.14238e9: 225,  # 9.00 ns
}


class BitstreamDesignError(RuntimeError):
    """No bitstream in the search family met the error target."""


@dataclass(frozen=True)
class Bitstream:
    """A fixed-clock SFQ pulse-bit sequence plus its design tip angle."""

    bits: tuple[int, ...]
    clock_period: float = SFQ_CLOCK_PERIOD
    tip_angle: float = 0.0

    def __post_init__(self):
        if len(self.bits) > MAX_BITSTREAM_LEN:
            raise ValueError(f"bitstream exceeds {MAX_BITSTREAM_LEN} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        if not np.isfinite(self.tip_angle):
            raise ValueError(f"tip_angle must be finite, got {self.tip_angle}")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def pulse_slots(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(np.asarray(self.bits)))

    @property
    def n_pulses(self) -> int:
        return int(sum(self.bits))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_string(cls, s: str, clock_period: float = SFQ_CLOCK_PERIOD,
                    tip_angle: float = 0.0) -> "Bitstream":
        return cls(tuple(int(c) for c in s.strip()), clock_period, tip_angle)

    def simulate(self, spec: TransmonSpec) -> np.ndarray:
        """Anchored multi-level unitary realized on ``spec`` (actual frequency)."""
        return pulse_train_unitary(spec, self.pulse_slots, len(self.bits), self.tip_angle,
                                   self.clock_period)


@dataclass(frozen=True)
class DelaySet:
    """Grid of z-rotation angles reachable by idling 0..n_max clock cycles."""

    f_actual: float
    clock_period: float = SFQ_CLOCK_PERIOD
    n_max: int = DEFAULT_N_MAX
    # derived from the three fields above, so it takes no part in == and hash
    phases: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.phases is None:
            object.__setattr__(self, "phases",
                               _grid_phases(self.f_actual, self.n_max, self.clock_period))

    def phase(self, d: int) -> float:
        return float(self.phases[d])

    def max_gap(self) -> float:
        """Largest angular gap between adjacent grid phases (brute force)."""
        return float(_max_gap(self.phases))


def _grid_phases(f_actual, n_max: int, clock_period: float) -> np.ndarray:
    """Phases 2*pi*f*d*tau mod 2*pi for d = 0..n_max (one row per frequency)."""
    d = np.arange(n_max + 1)
    return np.mod(2.0 * np.pi * f_actual * d * clock_period, 2.0 * np.pi)


def _max_gap(phases: np.ndarray) -> np.ndarray:
    """Largest circular gap between the phases of each row (last axis)."""
    ph = np.sort(np.mod(phases, 2.0 * np.pi), axis=-1)
    gaps = np.diff(np.concatenate([ph, ph[..., :1] + 2.0 * np.pi], axis=-1), axis=-1)
    return gaps.max(axis=-1)


def delay_set(spec: TransmonSpec, n_max: int = DEFAULT_N_MAX,
              clock_period: float = SFQ_CLOCK_PERIOD) -> DelaySet:
    """Exact delay-to-phase table for ``spec`` at its actual frequency."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return DelaySet(f_actual=spec.actual_freq, clock_period=clock_period, n_max=n_max)


def rz_grid_error(delta: float | np.ndarray):
    """Two-level average-fidelity error of Rz(phi + delta) against Rz(phi).

    (2/3)*sin^2(delta/2); the same functional form used by the calibration
    and compiler modules, so module-level errors compose consistently.
    """
    return (2.0 / 3.0) * np.sin(0.5 * np.asarray(delta)) ** 2


def best_rz(ds: DelaySet, phi: float) -> tuple[int, float]:
    """Delay whose grid phase best approximates Rz(phi), and its error."""
    delta = ds.phases - phi
    errs = rz_grid_error(delta)
    d = int(np.argmin(errs))
    return d, float(errs[d])


def worst_rz_error(phases: np.ndarray) -> float:
    """Worst-case best_rz error over all target angles for a phase grid.

    The worst target sits at the midpoint of the largest gap, giving
    (2/3)*sin^2(gap/4).
    """
    return float(rz_grid_error(_max_gap(phases) / 2.0))


def _good_runs(f_lo: float, f_hi: float, resolution: float, n_max: int,
               err_budget: float, clock_period: float):
    """Frequency grid over [f_lo, f_hi] and its maximal runs below ``err_budget``.

    Returns the grid and an iterator of (first, last) grid indices, one
    per contiguous run whose worst-case delay-quantized Rz error stays
    below the budget.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution}")
    freqs = np.arange(f_lo, f_hi + 0.5 * resolution, resolution)
    worst = rz_grid_error(_max_gap(_grid_phases(freqs[:, None], n_max, clock_period)) / 2.0)
    edges = np.diff(np.concatenate([[0], (worst < err_budget).astype(np.int8), [0]]))
    return freqs, zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)


def parking_scan(
    f_lo: float,
    f_hi: float,
    resolution: float = 0.1e6,
    n_max: int = DEFAULT_N_MAX,
    err_budget: float = 1e-4,
    clock_period: float = SFQ_CLOCK_PERIOD,
) -> list[tuple[float, float]]:
    """Find parking frequencies: centers of wide drift-tolerant intervals.

    Scans candidate frequencies on a grid, computes the worst-case
    delay-quantized Rz error at each, and returns one (frequency,
    tolerance) pair per maximal contiguous sub-interval where the error
    stays below ``err_budget``.  The tolerance is the half-width of that
    interval; the frequency is its center.
    """
    if f_lo >= f_hi:
        raise ValueError("f_lo must be < f_hi")
    freqs, runs = _good_runs(f_lo, f_hi, resolution, n_max, err_budget, clock_period)
    return [(float(0.5 * (freqs[i] + freqs[j])), float(0.5 * (freqs[j] - freqs[i])))
            for i, j in runs]


def drift_tolerance(
    freq: float,
    n_max: int = DEFAULT_N_MAX,
    err_budget: float = 1e-4,
    resolution: float = 0.1e6,
    span: float = 40e6,
    clock_period: float = SFQ_CLOCK_PERIOD,
) -> float:
    """Half-width of the contiguous low-error drift interval containing ``freq``."""
    freqs, runs = _good_runs(freq - span, freq + span, resolution, n_max, err_budget,
                             clock_period)
    i0 = int(np.argmin(np.abs(freqs - freq)))
    for i, j in runs:
        if i <= i0 <= j:
            return float(0.5 * (freqs[j] - freqs[i]))
    return 0.0


def gate_length_cycles(nominal_freq: float) -> int:
    """Design gate length in clock cycles for a nominal frequency."""
    for f, n in GATE_LENGTH_CYCLES.items():
        if abs(nominal_freq - f) < 1.0:
            return n
    return MAX_BITSTREAM_LEN


# --- bitstream design ---------------------------------------------------------

_RY_TARGET = ry(np.pi / 2)
_POLISH_SWEEPS = 6  # stage-2 sweeps at most; designs stop earlier once on target
_ERR_TARGET = 1e-4  # a designed stream's projected gate error must not exceed this


def _train_error(spec: TransmonSpec, slots: Sequence[int], n_cycles: int,
                 tip_angle: float, target: np.ndarray) -> float:
    u = pulse_train_unitary(spec, slots, n_cycles, tip_angle, SFQ_CLOCK_PERIOD)
    return projected_fidelity(u, target).error


def _golden_tip_angle(spec, slots, n_cycles, lo, hi, target, iters=32):
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1 = _train_error(spec, slots, n_cycles, x1, target)
    f2 = _train_error(spec, slots, n_cycles, x2, target)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = _train_error(spec, slots, n_cycles, x1, target)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = _train_error(spec, slots, n_cycles, x2, target)
    x = 0.5 * (a + b)
    return _train_error(spec, slots, n_cycles, x, target), x


def window_rule_slots(freq: float, n_cycles: int, w: float, tip_angle: float,
                      clock_period: float = SFQ_CLOCK_PERIOD) -> np.ndarray:
    """Pulse slots of the phase-window rule.

    Cycle i pulses when the qubit phase 2*pi*f*i*tau (mod 2*pi) lies
    within a half-window ``w`` of zero, stopping once
    ceil((pi/2)/tip_angle) pulses have fired.
    """
    ph = _window_phase(freq, n_cycles, clock_period, 0.0)
    slots = np.flatnonzero(np.abs(ph) <= w)
    cap = int(np.ceil((np.pi / 2) / tip_angle)) if tip_angle > 0 else 0
    return slots[:cap]


def _window_phase(freq: float, n_cycles: int, clock_period: float,
                  centre: float) -> np.ndarray:
    """Qubit phase at each cycle relative to ``centre``, wrapped to [-pi, pi)."""
    return np.mod(2.0 * np.pi * freq * np.arange(n_cycles) * clock_period
                  - centre + np.pi, 2.0 * np.pi) - np.pi


def design_bitstream(spec: TransmonSpec, target: np.ndarray,
                     window_centres: Sequence[float] = (0.0,)) -> Bitstream:
    """Design a bitstream realizing an arbitrary 2x2 target on ``spec``.

    The stream spans ``gate_length_cycles`` of the nominal frequency at
    the SFQ clock period.  Stage 1 scans the phase-window rule: pulse at
    cycle i when the qubit phase (2*pi*f*i*tau mod 2*pi) lies within +-w
    of a scanned window centre, stopping after ceil((pi/2)/dtheta)
    pulses; dtheta is refined by golden section.  Stage 2 runs a
    deterministic greedy descent from the best scanned pattern (bit
    flips plus pulse relocations in a fixed visiting order, tip-angle
    refinement after each sweep) to cancel the coherent level-2 leakage
    the window family cannot reach on its own.

    Raises
    ------
    BitstreamDesignError
        If no candidate reaches the 1e-4 projected gate-error target.
    """
    freq = spec.nominal_freq
    design_spec = spec.with_drift(0.0)
    n_cycles = gate_length_cycles(freq)

    # ---- stage 1: (w, dtheta) scan over window centres
    best = (np.inf, None, None)  # err, slots, tip
    for centre in window_centres:
        ph = _window_phase(freq, n_cycles, SFQ_CLOCK_PERIOD, centre)
        for w in np.linspace(0.15, 1.25, 23):
            all_slots = np.flatnonzero(np.abs(ph) <= w)
            if len(all_slots) < 8:
                continue
            base = (np.pi / 2) / len(all_slots)
            for scale in np.linspace(0.85, 1.35, 11):
                dt = base * scale
                cap = int(np.ceil((np.pi / 2) / dt))
                slots = all_slots[:cap]
                err = _train_error(design_spec, slots, n_cycles, dt, target)
                if err < best[0]:
                    best = (err, slots, dt)
    if best[1] is None:
        raise BitstreamDesignError("no pulse pattern found within the window scan")

    err, slots, dt = best
    err, dt = _golden_tip_angle(design_spec, slots, n_cycles, dt * 0.92, dt * 1.08, target)

    # ---- stage 2: deterministic greedy descent (bit flips + pulse moves)
    bits = np.zeros(n_cycles, dtype=int)
    bits[np.asarray(slots, dtype=int)] = 1

    def bits_err(theta):
        s = np.flatnonzero(bits)
        if not len(s):
            return np.inf
        return _train_error(design_spec, s, n_cycles, theta, target)

    stop_at = 0.8 * _ERR_TARGET
    for _ in range(_POLISH_SWEEPS):
        improved = False
        for i in range(n_cycles):
            bits[i] ^= 1
            e = bits_err(dt)
            if e < err:
                err, improved = e, True
            else:
                bits[i] ^= 1
        if err > stop_at:
            # relocating a pulse preserves the rotation budget while moving
            # the level-2 leakage phasor, which single flips cannot do cheaply
            for i in list(np.flatnonzero(bits)):
                if err <= stop_at or not bits[i]:
                    continue
                for j in np.flatnonzero(bits == 0):
                    bits[i], bits[j] = 0, 1
                    e = bits_err(dt)
                    if e < err:
                        err, improved = e, True
                        break
                    bits[i], bits[j] = 1, 0
        cur = np.flatnonzero(bits)
        err, dt = _golden_tip_angle(design_spec, cur, n_cycles,
                                    dt * 0.98, dt * 1.02, target, iters=24)
        if err <= stop_at or not improved:
            break

    if err > _ERR_TARGET:
        raise BitstreamDesignError(
            f"best design error {err:.3e} exceeds target {_ERR_TARGET:.1e} "
            f"within {n_cycles} cycles"
        )
    return Bitstream(bits=tuple(int(b) for b in bits), tip_angle=float(dt))


def design_ry_bitstream(spec: TransmonSpec) -> Bitstream:
    """Design the shared Ry(pi/2) bitstream for the nominal frequency of ``spec``.

    See :func:`design_bitstream`.
    """
    return design_bitstream(spec, _RY_TARGET)
