"""SFQ bitstream design and delay-quantized z-rotation analysis.

A bitstream is a fixed-clock binary sequence (40 ps default, at most 300
bits); a 1 fires an SFQ pulse at that clock cycle.  A shared Ry(pi/2)
bitstream plus programmable idle delays of d clock cycles realize the
continuous gate set {Ry(pi/2), Rz(phi)}: idling d cycles before the
stored bitstream tilts its rotation axis by

    phi_d = (2*pi * f_actual * d * tau) mod 2*pi,

so only the N+1 grid phases phi_0..phi_N are available per qubit.

Grid analysis
-------------
``rz_grid_error`` is the error of an Rz off by delta, and
``worst_rz_error`` the worst case of a grid over all target angles (a
target in the middle of its largest gap).  ``parking_scan`` and
``drift_tolerance`` apply it to the grids of delays 0..DEFAULT_N_MAX
across a frequency range, to find parking frequencies and the drift each
one tolerates within a 1e-4 budget.  A calibrated qubit's own grid is
``calib1q._OptEngine.phi_d``.

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

The descent scores candidates without re-simulating the train.  At a
sweep's fixed tip angle the anchored train is the ordered product of one
anchored kick per pulse (see ``sfqctrl.transmon``), so with the products
of the kicks before cycle i (prefix) and from cycle i on (suffix) a bit
flip at i is suffix(i+1) @ (kick or nothing) @ prefix(i), and a pulse
move i -> j multiplies the train with j lit by the inverse of the kick at
i, conjugated by the prefix (j > i) or the suffix (j < i).  Each pass
scores all its candidates as one stack and takes the first that lowers
the error.  Prefixes are rebuilt past an accepted flip.  An accepted move
i -> j rebuilds the prefixes from min(i, j), the suffixes up to max(i, j)
and the table of trains with one empty cycle lit, which every move
candidate of that state reads.  Stage 1 simulates the window patterns of
all centres, in centre order and once per distinct slot set of a centre,
as one ``pulse_train_stack`` walk, so each pattern's error is its own
train's bit for bit and the first lowest error wins.  The
golden-section tip-angle refinement walks the train once for a stack of
tip angles: every point the next three steps can visit.  It then takes
the branches the errors choose, so its comparisons and result are the
sequential search's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sfqctrl.transmon import (
    TransmonSpec,
    checked_finite,
    checked_target,
    level_energies,
    projected_errors,
    pulse_train_stack,
    pulse_train_unitary,
    ry,
    sfq_kick,
)

SFQ_CLOCK_PERIOD = 40e-12
MAX_BITSTREAM_LEN = 300
DEFAULT_N_MAX = 255
_PARKING_ERR_BUDGET = 1e-4  # worst-case Rz error a parking interval must stay below
_DRIFT_SPAN = 40e6  # drift_tolerance scans freq +- this many Hz
_MAX_GRID = 100_000  # grid frequencies a scan holds: 256 float64 phases each, ~200 MB

# gate lengths (clock cycles) for the default parking frequencies
GATE_LENGTH_CYCLES = {
    6.21286e9: 253,  # 10.12 ns
    4.14238e9: 225,  # 9.00 ns
}


class BitstreamDesignError(RuntimeError):
    """No bitstream in the search family met the error target."""


@dataclass(frozen=True)
class Bitstream:
    """A fixed-clock SFQ pulse-bit sequence plus its design tip angle.

    ``bits`` is a tuple of 1 to ``MAX_BITSTREAM_LEN`` Python ints, each 0
    or 1; any other sequence (a list would leave the frozen stream
    unhashable), any other element (a float, a bool, a numpy integer) or an
    empty stream is a ValueError (``to_string`` of 1.0 or True is not a bit).
    """

    bits: tuple[int, ...]
    clock_period: float = SFQ_CLOCK_PERIOD
    tip_angle: float = 0.0

    def __post_init__(self):
        if (not isinstance(self.bits, tuple) or set(map(type, self.bits)) != {int}  # () fails
                or not set(self.bits) <= {0, 1} or len(self.bits) > MAX_BITSTREAM_LEN):
            raise ValueError(f"bits must be a tuple of 1 to {MAX_BITSTREAM_LEN} ints 0 and 1")
        checked_finite("tip_angle", self.tip_angle)
        checked_finite("clock_period", self.clock_period, "> 0")

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
        if not isinstance(s, str) or not s.strip() or not set(s.strip()) <= {"0", "1"}:
            raise ValueError(f"s must be a non-empty string of the characters 0 and 1, got {s!r}")
        return cls(tuple(int(c) for c in s.strip()), clock_period, tip_angle)

    def simulate(self, spec: TransmonSpec) -> np.ndarray:
        """Anchored multi-level unitary realized on ``spec`` (actual frequency)."""
        return pulse_train_unitary(spec, self.pulse_slots, len(self.bits), self.tip_angle,
                                   self.clock_period)


def _max_gap(phases: np.ndarray) -> np.ndarray:
    """Largest circular gap between the phases of each row (last axis)."""
    ph = np.sort(np.mod(phases, 2.0 * np.pi), axis=-1)
    gaps = np.diff(np.concatenate([ph, ph[..., :1] + 2.0 * np.pi], axis=-1), axis=-1)
    return gaps.max(axis=-1)


def rz_grid_error(delta: float | np.ndarray):
    """Two-level average-fidelity error of Rz(phi + delta) against Rz(phi).

    (2/3)*sin^2(delta/2); the same functional form used by the calibration
    and compiler modules, so module-level errors compose consistently.
    """
    return (2.0 / 3.0) * np.sin(0.5 * np.asarray(delta)) ** 2


def worst_rz_error(phases: np.ndarray):
    """Worst-case error of the nearest grid phase over all Rz target angles.

    The worst target sits at the midpoint of the largest gap, giving
    (2/3)*sin^2(gap/4): a float for one grid, one value per row of a 2-D
    array of grids.
    """
    return rz_grid_error(_max_gap(phases) / 2.0)


def _good_runs(f_lo: float, f_hi: float, resolution: float):
    """Frequency grid over [f_lo, f_hi] and its maximal runs below the budget.

    Returns the grid and an iterator of (first, last) grid indices, one
    per contiguous run whose worst-case delay-quantized Rz error over the
    delays 0..DEFAULT_N_MAX stays below ``_PARKING_ERR_BUDGET``.
    """
    resolution = checked_finite("resolution", resolution, "> 0")
    if (size := (f_hi - f_lo) / resolution + 1) > _MAX_GRID:
        raise ValueError(f"resolution {resolution:g} Hz gives {size:.3g} > {_MAX_GRID} frequencies")
    freqs = np.arange(f_lo, f_hi + 0.5 * resolution, resolution)
    d = np.arange(DEFAULT_N_MAX + 1)
    worst = worst_rz_error(np.mod(2.0 * np.pi * freqs[:, None] * d * SFQ_CLOCK_PERIOD,
                                  2.0 * np.pi))
    edges = np.diff(np.concatenate([[0], (worst < _PARKING_ERR_BUDGET).astype(np.int8), [0]]))
    return freqs, zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)


def parking_scan(f_lo: float, f_hi: float,
                 resolution: float = 0.1e6) -> list[tuple[float, float]]:
    """Find parking frequencies: centers of wide drift-tolerant intervals.

    Scans candidate frequencies on a grid, computes the worst-case
    delay-quantized Rz error at each, and returns one (frequency,
    tolerance) pair per maximal contiguous sub-interval where the error
    stays below ``_PARKING_ERR_BUDGET``.  The tolerance is the half-width
    of that interval; the frequency is its center.  Only intervals with a
    failing grid point on both sides are reported: one that the scan
    range cuts off has no measured width.
    """
    f_lo, f_hi = checked_finite("f_lo", f_lo), checked_finite("f_hi", f_hi)
    if f_lo >= f_hi:
        raise ValueError("f_lo must be < f_hi")
    freqs, runs = _good_runs(f_lo, f_hi, resolution)
    return [(float(0.5 * (freqs[i] + freqs[j])), float(0.5 * (freqs[j] - freqs[i])))
            for i, j in runs if 0 < i and j < len(freqs) - 1]


def drift_tolerance(freq: float, resolution: float = 0.1e6) -> float:
    """Half-width of the contiguous low-error drift interval containing ``freq``.

    Frequencies within ``_DRIFT_SPAN`` of ``freq`` are scanned; 0 if ``freq``
    itself misses the budget.
    """
    freq = checked_finite("freq", freq)
    freqs, runs = _good_runs(freq - _DRIFT_SPAN, freq + _DRIFT_SPAN, resolution)
    i0 = int(np.argmin(np.abs(freqs - freq)))
    for i, j in runs:
        if i <= i0 <= j:
            return float(0.5 * (freqs[j] - freqs[i]))
    return 0.0


def gate_length_cycles(nominal_freq: float) -> int:
    """Design gate length in clock cycles for a finite nominal frequency."""
    nominal_freq = checked_finite("nominal_freq", nominal_freq)
    for f, n in GATE_LENGTH_CYCLES.items():
        if abs(nominal_freq - f) < 1.0:
            return n
    return MAX_BITSTREAM_LEN


# --- bitstream design ---------------------------------------------------------

_RY_TARGET = ry(np.pi / 2)
_POLISH_SWEEPS = 6  # stage-2 sweeps at most; designs stop earlier once on target
_ERR_TARGET = 1e-4  # a designed stream's projected gate error must not exceed this
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 3  # golden steps per speculative stack: 1 + 2 + 4 = 7 trains


def _train_errors(spec: TransmonSpec, slots: Sequence[int], n_cycles: int,
                  tips: Sequence[float], target: np.ndarray) -> np.ndarray:
    """Projected errors of the train ``slots`` at each tip angle, one stack."""
    u = pulse_train_unitary(spec, slots, n_cycles, np.asarray(tips, dtype=float),
                            SFQ_CLOCK_PERIOD)
    return projected_errors(u, target)


def _golden_step(a, b, x1, x2, left: bool):
    """One golden-section step that keeps [a, x2] (``left``, as when f(x1) < f(x2)) or
    [x1, b]: the new (a, b, x1, x2) and the one new point it evaluates."""
    if left:
        b, x2 = x2, x1
        x1 = b - _GOLDEN * (b - a)
        return (a, b, x1, x2), x1
    a, x1 = x1, x2
    x2 = a + _GOLDEN * (b - a)
    return (a, b, x1, x2), x2


def _golden_tip_angle(spec, slots, n_cycles, lo, hi, target, iters=32):
    """(err, tip) of ``iters`` golden-section steps on [lo, hi], then the midpoint.

    Bit for bit the sequential search that simulates one train per step:
    the points, comparisons and result are the same.  A fixed lookahead of
    ``_LOOKAHEAD`` = 3 steps makes one stack of 7 trains: the next point,
    which the known comparison fixes, and both branches of each comparison
    after it (2 points for the second step, 4 for the third).  The walk
    then follows the branches the stack's errors choose.  The initial pair
    and the final midpoint are one stack each.
    """
    a, b = lo, hi
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = _train_errors(spec, slots, n_cycles, (x1, x2), target)
    for done in range(0, iters, _LOOKAHEAD):
        # binary heap of the (state, new point) of every path of the next steps:
        # the comparison after node n leads to node 2n + 1 (left) or 2n + 2
        depth = min(_LOOKAHEAD, iters - done)
        nodes = [_golden_step(a, b, x1, x2, f1 < f2)]
        for n in range(2 ** (depth - 1) - 1):
            nodes += [_golden_step(*nodes[n][0], left) for left in (True, False)]
        errs = _train_errors(spec, slots, n_cycles, [x for _, x in nodes], target)
        n, left = 0, f1 < f2
        for _ in range(depth):
            (a, b, x1, x2), _ = nodes[n]
            f1, f2 = (errs[n], f1) if left else (f2, errs[n])
            left = f1 < f2
            n = 2 * n + (1 if left else 2)
    x = 0.5 * (a + b)
    return float(_train_errors(spec, slots, n_cycles, (x,), target)[0]), x


def _cycle_kicks(spec: TransmonSpec, n_cycles: int, tip_angle: float) -> np.ndarray:
    """Anchored kick F(s)^dag K F(s) of a pulse at each cycle s, F(s) = exp(-i*E*s*tau)."""
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    f = np.exp(-1j * np.outer(np.arange(n_cycles) * SFQ_CLOCK_PERIOD, energies))
    return f.conj()[:, :, None] * sfq_kick(spec, tip_angle) * f[:, None, :]


def _prefixes(kicks: np.ndarray, bits, start: int, pref: np.ndarray) -> np.ndarray:
    """Kick products of the pulses before cycles start..n; ``pref`` is the one before start.

    One product per lit cycle, in cycle order; a dark cycle repeats the product
    of the last lit cycle before it.
    """
    lit = np.asarray(bits[start:]) != 0
    prods = [pref]
    for i in np.flatnonzero(lit) + start:
        prods.append(kicks[i] @ prods[-1])
    return np.array(prods)[np.concatenate([[0], np.cumsum(lit)])]


def _suffixes(kicks: np.ndarray, bits, stop: int, suf: np.ndarray) -> np.ndarray:
    """Kick products of the pulses from cycles 0..stop on; ``suf`` is the one from stop on.

    One product per lit cycle, from the last back; a dark cycle repeats the
    product of the first lit cycle after it.
    """
    lit = np.asarray(bits[:stop]) != 0
    prods = [suf]
    for i in np.flatnonzero(lit)[::-1]:
        prods.append(prods[-1] @ kicks[i])
    return np.array(prods)[np.concatenate([np.cumsum(lit[::-1])[::-1], [0]])]


def _prefix_suffix(kicks: np.ndarray, bits) -> tuple[np.ndarray, np.ndarray]:
    """Products of the anchored kicks of the pulses before cycle i (pref[i]) and
    from cycle i on (suf[i]), i = 0..n; suf[i] @ pref[i] is the whole train."""
    eye = np.eye(kicks.shape[1], dtype=complex)
    return _prefixes(kicks, bits, 0, eye), _suffixes(kicks, bits, len(bits), eye)


def _flip_blocks(kicks, prefs, suf, bits, start: int) -> np.ndarray:
    """2x2 blocks of the trains with one cycle i >= start set or cleared:
    suf[i+1] @ (K(i) if bits[i] is 0 else 1) @ prefs[i - start]."""
    rows = suf[start + 1:, :2]
    rows = np.where((bits[start:] == 0)[:, None, None], rows @ kicks[start:], rows)
    return rows @ prefs[:-1, :, :2]


def _lit_table(kicks: np.ndarray, pref: np.ndarray, suf: np.ndarray,
               js: np.ndarray) -> np.ndarray:
    """The trains with one more pulse, at each empty cycle j in js: suf[j+1] K(j) pref[j]."""
    return suf[js + 1] @ kicks[js] @ pref[js]


def _move_blocks(kicks: np.ndarray, pref: np.ndarray, suf: np.ndarray, i: int,
                 js: np.ndarray, lit: np.ndarray) -> np.ndarray:
    """2x2 blocks of the trains that move the pulse at cycle i to each empty cycle in js.

    ``lit`` is ``_lit_table`` of the same state.  Removing the pulse at i multiplies
    lit_j by X = pref[i]^dag K(i)^dag pref[i] on the right for j > i, and by
    W = suf[i+1] K(i)^dag suf[i+1]^dag on the left for j < i; js is sorted, so the
    blocks of the cycles before i come first.
    """
    undo, k = kicks[i].conj().T, int(np.searchsorted(js, i))
    w = (suf[i + 1] @ undo @ suf[i + 1].conj().T)[:2]
    x = pref[i].conj().T @ undo @ pref[i]
    return np.concatenate([w @ lit[:k, :, :2], lit[k:, :2] @ x[:, :2]])


def _move(kicks: np.ndarray, bits: np.ndarray, pref: np.ndarray, suf: np.ndarray,
          i: int, j: int) -> None:
    """Move the pulse at cycle i to the empty cycle j, in place: only the prefixes from
    min(i, j) and the suffixes up to max(i, j) change."""
    bits[i], bits[j] = 0, 1
    lo, hi = min(i, j), max(i, j)
    pref[lo:] = _prefixes(kicks, bits, lo, pref[lo])
    suf[:hi + 2] = _suffixes(kicks, bits, hi + 1, suf[hi + 1])


def _move_pass(kicks: np.ndarray, bits: np.ndarray, err: float, target: np.ndarray,
               stop_at: float) -> float:
    """Relocate pulses in place, each to the first empty cycle that lowers the error, until
    the error reaches ``stop_at``; the error reached.  The lit table is built once per
    state: at the start and after each accepted move."""
    pref, suf = _prefix_suffix(kicks, bits)
    js = np.flatnonzero(bits == 0)
    lit = _lit_table(kicks, pref, suf, js)
    for i in np.flatnonzero(bits):
        if err <= stop_at:
            break
        e = projected_errors(_move_blocks(kicks, pref, suf, i, js, lit), target)
        for k in np.flatnonzero(e < err)[:1]:
            err = float(e[k])
            _move(kicks, bits, pref, suf, i, js[k])
            js = np.flatnonzero(bits == 0)
            lit = _lit_table(kicks, pref, suf, js)
    return err


def _window_patterns(spec, centre, n_cycles):
    """Stage-1 (slots, tip angle) patterns of one window centre, in visiting order (w,
    then tip scale): pulse where the qubit phase lies within +-w of ``centre``.  A
    window whose slot set an earlier window already gave adds no patterns, so exact
    ties still resolve to the first pattern."""
    ph = np.mod(2.0 * np.pi * spec.nominal_freq * np.arange(n_cycles) * SFQ_CLOCK_PERIOD
                - centre + np.pi, 2.0 * np.pi) - np.pi  # in [-pi, pi)
    lit = {}
    for w in np.linspace(0.15, 1.25, 23):
        slots = np.flatnonzero(np.abs(ph) <= w)
        lit.setdefault(slots.tobytes(), slots)
    return [(slots[:int(np.ceil((np.pi / 2) / dt))], dt) for slots in lit.values()
            if len(slots) >= 8 for dt in (np.pi / 2) / len(slots) * np.linspace(0.85, 1.35, 11)]


def _window_scan(spec, target, centres, n_cycles):
    """Stage 1 of ``design_bitstream``: (err, slots, tip angle) of the first lowest of
    every centre's window patterns, walked as one stack in centre order.  A centre
    whose windows never hold 8 pulses adds no patterns."""
    patterns = [p for centre in centres for p in _window_patterns(spec, centre, n_cycles)]
    if not patterns:
        raise BitstreamDesignError(
            f"no pulse pattern found within the window scan at {spec.nominal_freq / 1e9:g} "
            f"GHz, window centres ({', '.join(f'{c:g}' for c in centres)})")
    errs = projected_errors(pulse_train_stack(spec, patterns, n_cycles, SFQ_CLOCK_PERIOD),
                            target)
    k = int(np.argmin(errs))
    return (float(errs[k]), *patterns[k])


def design_bitstream(spec: TransmonSpec, target: np.ndarray,
                     window_centres: Sequence[float] = (0.0,)) -> Bitstream:
    """Design a bitstream realizing an arbitrary 2x2 target on ``spec``.

    The stream spans ``gate_length_cycles`` of the nominal frequency at
    the SFQ clock period.  Stage 1 scans the phase-window rule: pulse at
    cycle i when the qubit phase (2*pi*f*i*tau mod 2*pi) lies within +-w
    of a scanned window centre, stopping after ceil((pi/2)/dtheta)
    pulses; the (w, dtheta) patterns of all centres are scored as one
    stack in centre order, the first lowest error wins, and its dtheta is
    refined by golden section, three steps per stack of trains.
    Stage 2 runs a deterministic greedy descent from the best scanned
    pattern (passes of bit flips and of pulse relocations in a fixed
    visiting order, each scored at once and taking the first candidate
    that lowers the error, the relocations from one table of lit trains
    per accepted move; tip-angle refinement after each sweep) to cancel
    the coherent level-2 leakage the window family cannot reach on its
    own.

    Raises
    ------
    ValueError
        If ``target`` is not a finite unitary 2x2 matrix, or
        ``window_centres`` is empty or holds anything but finite reals.
    BitstreamDesignError
        If no candidate reaches the 1e-4 projected gate-error target.
    """
    target = checked_target(target)
    centres = np.asarray(window_centres)
    if (centres.dtype.kind not in "iuf" or centres.ndim != 1 or not centres.size
            or not np.isfinite(centres).all()):
        raise ValueError(f"window_centres must be 1 or more finite reals, got {window_centres!r}")
    design_spec, n_cycles = spec.with_drift(0.0), gate_length_cycles(spec.nominal_freq)
    _, slots, dt = _window_scan(design_spec, target, centres, n_cycles)
    err, dt = _golden_tip_angle(design_spec, slots, n_cycles, dt * 0.92, dt * 1.08, target)

    # ---- stage 2: deterministic greedy descent (bit flips + pulse moves)
    bits = np.zeros(n_cycles, dtype=int)
    bits[np.asarray(slots, dtype=int)] = 1

    stop_at = 0.8 * _ERR_TARGET
    for _ in range(_POLISH_SWEEPS):
        improved = False
        kicks = _cycle_kicks(design_spec, n_cycles, dt)
        (prefs, suf), at = _prefix_suffix(kicks, bits), 0
        while at < n_cycles:
            # a flip at i changes no later suffix; an empty train is never accepted
            e = projected_errors(_flip_blocks(kicks, prefs, suf, bits, at), target)
            hit = np.flatnonzero((e < err) & ((bits[at:] == 0) | (bits.sum() > 1)))
            if not hit.size:
                break
            i = at + hit[0]
            bits[i] ^= 1
            err, improved = float(e[hit[0]]), True
            prefs, at = _prefixes(kicks, bits, i, prefs[hit[0]])[1:], i + 1
        if err > stop_at:
            # relocating a pulse preserves the rotation budget while moving
            # the level-2 leakage phasor, which single flips cannot do cheaply
            moved = _move_pass(kicks, bits, err, target, stop_at)
            err, improved = moved, improved or moved < err
        err, dt = _golden_tip_angle(design_spec, np.flatnonzero(bits), n_cycles,
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
