"""Per-qubit software calibration and single-qubit gate decomposition.

Calibration simulates the *shared* (nominal-design) bitstreams on each
qubit's actual, drifted frequency, producing the per-qubit basis
operations the compiler then decomposes against.  Two decomposition
styles are supported:

*opt*  -- the continuous set {Ry(pi/2), Rz(grid)}: a gate becomes up to
          three applications of the shared bitstream, each preceded by a
          programmable delay of d in [0, n_max] clock cycles.  Idling d
          cycles tilts the subsequent pulses' rotation axis by the grid
          phase phi_d, so a gate with bitstream applications at absolute
          clock times t_1..t_L realizes (on the computational block, the
          level structure being carried exactly in six dimensions)

              P(theta_L) @ [P U6 K(t_L-t_{L-1}) ... K(t_2-t_1) U6 P] @ P(-theta_1)

          with P(x) = diag(1, e^{ix}), theta_i the qubit phase at t_i and
          K(dt) the free-evolution diagonal.  The leading phase is set by
          the first delay; the trailing phase is a *virtual* z the
          compiler folds into the qubit's next gate.

*min*  -- a discrete stored-gate set applied one per controller cycle.
          Composing consecutive cycles inserts a fixed frame factor
          D = exp(-i*H0*T_cycle), so the per-cycle *step* operators are
          D @ B_j.  The all-zeros stream, which calibration requires,
          simulates to the identity, so its step is D itself: a fixed
          z-phase (the T-like gate: at 6.21286 GHz / 253 cycles the step
          angle is 0.7908 rad, within 0.006 of pi/4 -- and it drifts with
          the qubit, which is what makes outlier qubits possible).  Words
          over the step alphabet are searched by one lazy walk in order
          of depth, stopped at the first depth within the budget:
          exhaustively up to 12 cycles (two symbols) or 6 (more), then
          by meet in the middle: each first half meets the second halves
          whose quaternions lie in a closed ball around its wanted match
          (radius: ``_MinEngine._depths``, ``_ball_radius``).  Stored
          streams are designed against D^dag-compensated targets so their
          steps equal the advertised gates at zero drift.

Both searches score with the qubit's exact six-level operators: leakage
builds up through the sequence and is projected once at the end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from sfqctrl.bitstream import (
    Bitstream,
    DEFAULT_N_MAX,
    SFQ_CLOCK_PERIOD,
    design_bitstream,
    gate_length_cycles,
)
from sfqctrl.transmon import (
    TransmonSpec,
    checked_finite,
    checked_int,
    checked_target,
    level_energies,
    phase_gate,
    projected_errors,
    ry,
    rz,
    unitarity_defect,
)

_log = logging.getLogger("sfqctrl")


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Decomposition1Q:
    """One realization of a single-qubit gate on calibrated hardware.

    ``steps`` holds the delays d_1..d_L for the opt architecture (one per
    bitstream application, L <= 3) or per-cycle basis-gate indices for
    min (idle steps included).  Both styles fire stored streams at start
    cycles: opt its one stream at SFQ cycle i * controller_cycle_sfq + d_i,
    min the stream of step j at j * controller_cycle_sfq.  With A the 2x2
    block of the anchored train of those applications (``_lowered_block``;
    A = 1 without any) and s = +1 for opt, -1 for min, the framed block
    G = phase_gate(s * residual_phase) @ A @ phase_gate(-fold_phase) has
    error ``err`` against the target: ``residual_phase`` is the trailing
    virtual z the compiler folds into the qubit's next gate.  ``err`` is
    the six-level projected average-gate-fidelity error; ``flagged`` marks
    best-effort results that missed the budget.

    Consecutive gates on one qubit chain through these frames.  Starting
    a train at SFQ cycle t conjugates its block by phase_gate(theta(t)),
    theta(t) = 2*pi*f*t*clock_period at the actual frequency f.  If gate
    g starts at t = 0 and gate g+1 at t', gate g+1 takes fold_phase =
    theta(t') + s * residual_phase (0 mod 2*pi when it starts right after
    a min word).  The train of both then has the block phase_gate(p) @ G'
    @ G @ phase_gate(fold_phase of gate g), up to the leakage cross-term,
    where p = theta(t') - s' * residual_phase' of gate g+1.
    """

    kind: str
    steps: tuple[int, ...]
    residual_phase: float
    err: float
    flagged: bool = False

    @property
    def depth(self) -> int:
        return len(self.steps)


@dataclass
class QubitCalibration:
    """Actual basis operations realized on one qubit by the shared bitstreams.

    ``n_max`` is the longest opt delay in SFQ cycles.  ``opt_engine`` keeps
    the opt search's target-independent tables (23.5 MB at n_max = 255 with
    L = 3, 1.6 MB of it the psi column), ``min_engine`` the min search's
    word tables and results.
    """

    qubit_id: int
    spec: TransmonSpec
    arch: str
    basis_ops: list[np.ndarray]
    n_max: int
    controller_cycle_sfq: int
    clock_period: float

    @cached_property
    def opt_engine(self) -> "_OptEngine":
        return _OptEngine(self)

    @cached_property
    def min_engine(self) -> "_MinEngine":
        return _MinEngine(self)


def calibrate_qubit(
    spec: TransmonSpec,
    shared_bitstreams: Sequence[Bitstream],
    qubit_id: int = 0,
    arch: str = "opt",
    n_max: int = DEFAULT_N_MAX,
) -> QubitCalibration:
    """Simulate the shared bitstreams on ``spec``'s actual frequency.

    The bitstreams are the nominal-design ones (SIMD premise: every qubit
    of a group receives the same streams); drift enters only through the
    qubit's own free evolution.  For the opt architecture the controller
    cycle spans the delay range plus the stream; for min it equals the
    stream length, so all streams must share one length and clock period.
    Opt takes exactly one stream.  Min takes 2 to 4, the alphabets its
    search caps are sized for, and one of them must be all zeros (the idle
    step).  These checks, like the architecture's and the one that
    ``shared_bitstreams`` is a list or tuple of ``Bitstream``, come before
    any simulation.
    """
    if arch not in ("opt", "min"):
        raise ValueError(f"arch must be 'opt' or 'min', got {arch!r}")
    qubit_id, n_max = checked_int("qubit_id", qubit_id, 0), checked_int("n_max", n_max, 1)
    if (not isinstance(shared_bitstreams, (list, tuple))
            or not all(isinstance(bs, Bitstream) for bs in shared_bitstreams)):
        raise ValueError(f"shared_bitstreams must be a list or tuple of Bitstream, got "
                         f"{type(shared_bitstreams).__name__}")
    if not shared_bitstreams:
        raise CalibrationError("at least one shared bitstream is required")
    first = shared_bitstreams[0]
    if any(len(bs) != len(first) or bs.clock_period != first.clock_period
           for bs in shared_bitstreams):
        raise CalibrationError("shared bitstreams differ in length or clock period")
    n_streams = len(shared_bitstreams)
    if arch == "opt" and n_streams != 1:
        raise CalibrationError(f"opt architecture takes exactly one stream, got {n_streams}")
    if arch == "min" and all(bs.n_pulses for bs in shared_bitstreams):
        raise CalibrationError("min architecture requires an all-zeros stream")
    if arch == "min" and not 2 <= n_streams <= 4:
        raise CalibrationError(f"min architecture takes 2 to 4 streams, got {n_streams}")
    ops = [bs.simulate(spec) for bs in shared_bitstreams]
    if not all(np.isfinite(u).all() and unitarity_defect(u) <= 1e-8 for u in ops):
        raise CalibrationError("bitstream evolution lost unitarity")
    cycle = (n_max + 1) + len(first) if arch == "opt" else len(first)
    return QubitCalibration(
        qubit_id=qubit_id,
        spec=spec,
        arch=arch,
        basis_ops=ops,
        n_max=n_max,
        controller_cycle_sfq=cycle,
        clock_period=first.clock_period,
    )


def min_basis_targets(cycle_phase: float, bs: int) -> list[np.ndarray | None]:
    """Design targets for the min architecture's stored bitstreams.

    The per-cycle step operator is D @ B with D = exp(-i*H0*T_cycle), so
    each stream is designed against D^dag @ (wanted step gate); ``None``
    marks the all-zeros (idle) stream whose step is the fixed phase gate.

    BS=2 gives {Ry(pi/2), idle}; BS=3/4 add x-axis and inverse-y quarter
    turns.  A stored pi rotation does not fit one controller cycle at the
    calibrated tip angle, and a second pure-phase stream would duplicate
    the idle step, so the advertised {Ry(pi/2), T, X, Tdg} set is not
    realizable as stored streams.  Of these targets the designer reaches
    only BS=2 at 6.21286 GHz (see ``design_min_bitstreams``).
    """
    bs = checked_int("bs", bs, 2, 4)
    comp = phase_gate(checked_finite("cycle_phase", cycle_phase))  # D^dag on levels {0, 1}
    quarters = [ry(np.pi / 2),  # about the y, x and -y axes
                rz(np.pi / 2) @ ry(np.pi / 2) @ rz(-np.pi / 2),
                ry(-np.pi / 2)]
    return [comp @ q for q in quarters[:bs - 1]] + [None]


def design_min_bitstreams(spec: TransmonSpec, bs: int = 2) -> list[Bitstream]:
    """Design the BS stored streams for a min-architecture group.

    Only BS=2 at a nominal 6.21286 GHz is supported; any other pair is a
    ValueError before any search.  The greedy designer stalls above its
    1e-4 error target on the others: at 6.21286 GHz the x-axis quarter
    turn of BS=3/4 stops at 1.158e-4, and at 4.14238 GHz even Ry stops
    at 2.608e-4.
    """
    if checked_int("bs", bs, 2, 4) != 2 or abs(spec.nominal_freq - 6.21286e9) >= 1.0:
        raise ValueError(f"design_min_bitstreams supports only BS=2 at 6.21286 GHz, "
                         f"got BS={bs} at {spec.nominal_freq / 1e9:g} GHz")
    n_cycles = gate_length_cycles(spec.nominal_freq)
    cycle_phase = float(np.mod(2 * np.pi * spec.nominal_freq * n_cycles * SFQ_CLOCK_PERIOD,
                               2 * np.pi))
    streams = []
    for target in min_basis_targets(cycle_phase, bs):
        if target is None:
            streams.append(Bitstream(bits=tuple([0] * n_cycles), tip_angle=0.0))
        else:
            streams.append(design_bitstream(
                spec, target, window_centres=(0.0, np.pi / 2, np.pi, -np.pi / 2)))
    return streams


# --- scoring core ---------------------------------------------------------------

def _score_free_trailing(e_core: np.ndarray, span, z_lead, v: np.ndarray):
    """Gate errors of cells with an optimally chosen trailing virtual z, and its two terms.

    ``e_core``: (M, 2, 2) projected blocks (before the leading phase), block
    i making the next ``span[i]`` cells; cell k applies the unit phase
    ``z_lead[k]`` to column 1.  Returns (errs, a, b), each one value per
    cell: a and b are the rows of E @ P(z) traced against those of ``v``,
    whose angles give the trailing z (``_trailing``).
    """
    norm2 = np.sum(np.abs(e_core) ** 2, axis=(1, 2)).real
    a0, a1, b0, b1 = np.repeat((e_core.reshape(-1, 4) * np.conj(v).ravel()).T, span, axis=1)
    a, b = a0 + a1 * z_lead, b0 + b1 * z_lead
    return 1.0 - (np.repeat(norm2, span) + (np.abs(a) + np.abs(b)) ** 2) / 6.0, a, b


def _trailing(a, b, theta):
    """Optimal trailing z, angle(a) - angle(b), less the phase ``theta``, in [0, 2 pi)."""
    return np.mod(np.angle(a) - np.angle(b) - theta, 2 * np.pi)


def _fixed_errors(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gate errors of (N, 2, 2) projected blocks, no free virtual z: (N,)."""
    norm2 = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
    tr = np.einsum("ij,nij->n", v.conj(), blocks)
    return 1.0 - (norm2 + np.abs(tr) ** 2) / 6.0


_WINDOW = 4096  # rows of the first psi slice, and over n_max + 1 tuples of the first chunk
_TIE = 1e-12  # above the float error of a bound and the width of a rounded-error tie


def _bounds(norm2: np.ndarray, mags: np.ndarray, absv: np.ndarray) -> np.ndarray:
    """Error bounds 1 - (|E|^2 + (|E| . |v|)^2) / 6 of table rows (``_OptEngine.search``)."""
    return 1.0 - (norm2 + (mags @ absv) ** 2) / 6.0


def _window(psi: np.ndarray, peaks: np.ndarray, absv: np.ndarray, rows: int):
    """(lo, hi, floor): ``rows`` rows of sorted ``psi`` around tau, clipped to the table, and
    F(delta) (``_OptEngine``), delta from tau to the nearest row outside (+inf if none)."""
    (v00, v01, v10, v11), n = absv.tolist(), psi.size
    p, q = max(v00, v11), max(v01, v10)
    tau = float(np.arctan2(q, p))
    lo = min(max(int(np.searchsorted(psi, tau)) - rows // 2, 0), max(n - rows, 0))
    hi = min(lo + rows, n)
    gaps = ([tau - psi[lo - 1]] if lo else []) + ([psi[hi] - tau] if hi < n else [])
    if not gaps:
        return lo, hi, np.inf
    return lo, hi, 1.0 - (peaks[0] + peaks[1] * (p * p + q * q) * np.cos(min(gaps)) ** 2) / 6.0


def _rank(t):
    """Sort key of an (err, delays, ...) candidate: rounded error, total delay, delays."""
    err, delays = t[:2]
    return round(err, 14), sum(delays), delays


# --- opt engine -------------------------------------------------------------------

class _OptEngine:
    """Exact delay-tuple search over one qubit's stream unitary.

    Every pulse count L = 1..3 visits its delay tuples in increasing order
    of a lower bound on their errors, in chunks of 16, 32, 64, ... tuples
    at n_max = 255 (``_bound_order``), and stops before the first chunk
    whose bound lies above the lowest error found + margin, so it returns
    the list scoring all (n_max + 1)^L tuples would give: every tuple
    within margin of the lowest error or tied with it at 14 decimals (which
    adds entries only below a 1e-14 margin), each with the trailing virtual
    z its score chose, ranked by (round(err, 14), sum(delays), delays).  It
    keeps no result, only ``counts`` and each L's target-independent
    ``_table`` from its first search on (23.5 MB for L = 3 at n_max = 255).

    Table rows are sorted by psi = atan2(beta, alpha) in [0, pi/2], alpha =
    |E00| + |E11| and beta = |E01| + |E10|, rho^2 = alpha^2 + beta^2.  With
    P = max(|v00|, |v11|), Q = max(|v01|, |v10|), tau = atan2(Q, P) and R^2 =
    P^2 + Q^2, |E| . |v| <= P alpha + Q beta = rho R cos(psi - tau), so a row
    at least delta from tau has a bound of at least F(delta) = 1 - (max |E|^2
    + max rho^2 R^2 cos^2 delta) / 6, both maxima (``peaks``) over the table.
    """

    def __init__(self, cal: QubitCalibration):
        if cal.arch != "opt":
            raise CalibrationError(f"decompose_opt needs arch 'opt', got {cal.arch!r}")
        spec, self.n_max, self.cycle = cal.spec, cal.n_max, cal.controller_cycle_sfq
        e_tau = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels) * cal.clock_period
        self.phi1 = float(e_tau[1])  # two-level phase per SFQ cycle
        self.u6 = cal.basis_ops[0]
        self.pu = np.ascontiguousarray(self.u6[:2, :])
        self.phi_d = np.mod(self.phi1 * np.arange(self.n_max + 1), 2 * np.pi)
        self.deltas = np.arange(-self.n_max, self.n_max + 1)
        # K(cycle + delta): the free-evolution diagonals exp(-i*e_tau*n), (511, levels)
        self.k_deltas = np.exp(-1j * (self.cycle + self.deltas)[:, None] * e_tau)
        self._tables: dict[int, tuple[np.ndarray, ...]] = {}
        self.counts = np.zeros(3, dtype=int)  # tuples bounded, chunks and cells scored

    def _table(self, n_pulses: int) -> tuple[np.ndarray, ...]:
        """(E, |E|^2, |E|, psi, peaks, first, last, o_2..o_L) of each tuple with a cell, in
        psi order, read-only; ``peaks`` is (max |E|^2, max rho^2)."""
        if n_pulses not in self._tables:
            if n_pulses == 1:
                blocks, offsets = self.pu[None, :, :2], []
            else:  # rows[delta] = P U6 K(cycle + delta) U6 over all deltas, (511, 2, 6)
                rows = np.einsum("ij,dj,jk->dik", self.pu, self.k_deltas, self.u6, optimize=True)
                blocks, offsets = rows[..., :2], [self.deltas]
            if n_pulses == 3:  # blocks[delta_1, delta_2] = rows[delta_2] @ K(cycle + delta_1) U6 P
                blocks = np.einsum("eij,cjk->ceik", rows,
                                   self.k_deltas[:, :, None] * self.u6[:, :2], optimize=True)
                offsets = [self.deltas[:, None], self.deltas[:, None] + self.deltas]
            o = np.array([np.broadcast_to(x, blocks.shape[:-2]).ravel() for x in [0, *offsets]],
                         dtype=np.min_scalar_type(-2 * self.n_max - 1))  # |o_i| <= 2 n_max
            first, last = -o.min(axis=0), self.n_max - o.max(axis=0)  # of d_1
            blocks, keep = blocks.reshape(-1, 2, 2), np.flatnonzero(first <= last)
            mags = np.abs(blocks).reshape(-1, 4)
            alpha, beta = (mags[:, 0] + mags[:, 3])[keep], (mags[:, 1] + mags[:, 2])[keep]
            psi = np.arctan2(beta, alpha)
            order = np.argsort(psi)
            keep = keep[order]
            mags = np.take(mags, keep, axis=0)
            norm2 = np.sum(mags ** 2, axis=1)
            peaks = np.array([norm2.max(), np.max(alpha ** 2 + beta ** 2)])
            self._tables[n_pulses] = (np.take(blocks, keep, axis=0), norm2, mags, psi[order],
                                      peaks, first[keep], last[keep],
                                      *np.take(o[1:], keep, axis=1))
            for x in self._tables[n_pulses]:
                x.setflags(write=False)
        return self._tables[n_pulses]

    def _bound_order(self, n_pulses: int, absv: np.ndarray):
        """Yield (rows, bounds) chunks of the table, each row once, in increasing bound order.

        Each chunk holds the next lowest bounds of the table: max(1, ``_WINDOW``
        // (n_max + 1)) of them, then twice as many each time, the last chunk
        what is left.  Only the ``_window`` slice is bounded, of ``_WINDOW``
        rows, then twice as many until a chunk lies ``_TIE`` below its floor.
        """
        _, norm2, mags, psi, peaks = self._table(n_pulses)[:5]
        n, done, size, width = psi.size, 0, max(1, _WINDOW // (self.n_max + 1)), _WINDOW
        lo, hi, floor = _window(psi, peaks, absv, 0)
        rest, bound = np.zeros(0, dtype=int), np.zeros(0)  # the slice's rows left, ranked
        while done < n:
            k, size = min(size, n - done), 2 * size
            while np.searchsorted(bound, floor - _TIE, side="right") < k:
                a, b, floor = _window(psi, peaks, absv, width)
                new, lo, hi, width = np.r_[a:lo, hi:b], a, b, 2 * width
                self.counts[0] += new.size
                rest, bound = np.r_[rest, new], np.r_[bound, _bounds(norm2[new], mags[new], absv)]
                order = np.argsort(bound)
                rest, bound = rest[order], bound[order]
            yield rest[:k], bound[:k]
            rest, bound, done = rest[k:], bound[k:], done + k

    def search(self, v, fold, n_pulses: int, margin: float = 0.0):
        """[(err, delays, residual_phase)] of ``n_pulses`` pulses, best first.

        A tuple (d_1, d_1 + o_2, ..., d_1 + o_L) is its offsets o_i = d_i -
        d_1, which fix the projected block E, and its cell d_1 in [first,
        last], which puts every delay in [0, n_max] and enters only through
        the lead phase z.  By the triangle inequality a cell's error 1 -
        (|E|^2 + (|a0 + a1 z| + |b0 + b1 z|)^2) / 6 is at least its tuple's
        bound 1 - (|E|^2 + (|a0| + |a1| + |b0| + |b1|)^2) / 6, itself at
        least F (``_OptEngine``) for rows far from tau in psi, so only rows
        near tau are bounded.  Only the cells of the chunks from
        ``_bound_order``, each twice the last, are scored, until a chunk's
        first bound lies above the lowest error so far + ``margin`` +
        ``_TIE``.  Each keeps what lies that close to the running lowest,
        which never rises, and the list what lies within ``margin`` of the
        final one or ties it at 14 decimals, however the chunks are cut.
        ``residual_phase`` is the trailing z less theta_L, the qubit phase at
        the last application's start: the frame ``Decomposition1Q`` states.
        """
        if n_pulses == 0:  # no pulses: theta_0 = 0
            errs, a, b = _score_free_trailing(np.diag([1, np.exp(-1j * fold)])[None], 1, [1.0], v)
            return [(float(errs[0]), (), float(_trailing(a, b, 0.0)[0]))]
        blocks, _, _, _, _, first, last, *offsets = self._table(n_pulses)
        z = np.exp(-1j * (fold + self.phi_d))  # lead phase by d_1
        theta = (n_pulses - 1) * (self.phi1 * self.cycle) + self.phi_d  # by d_L
        low, kept = np.inf, []
        for at, bound in self._bound_order(n_pulses, np.abs(v).ravel()):
            if bound[0] > low + margin + _TIE:
                break
            span = last[at] - first[at] + 1  # cells d_1 = first..last of each tuple
            row = np.repeat(np.arange(at.size), span)
            d1 = np.arange(row.size) - (np.cumsum(span) - span - first[at])[row]
            errs, a, b = _score_free_trailing(blocks[at], span, z[d1], v)
            self.counts += 0, 1, row.size
            low = min(low, float(errs.min()))
            cell = np.flatnonzero(errs <= low + margin + _TIE)
            ds = [d1[cell]] + [d1[cell] + o[at[row[cell]]] for o in offsets]
            residual = _trailing(a[cell], b[cell], theta[ds[-1]])
            kept += zip(errs[cell].tolist(), zip(*(d.tolist() for d in ds)), residual.tolist())
        tie = round(low, 14)
        return sorted((t for t in kept if t[0] <= low + margin or round(t[0], 14) == tie),
                      key=_rank)


# --- min engine --------------------------------------------------------------------

def _su2_quaternions(blocks: np.ndarray) -> np.ndarray:
    """Unit quaternions of the closest SU(2) to each (near-unitary) 2x2 block.

    ``blocks`` is (N, 2, 2); returns (N, 4), every row finite.  A block is
    divided by the square root of its determinant, taken as 1 where
    |det| <= 1e-6, and q by its norm, taken as 1 where the norm is <= 1e-9:
    a singular block (a word that leaks all of a level) still gets a point,
    which at worst proposes pairs that the search rescores exactly.
    """
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    e = blocks / np.sqrt(np.where(np.abs(det) > 1e-6, det, 1.0))[:, None, None]
    q = np.stack([
        0.5 * (e[:, 0, 0] + e[:, 1, 1]).real,
        -0.5 * (e[:, 0, 1] + e[:, 1, 0]).imag,
        0.5 * (e[:, 1, 0] - e[:, 0, 1]).real,
        0.5 * (e[:, 1, 1] - e[:, 0, 0]).imag,
    ], axis=-1)
    norms = np.linalg.norm(q, axis=1)
    return q / np.where(norms > 1e-9, norms, 1.0)[:, None]


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product; supports (..., 4) arrays."""
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


class _Words(NamedTuple):
    """Target-independent arrays of the min words of one length.

    ``products`` holds the six-level products of all n_sym^length words
    (digit j = cycle j) and ``q`` the quaternions of their projected
    blocks, row i of both belonging to word i.
    """

    products: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, products: np.ndarray) -> "_Words":
        return cls(products, _su2_quaternions(products[:, :2, :2]))


_RESCORE_SLICE = 65536  # (first, second) pairs rescored per slice
_KNN = 8  # neighbours a first k-nearest query asks of each first half
_SLACK = 0.9  # below the least measured err / ((2/3) sin^2 phi) of a pair (``_ball_radius``)


def _ball_radius(err_budget: float, best: float) -> float:
    """Ball radius of a depth whose shallower depths' lowest error is ``best`` (``_depths``).

    r0 = max(0.05, 3.5*sqrt(1.5*err_budget)) is empirical.  A projected
    block E at quaternion angle theta_E from the target has err >= (2/3)
    sin^2(theta_E) while sin^2(theta_E) <= 3/4, from the average fidelity
    (Tr E E^dag + |Tr V^dag E|^2) / 6 of Pedersen, Moller & Molmer (Phys.
    Lett. A 367, 47, 2007).  The ball measures the angle phi of a second
    half from its wanted match instead, which the halves' leakage
    cross-term moves; err >= _SLACK * (2/3) sin^2(phi) is measured, not
    proven (least ratio 0.998 over all 5.2M such pairs of depths 15 and
    20 for 3 Haar targets at each of -12, -6, 0 and +6 MHz).  So no pair
    beyond the chord 2 sin(theta*/2), sin^2(theta*) = 1.5*best / _SLACK,
    beats ``best``: the radius is min(r0, chord) while sin^2(theta*) <
    3/4, else r0.
    """
    r0 = max(0.05, 3.5 * float(np.sqrt(1.5 * err_budget)))
    sin2 = max(1.5 * best / _SLACK, 0.0)
    return min(r0, 2.0 * float(np.sin(0.5 * np.arcsin(np.sqrt(sin2))))) if sin2 < 0.75 else r0


def _pair_blocks(keys: np.ndarray, n_second: int, cols: np.ndarray, rows: np.ndarray):
    """Yield (offset, blocks) for each ``_RESCORE_SLICE`` slice of sorted pair keys.

    A key is first * n_second + second, and ``blocks`` equals
    rows[second] @ cols[first] over the slice, bit for bit.  Sorted keys
    keep each first half's pairs together, so a run of k pairs with one
    first half is one (2k, 6) @ (6, 2) product; the runs of each length k
    in a slice are stacked into one batched product.
    """
    for lo in range(0, keys.size, _RESCORE_SLICE):
        qi, w2 = np.divmod(keys[lo:lo + _RESCORE_SLICE], n_second)
        starts = np.flatnonzero(np.diff(qi, prepend=-1))
        sizes = np.diff(starts, append=qi.size)
        by_size = np.argsort(sizes, kind="stable")
        blocks = np.empty((qi.size, 2, 2), dtype=complex)
        for runs in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            k = int(sizes[runs[0]])
            at = (starts[runs][:, None] + np.arange(k)).ravel()
            prod = rows[w2[at]].reshape(runs.size, 2 * k, -1) @ cols[qi[starts[runs]]]
            blocks[at] = prod.reshape(-1, 2, 2)
        yield lo, blocks


class _MinEngine:
    """Depth-ordered word search over the min step alphabet, as one lazy walk.

    The steps are D @ B_j for every stored stream alike (the all-zeros
    stream's B_j is the identity), and ``_word_table`` keeps one ``_Words``
    record per length.  Words up to ``exh_cap`` cycles (12 for two symbols,
    6 for more) are scored exhaustively (vectorized six-level products).
    Every deeper depth is split into a first half of a = depth // 2 cycles
    and a second half of the rest; the pairs whose second half lies in a
    closed ball around the first half's wanted match are rescored exactly
    with the six-level word products (E = P W2 W1 P = (P W2)(W1 P)).  Every
    word is a first half and a tree point, whatever its block: one KD-tree
    per first-half length a (``_tree``) holds one sign-canonical point
    (w >= 0) per word of lengths a and a + 1, and one ``_pair_keys`` call
    serves depths 2a and 2a+1, whose hits the walk (``_depths``, which
    sets each depth's radius) keeps only while it scores them.  The pairs
    of one depth are rescored as one batch sorted by their (first, second)
    key, one matrix product per first half, so the lowest key among the
    lowest errors wins.  The word tables of the halves stop at
    ``half_cap`` cycles (14 for two symbols, 7 for more), which bounds the
    depth a search can reach.  The engine holds only target-independent
    tables and ``decompose_min``'s results.
    """

    def __init__(self, cal: QubitCalibration):
        if cal.arch != "min":
            raise CalibrationError(f"decompose_min needs arch 'min', got {cal.arch!r}")
        spec = cal.spec
        e_tau_cycle = (level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
                       * cal.clock_period * cal.controller_cycle_sfq)
        self.phi = float(np.mod(e_tau_cycle[1], 2 * np.pi))
        self.steps6 = np.exp(-1j * e_tau_cycle)[:, None] * np.array(cal.basis_ops)  # D @ B
        self.n_sym = len(self.steps6)
        self.exh_cap = 12 if self.n_sym == 2 else 6
        self.half_cap = 14 if self.n_sym == 2 else 7
        self._words = [_Words.of(np.eye(spec.levels, dtype=complex)[None])]
        self._trees: dict[int, tuple] = {}  # ``_tree``'s, by first-half length
        self._results: dict[tuple, Decomposition1Q] = {}  # decompose_min's, by its inputs

    # -- tables ---------------------------------------------------------------

    def _word_table(self, length: int) -> _Words:
        """The words of length ``length``, each shorter table built on the way."""
        while len(self._words) <= length:
            prev = self._words[-1].products
            new = np.einsum("sij,njk->snik", self.steps6, prev, optimize=True)
            self._words.append(_Words.of(new.reshape(-1, *prev.shape[1:])))
        return self._words[length]

    def _tree(self, a: int):
        """(tree, order, conj) of the first halves of length ``a``, built once.

        Depths 2a and 2a+1 both split off a first half of length a, so the
        sliding-midpoint KD-tree holds one point per word of length a, then
        per word of length a + 1 (absent when a + 1 exceeds the half cap):
        with n = n_sym, point i is word i below n^a and word i - n^a from
        there on.  A word's point is its q times sign(q_w), so w >= 0 (q and
        -q are one gate up to a global phase).  ``order`` lists the words of
        length a in the tree's leaf order and ``conj`` their points' conjugates.
        """
        from scipy.spatial import cKDTree

        if a not in self._trees:
            q = np.concatenate([self._word_table(n).q
                                for n in range(a, min(a + 1, self.half_cap) + 1)])
            q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
            tree = cKDTree(q, balanced_tree=False)
            order = tree.indices[tree.indices < self.n_sym ** a]
            self._trees[a] = tree, order, q[order] * np.array([1.0, -1.0, -1.0, -1.0])
        return self._trees[a]

    def word_digits(self, index: int, length: int) -> tuple[int, ...]:
        return tuple(index // self.n_sym ** j % self.n_sym for j in range(length))

    # -- search ----------------------------------------------------------------

    def _depths(self, v, err_budget, last):
        """Yield (err, word, radius, pairs) of each depth 0..last, in order, lazily.

        (err, word) is the best word the depth scored.  Depths up to
        ``exh_cap`` score every word (radius None, 0 pairs).  Every deeper
        depth d rescores the pairs in the closed balls of radius
        ``_ball_radius(err_budget, b)``, b the lowest error yielded at the
        depths below d, and ``pairs`` counts them.  One ``_pair_keys`` call
        per first-half length a, at depth 2a's radius, gives the pairs of
        depths 2a and 2a+1; depth 2a+1 keeps those within its own radius,
        which is no larger.  Each share is dropped once scored, so the walk
        holds at most one call's keys, and a consumer that stops at 2a
        never rescores 2a+1.  A depth with no pair yields err inf and the
        empty word.
        """
        best = np.inf
        for depth in range(min(last, self.exh_cap) + 1):
            errs = _fixed_errors(self._word_table(depth).products[:, :2, :2], v)
            i = int(np.argmin(errs))
            best = min(best, float(errs[i]))
            yield float(errs[i]), self.word_digits(i, depth), None, 0
        if last <= self.exh_cap:
            return
        vq = _su2_quaternions(v[None])[0]
        for a in range((self.exh_cap + 1) // 2, last // 2 + 1):
            shares = self._pair_keys(vq, a, _ball_radius(err_budget, best))
            for b in (a, a + 1):
                keys, dists = shares.pop(0)
                if self.exh_cap < a + b <= last:
                    radius = _ball_radius(err_budget, best)
                    keys = keys[dists <= radius]
                    err, word = self._best_pair(v, keys, a, b)
                    best = min(best, err)
                    yield err, word, radius, keys.size
                del keys, dists

    def _pair_keys(self, vq, a, radius):
        """[depth 2a's, depth 2a+1's] (keys, distances) of one closed ball per first half.

        The wanted second half of a first half W1 is W2 ~ V W1^-1, so the
        closed ball of radius ``radius`` around vq * conj(q1) per first
        half of length a, asked in ``_tree``'s leaf order, proposes the
        pairs of both depths (2a+1's are empty at a = ``half_cap``).  A
        first half asks for its match x times sign(x_w), and only if x_w <=
        radius + ``_TIE`` also for -x: a point c (c_w >= 0) within the
        radius of -x has x_w <= |c + x| <= radius.  Negation being exact,
        the hits are the ball's over q and -q of every second half, as a
        multiset with the same distances.  Each ball comes from k-nearest
        queries bounded by the radius, k = ``_KNN`` (8) at first; rows whose
        k-th neighbour still lies in the ball are asked again with 4k until
        none is full.  A key is first * n_second + second, n_second the
        number of words of the second half's length, and its distance is
        that of its point from the first half's query; keys are unsorted.
        """
        (tree, order, conj), n_even = self._tree(a), self.n_sym ** a
        x = _quat_mul(vq[None, :], conj)
        x *= np.where(x[:, :1] < 0.0, -1.0, 1.0)
        band = x[:, 0] <= radius + _TIE
        x, rows, k = np.concatenate([x, -x[band]]), np.concatenate([order, order[band]]), _KNN
        firsts, points, dists = [], [], []
        while True:
            d, i = tree.query(x, k, distance_upper_bound=np.nextafter(radius, np.inf))
            d = d.reshape(rows.size, k)  # k = 1 drops the last axis
            hit = d <= radius
            full = hit[:, -1]
            r, c = np.nonzero(hit & ~full[:, None])
            firsts.append(rows[r])
            points.append(i.reshape(rows.size, k)[r, c])
            dists.append(d[r, c])
            del d, i, hit, r, c  # before the next, wider query
            if not full.any():
                break
            x, rows, k = x[full], rows[full], 4 * k
        firsts, points, dists = (np.concatenate(parts) for parts in (firsts, points, dists))
        odd = points >= n_even
        return [(firsts[~odd] * n_even + points[~odd], dists[~odd]),
                (firsts[odd] * (n_even * self.n_sym) + points[odd] - n_even, dists[odd])]

    def _best_pair(self, v, keys, a, b):
        """(err, word) of the best (first, second) pair of ``keys``; (inf, ()) if none.

        The keys (lengths a and b) are sorted in place (a key repeats only
        when q and -q both lie in one ball, and then next to its twin with
        the same error) and rescored in slices by ``_pair_blocks``; a
        slice's best replaces the running best only when strictly lower,
        so the lowest key among the lowest errors wins.
        """
        if not keys.size:
            return np.inf, ()
        keys.sort()
        n_second = self.n_sym ** b
        best_err, best_key = np.inf, -1
        cols, rows = self._word_table(a).products[:, :, :2], self._word_table(b).products[:, :2]
        for lo, blocks in _pair_blocks(keys, n_second, cols, rows):
            errs = _fixed_errors(blocks, v)
            j = int(np.argmin(errs))
            if errs[j] < best_err:
                best_err, best_key = float(errs[j]), int(keys[lo + j])
        qi, w2 = divmod(best_key, n_second)
        return best_err, self.word_digits(qi, a) + self.word_digits(w2, b)


# --- public ops ----------------------------------------------------------------------

def opt_level_errors(cal: QubitCalibration, target: np.ndarray,
                     fold_phase: float = 0.0, lmax: int = 3) -> dict[int, float]:
    """Cumulative best error for pulse counts L = 0..lmax.

    Each level's best is the first entry of its ``_OptEngine.search`` list
    at margin 0; the ``opt_haar`` benchmark screens its targets with it.
    """
    v = checked_target(target)
    fold_phase = checked_finite("fold_phase", fold_phase)
    lmax = checked_int("lmax", lmax, 0, 3)
    found = (cal.opt_engine.search(v, fold_phase, n)[0][0] for n in range(lmax + 1))
    return dict(enumerate(accumulate(found, min)))


def decompose_opt(cal: QubitCalibration, target: np.ndarray, err_budget: float = 1e-4,
                  margin: float = 1e-4, fold_phase: float = 0.0,
                  max_candidates: int = 128) -> list[Decomposition1Q]:
    """Decompose a 2x2 target into delay-scheduled bitstream applications.

    Searches L = 0 (pure virtual z), then 1, 2, 3 bitstream pulses on
    consecutive controller cycles against the qubit's exact six-level
    stream unitary.  The search is exact: each L skips only delay tuples
    whose error bound rules them out (see ``_OptEngine``).  The first L
    whose best error meets ``err_budget`` returns its ranked list, at
    most ``max_candidates`` entries: its tuples within ``margin`` of the
    lowest error, and below a 1e-14 margin also those that tie it at 14
    decimals, ordered by the key (round(err, 14), sum(delays), delays), so
    the scheduler can trade accuracy for broadcast sharing.  If no level
    meets the budget, the tuple with the lowest key across levels is
    returned flagged; a tie in rounded error keeps the lower L.  No result
    is cached: each call searches afresh, on the tables ``cal.opt_engine``
    keeps per L, and logs one DEBUG record to the ``sfqctrl`` logger (the
    L reached, tuples bounded, chunks and cells scored, candidates kept).
    """
    v = checked_target(target)
    err_budget = checked_finite("err_budget", err_budget, ">= 0")
    margin = checked_finite("margin", margin, ">= 0")
    fold_phase = checked_finite("fold_phase", fold_phase)
    max_candidates = checked_int("max_candidates", max_candidates, 1)
    eng = cal.opt_engine
    flagged, best, before = False, (np.inf,), eng.counts.copy()
    for n_pulses in range(4):
        found = eng.search(v, fold_phase, n_pulses, margin)
        if found[0][0] <= err_budget:
            candidates = found[:max_candidates]
            break
        if round(found[0][0], 14) < round(best[0], 14):
            best = found[0]
    else:
        flagged, candidates = True, [best]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("decompose_opt: L %d reached, err %.3g%s; %d tuples bounded, %d chunks and %d "
                   "cells scored; %d candidates kept", n_pulses, max(candidates[0][0], 0.0),
                   " (flagged)" * flagged, *(eng.counts - before), len(candidates))
    return [Decomposition1Q(kind="opt", steps=delays, residual_phase=residual,
                            err=max(err, 0.0), flagged=flagged)
            for err, delays, residual in candidates]


def decompose_min(
    cal: QubitCalibration,
    target: np.ndarray,
    err_budget: float = 1e-4,
    max_depth: int | None = None,
    fold_phase: float = 0.0,
) -> Decomposition1Q:
    """Shortest stored-gate word approximating the target on this qubit.

    Depth-ordered search over per-cycle words (leakage carried
    through the full six-level sequence, projected once at the end):
    walks ``_MinEngine._depths`` from depth 0 (the empty word) and stops at
    the first depth whose best word meets ``err_budget``.  Returns that
    word, otherwise the best word scored, flagged.  That is every word up
    to 12 cycles (6 for three or four symbols), but deeper only the (first
    half, second half) pairs whose quaternions lie in a closed ball around
    the first half's wanted match, of the radius ``_depths`` and
    ``_ball_radius`` state, so a flagged word is the best pair the balls
    found, not the best word up to ``max_depth``.
    ``residual_phase`` carries the frame-reconciliation phase (word length
    times the cycle phase) the compiler folds downstream; it is
    bookkeeping, not error.
    ``max_depth`` defaults to, and may not exceed, the deepest word the
    half tables cover: 28 cycles for the two-symbol alphabet, 14 otherwise.
    Each search (not a cached result) logs one DEBUG record to the
    ``sfqctrl`` logger: the depth reached, the radius by depth and the
    pairs rescored.
    """
    v = checked_target(target)
    err_budget = checked_finite("err_budget", err_budget, ">= 0")
    fold_phase = checked_finite("fold_phase", fold_phase)
    eng = cal.min_engine
    top = 2 * eng.half_cap
    max_depth = checked_int("max_depth", top if max_depth is None else max_depth, 0, top)
    key = (v.tobytes(), fold_phase, err_budget, max_depth)
    hit = eng._results.get(key)
    if hit is not None:
        return hit
    (err, word), walked = (np.inf, ()), []
    for step in eng._depths(v @ phase_gate(fold_phase), err_budget, max_depth):
        walked.append(step)
        if step[0] < err:
            err, word = step[:2]
        if err <= err_budget:
            break
    res = Decomposition1Q(
        kind="min", steps=tuple(word),
        residual_phase=float(np.mod(len(word) * eng.phi, 2 * np.pi)),
        err=max(float(err), 0.0), flagged=err > err_budget)
    eng._results[key] = res
    if _log.isEnabledFor(logging.DEBUG):
        radii = {depth: round(r, 5) for depth, (*_, r, _) in enumerate(walked) if r is not None}
        _log.debug("decompose_min: depth %d reached, err %.3g%s; radius by depth %s; "
                   "%d pairs rescored", len(walked) - 1, res.err, " (flagged)" * res.flagged,
                   radii, sum(pairs for *_, pairs in walked))
    return res


def _lowered_block(cal: QubitCalibration, steps: Sequence[int]) -> np.ndarray:
    """2x2 block A of the anchored train of a decomposition's stream applications.

    Opt fires stream 0 at SFQ cycle i * controller_cycle_sfq + d_i, min the
    stream k_j of step j at j * controller_cycle_sfq.  The walk is one
    product of ``cal.basis_ops`` with the free-evolution diagonal of each
    gap between starts, anchored at cycle 0 (``transmon``'s frame), so A is
    the block of the whole train's ``pulse_train_unitary``; no step gives 1.
    """
    spec, cycle = cal.spec, cal.controller_cycle_sfq
    fired = ([(0, i * cycle + d) for i, d in enumerate(steps)] if cal.arch == "opt"
             else [(k, j * cycle) for j, k in enumerate(steps)])
    e_tau = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels) * cal.clock_period
    m, now = np.eye(spec.levels, dtype=complex), 0
    for k, start in fired:
        m, now = cal.basis_ops[k] @ (np.exp(-1j * e_tau * (start - now))[:, None] * m), start
    return np.exp(1j * e_tau[:2] * now)[:, None] * m[:2, :2]


def recompose_error(cal: QubitCalibration, dec: Decomposition1Q,
                    target: np.ndarray, fold_phase: float = 0.0) -> float:
    """Recompute a decomposition's error from its stored streams fired at their start cycles.

    Scores the framed block phase_gate(s * residual_phase) @ A @
    phase_gate(-fold_phase) that ``Decomposition1Q`` states, A from
    ``_lowered_block`` (plain six-level products, nothing shared with the
    search tables), so any returned ``err`` and ``residual_phase`` must
    reproduce ``err`` to 1e-12.  ``dec`` must be of the calibration's
    architecture, with every step an opt delay in 0..n_max or a min symbol
    index and a finite ``residual_phase``, else a ValueError naming it.
    """
    v = checked_target(target)
    fold_phase = checked_finite("fold_phase", fold_phase)
    if dec.kind != cal.arch:
        raise ValueError(f"dec.kind must be the calibration's {cal.arch!r}, got {dec.kind!r}")
    top = cal.n_max if dec.kind == "opt" else len(cal.basis_ops) - 1
    for i, step in enumerate(dec.steps):
        checked_int(f"dec.steps[{i}]", step, 0, top)
    residual = checked_finite("dec.residual_phase", dec.residual_phase)
    frame = phase_gate(residual if dec.kind == "opt" else -residual)
    framed = frame @ _lowered_block(cal, dec.steps) @ phase_gate(-fold_phase)
    return max(float(projected_errors(framed, v)), 0.0)
