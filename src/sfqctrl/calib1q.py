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
          D @ B_j and the all-zeros stream's step is a fixed z-phase
          (the T-like gate: at 6.21286 GHz / 253 cycles the step angle
          is 0.7908 rad, within 0.006 of pi/4 -- and it drifts with the
          qubit, which is what makes outlier qubits possible).  Words
          over the step alphabet are searched exhaustively in order of
          depth; stored streams are designed against D^dag-compensated
          targets so their steps equal the advertised gates at zero
          drift.

Both searches score with the qubit's exact six-level operators: leakage
accumulates through the sequence and is projected once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

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
    checked_target,
    level_energies,
    phase_gate,
    ry,
    rz,
    unitarity_defect,
)


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Decomposition1Q:
    """One realization of a single-qubit gate on calibrated hardware.

    ``steps`` holds the delays d_1..d_L for the opt architecture (one per
    bitstream application, L <= 3) or per-cycle basis-gate indices for
    min (idle steps included).  ``residual_phase`` is the trailing
    virtual z the compiler folds into the qubit's next gate.  For opt,
    ``phase_gate(residual_phase) @ U @ phase_gate(-fold_phase)`` has error
    ``err``, U being the anchored ``pulse_train_unitary`` of one train with
    application i at SFQ cycle i * controller_cycle_sfq + d_i (U = 1 at
    L=0).  ``err`` is the six-level projected average-gate-fidelity error;
    ``flagged`` marks best-effort results that missed the budget.
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

    ``n_max`` is the longest opt delay in SFQ cycles; ``idle_index`` is
    the position of the all-zeros stream, if any.
    """

    qubit_id: int
    spec: TransmonSpec
    arch: str
    basis_ops: list[np.ndarray]
    n_max: int
    controller_cycle_sfq: int
    clock_period: float
    idle_index: int | None = None
    _cache: dict = field(default_factory=dict, repr=False)

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
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not shared_bitstreams:
        raise CalibrationError("at least one shared bitstream is required")
    first = shared_bitstreams[0]
    if any(len(bs) != len(first) or bs.clock_period != first.clock_period
           for bs in shared_bitstreams):
        raise CalibrationError("shared bitstreams differ in length or clock period")
    ops = []
    for bs in shared_bitstreams:
        u = bs.simulate(spec)
        if unitarity_defect(u) > 1e-8:
            raise CalibrationError("bitstream evolution lost unitarity")
        ops.append(u)
    stream_len = len(first)
    if arch == "opt":
        cycle = (n_max + 1) + stream_len
    elif arch == "min":
        cycle = stream_len
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    idle = None
    for i, bs in enumerate(shared_bitstreams):
        if bs.n_pulses == 0:
            idle = i
            break
    return QubitCalibration(
        qubit_id=qubit_id,
        spec=spec,
        arch=arch,
        basis_ops=ops,
        n_max=n_max,
        controller_cycle_sfq=cycle,
        clock_period=first.clock_period,
        idle_index=idle,
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
    realizable as stored streams.
    """
    comp = phase_gate(cycle_phase)  # D^dag on the computational block
    quarter = {
        0.0: ry(np.pi / 2),
        np.pi / 2: rz(np.pi / 2) @ ry(np.pi / 2) @ rz(-np.pi / 2),
        np.pi: ry(-np.pi / 2),
    }
    if bs == 2:
        axes = [0.0]
    elif bs == 3:
        axes = [0.0, np.pi / 2]
    elif bs == 4:
        axes = [0.0, np.pi / 2, np.pi]
    else:
        raise ValueError("min architecture supports BS in {2, 3, 4}")
    return [comp @ quarter[a] for a in axes] + [None]


def design_min_bitstreams(spec: TransmonSpec, bs: int = 2) -> list[Bitstream]:
    """Design the BS stored streams for a min-architecture group."""
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

def _score_free_trailing(e_core: np.ndarray, z_lead: np.ndarray, v: np.ndarray):
    """Gate error with an optimally chosen trailing virtual z.

    ``e_core``: (M, 2, 2) projected candidate blocks (before the leading
    phase); ``z_lead``: (K,) unit phases applied to column 1.  Returns an
    (M, K) error matrix.
    """
    norm2 = np.sum(np.abs(e_core) ** 2, axis=(1, 2)).real
    a0 = e_core[:, 0, 0] * np.conj(v[0, 0])
    a1 = e_core[:, 0, 1] * np.conj(v[0, 1])
    b0 = e_core[:, 1, 0] * np.conj(v[1, 0])
    b1 = e_core[:, 1, 1] * np.conj(v[1, 1])
    mag = (np.abs(a0[:, None] + a1[:, None] * z_lead[None, :])
           + np.abs(b0[:, None] + b1[:, None] * z_lead[None, :]))
    return 1.0 - (norm2[:, None] + mag ** 2) / 6.0


def _trailing_phase(e: np.ndarray, v: np.ndarray) -> float:
    """Optimal trailing virtual-z angle for a single 2x2 candidate."""
    a = e[0, 0] * np.conj(v[0, 0]) + e[0, 1] * np.conj(v[0, 1])
    b = e[1, 0] * np.conj(v[1, 0]) + e[1, 1] * np.conj(v[1, 1])
    return float(np.angle(a) - np.angle(b))


def _exact_err_free_trailing(e: np.ndarray, v: np.ndarray) -> float:
    a = e[0, 0] * np.conj(v[0, 0]) + e[0, 1] * np.conj(v[0, 1])
    b = e[1, 0] * np.conj(v[1, 0]) + e[1, 1] * np.conj(v[1, 1])
    norm2 = float(np.sum(np.abs(e) ** 2))
    return 1.0 - (norm2 + (abs(a) + abs(b)) ** 2) / 6.0


def _exact_err_fixed(e: np.ndarray, v: np.ndarray) -> float:
    return float(1.0 - (np.sum(np.abs(e) ** 2)
                        + abs(np.trace(v.conj().T @ e)) ** 2) / 6.0)


def _collect(chunks, margin: float):
    """One pass: (best err, its delays, every (err, delays) within ``margin``).

    ``chunks`` yields (errs, ds), ds holding the delays d_1..d_L of each
    entry of ``errs``; the first entry at the lowest error is the best.
    Each chunk keeps what lies within ``margin`` of the running best, which
    never falls below the final best, so the closing filter loses nothing.
    """
    best, best_delays, kept = np.inf, None, []
    for errs, ds in chunks:
        i = np.unravel_index(int(np.argmin(errs)), errs.shape)
        if errs[i] < best:
            best, best_delays = float(errs[i]), tuple(int(d[i]) for d in ds)
        sel = errs <= best + margin
        kept += zip(errs[sel].tolist(), zip(*(d[sel].tolist() for d in ds)))
    return best, best_delays, [t for t in kept if t[0] <= best + margin]


# --- opt engine -------------------------------------------------------------------

class _OptEngine:
    """Vectorized delay-tuple search over one qubit's stream unitary."""

    def __init__(self, cal: QubitCalibration):
        if cal.arch != "opt":
            raise CalibrationError(f"decompose_opt needs arch 'opt', got {cal.arch!r}")
        spec = cal.spec
        self.n_max = cal.n_max
        self.cycle = cal.controller_cycle_sfq
        self.e_tau = level_energies(spec.actual_freq, spec.anharmonicity,
                                    spec.levels) * cal.clock_period
        self.phi1 = float(self.e_tau[1])  # two-level phase per SFQ cycle
        self.u6 = cal.basis_ops[0]
        self.pu = np.ascontiguousarray(self.u6[:2, :])
        self.phi_d = np.mod(self.phi1 * np.arange(self.n_max + 1), 2 * np.pi)
        self.deltas = np.arange(-self.n_max, self.n_max + 1)
        self.k_deltas = self.k_diag(self.cycle + self.deltas)  # K(cycle + delta)

    def k_diag(self, sfq_cycles) -> np.ndarray:
        """Free-evolution diagonals exp(-i*e_tau*n) for integer cycle counts.

        A scalar count gives one (levels,) diagonal, an (n,) array (n, levels).
        """
        return np.exp(-1j * np.asarray(sfq_cycles, dtype=float)[..., None] * self.e_tau)

    @cached_property
    def t2_rows(self) -> np.ndarray:
        """P @ U6 @ K(cycle + delta) @ U6 over all deltas: (511, 2, 6)."""
        return np.einsum("ij,dj,jk->dik", self.pu, self.k_deltas, self.u6, optimize=True)

    def _scored_chunks(self, v, fold, n_pulses: int):
        """Yield (errs, ds) chunks covering every delay tuple of ``n_pulses`` >= 1.

        ``errs`` scores each tuple; its axes are (delta_{L-1}, ..., delta_1,
        d_1) with delta_i = d_{i+1} - d_i, and L=3 comes in 16-delta_1
        slices.  ``ds`` holds d_1..d_L broadcast to ``errs``' shape; tuples
        with a delay outside [0, n_max] score inf.
        """
        z = np.exp(-1j * (fold + self.phi_d))  # lead phase of each d_1
        if n_pulses == 1:
            blocks = [(self.pu[None], [])]
        elif n_pulses == 2:
            blocks = [(self.t2_rows, [self.deltas])]
        else:
            blocks = ((np.einsum("eij,cjk->ecik", self.t2_rows,
                                 self.k_deltas[lo:lo + 16, :, None] * self.u6,
                                 optimize=True),
                       [self.deltas, self.deltas[lo:lo + 16]])
                      for lo in range(0, len(self.deltas), 16))
        for rows, steps in blocks:
            e_core = np.ascontiguousarray(rows[..., :2]).reshape(-1, 2, 2)
            errs = _score_free_trailing(e_core, z, v).reshape(
                *(len(s) for s in steps), self.n_max + 1)
            mesh = np.ix_(*steps, np.arange(self.n_max + 1))  # (..., delta_1, d_1)
            ds = np.broadcast_arrays(errs, *accumulate(mesh[::-1]))[1:]
            valid = np.all([(d >= 0) & (d <= self.n_max) for d in ds], axis=0)
            yield np.where(valid, errs, np.inf), ds

    def search(self, v, fold, n_pulses: int, margin: float = 0.0):
        """(best err, its delays, every (err, delays) within ``margin`` of it)."""
        if n_pulses == 0:
            err = _exact_err_free_trailing(self.block((), fold), v)
            return err, (), [(err, ())]
        return _collect(self._scored_chunks(v, fold, n_pulses), margin)

    def block(self, delays: Sequence[int], fold: float) -> np.ndarray:
        """Projected 2x2 block of a delay schedule, lead phase included.

        Plain products U6 K ... U6 over consecutive controller cycles,
        then the lead phase of the first delay on column 1; no pulses
        leave only the folded phase.
        """
        if not delays:
            return np.diag([1.0, np.exp(-1j * fold)])
        m = self.u6.copy()
        for prev, d in zip(delays, delays[1:]):
            m = self.u6 @ (self.k_diag(self.cycle + (d - prev))[:, None] * m)
        z = np.exp(-1j * (fold + self.phi_d[delays[0]]))
        return m[:2, :2] @ np.diag([1.0, z])


# --- min engine --------------------------------------------------------------------

def _su2_quaternions(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit quaternions of the closest SU(2) to each (near-unitary) 2x2 block.

    ``blocks`` is (N, 2, 2).  Returns (q, ok): q is (N, 4), and ok marks
    the blocks whose determinant and quaternion norm are far enough from
    zero for q to be meaningful.
    """
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    ok = np.abs(det) > 1e-6
    e = blocks / np.sqrt(np.where(ok, det, 1.0))[:, None, None]
    q = np.stack([
        0.5 * (e[:, 0, 0] + e[:, 1, 1]).real,
        -0.5 * (e[:, 0, 1] + e[:, 1, 0]).imag,
        0.5 * (e[:, 1, 0] - e[:, 0, 1]).real,
        0.5 * (e[:, 1, 1] - e[:, 0, 0]).imag,
    ], axis=-1)
    norms = np.linalg.norm(q, axis=1)
    ok &= norms > 1e-9
    return q / np.where(ok, norms, 1.0)[:, None], ok


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


class _MinEngine:
    """Depth-ordered word search over the min step alphabet.

    Words up to a direct-enumeration bound are scored exhaustively
    (vectorized six-level products).  Beyond it, a meet-in-the-middle
    stage splits each depth into two stored halves, generates candidate
    pairs with a quaternion nearest-neighbour query on the projected
    blocks, and rescores every hit with the exact six-level row/column
    tables (E = P W2 W1 P = (P W2)(W1 P), associativity making the
    rescoring exact).  Falls back to plain enumeration results when the
    alphabet has several pulse types (meet-in-the-middle half tables stay
    affordable only for the two-symbol alphabet).
    """

    def __init__(self, cal: QubitCalibration):
        if cal.arch != "min":
            raise CalibrationError(f"decompose_min needs arch 'min', got {cal.arch!r}")
        self.cal = cal
        spec = cal.spec
        self.e_tau_cycle = (level_energies(spec.actual_freq, spec.anharmonicity,
                                           spec.levels)
                            * cal.clock_period * cal.controller_cycle_sfq)
        self.d_vec = np.exp(-1j * self.e_tau_cycle)
        self.phi = float(np.mod(self.e_tau_cycle[1], 2 * np.pi))
        if cal.idle_index is None:
            raise CalibrationError("min architecture requires an all-zeros stream")
        # step operators D @ B for every basis entry (idle included)
        dim = spec.levels
        self.steps6 = []
        for i, b in enumerate(cal.basis_ops):
            mat = np.eye(dim, dtype=complex) if i == cal.idle_index else b
            self.steps6.append(self.d_vec[:, None] * mat)
        self.n_sym = len(self.steps6)
        self.exh_cap = 12 if self.n_sym == 2 else 6
        self.half_cap = 14 if self.n_sym == 2 else 7
        self._words: list[np.ndarray] = [np.eye(dim, dtype=complex)[None, :, :]]
        self._trees: dict[int, tuple[object, np.ndarray]] = {}

    # -- tables ---------------------------------------------------------------

    def _word_table(self, length: int) -> np.ndarray:
        """Six-level products of all n_sym^length words (digit j = cycle j)."""
        while len(self._words) <= length:
            prev = self._words[-1]
            step = np.stack(self.steps6)  # (S,6,6)
            new = np.einsum("sij,njk->snik", step, prev, optimize=True)
            self._words.append(new.reshape(-1, *prev.shape[1:]))
        return self._words[length]

    def _half_tree(self, length: int):
        """KD-tree over SU(2) quaternions of the length-`length` half words.

        Returns (tree, owners): tree point i is +-q of half word owners[i].
        """
        from scipy.spatial import cKDTree

        if length not in self._trees:
            q, ok = _su2_quaternions(self._word_table(length)[:, :2, :2])
            idx = np.flatnonzero(ok)
            self._trees[length] = (cKDTree(np.concatenate([q[idx], -q[idx]])),
                                   np.concatenate([idx, idx]))
        return self._trees[length]

    def word_digits(self, index: int, length: int) -> tuple[int, ...]:
        word = []
        x = index
        for _ in range(length):
            word.append(x % self.n_sym)
            x //= self.n_sym
        return tuple(word)

    def word_block(self, steps: Sequence[int]) -> np.ndarray:
        """Projected 2x2 block of an explicit per-cycle word (plain product)."""
        dim = self.cal.spec.levels
        m = np.eye(dim, dtype=complex)
        for s in steps:
            m = self.steps6[s] @ m
        return m[:2, :2]

    # -- search ----------------------------------------------------------------

    def _score_table(self, blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
        norm2 = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
        tr = np.einsum("ij,nij->n", v.conj(), blocks)
        return 1.0 - (norm2 + np.abs(tr) ** 2) / 6.0

    def search(self, v_eff: np.ndarray, err_budget: float,
               max_depth: int) -> tuple[float, tuple[int, ...]]:
        """Shortest word (exact match, no free trailing) within the budget.

        Depth-ordered: exhaustive while n_sym^depth stays small, then
        meet-in-the-middle with half tables capped at 16384 entries (full
        depth-28 coverage for the two-symbol alphabet, depth 14 for the
        four-symbol one; ``max_depth`` must not exceed it).  When no word
        meets the budget the best found overall is returned (caller flags it).
        """
        e0 = _exact_err_fixed(np.eye(2, dtype=complex), v_eff)
        best: tuple[float, tuple[int, ...]] = (max(e0, 0.0), ())
        if best[0] <= err_budget:
            return best
        for depth in range(1, min(max_depth, self.exh_cap) + 1):
            table = self._word_table(depth)
            errs = self._score_table(table[:, :2, :2], v_eff)
            i = int(np.argmin(errs))
            if errs[i] < best[0]:
                best = (max(float(errs[i]), 0.0), self.word_digits(i, depth))
            if best[0] <= err_budget:
                return best
        radius = max(0.05, 3.5 * np.sqrt(1.5 * err_budget))
        vq, ok = _su2_quaternions(v_eff[None])
        if not ok[0]:
            return best
        for depth in range(self.exh_cap + 1, max_depth + 1):
            err, word = self._mitm_depth(v_eff, vq[0], depth, radius)
            if err < best[0]:
                best = (max(err, 0.0), word)
            if best[0] <= err_budget:
                return best
        return best

    def _mitm_depth(self, v, vq, depth, radius):
        a = depth // 2
        b = depth - a
        first = self._word_table(a)
        cols = np.ascontiguousarray(first[:, :, :2])   # W1 @ P
        q1, ok1 = _su2_quaternions(first[:, :2, :2])
        # wanted second half: W2 ~ V W1^{-1}; unit quaternion inverse = conj
        q1_inv = q1 * np.array([1.0, -1.0, -1.0, -1.0])
        targets = _quat_mul(vq[None, :], q1_inv)
        tree, owners = self._half_tree(b)
        second = self._word_table(b)
        rows = np.ascontiguousarray(second[:, :2, :])  # P @ W2
        hits = tree.query_ball_point(targets[ok1], r=radius)
        idx_ok = np.flatnonzero(ok1)
        best_err, best_word = np.inf, ()
        for qi, neigh in zip(idx_ok, hits):
            if not neigh:
                continue
            w2s = np.unique(owners[np.asarray(neigh)])
            e = rows[w2s] @ cols[qi]
            errs = self._score_table(e, v)
            j = int(np.argmin(errs))
            if errs[j] < best_err:
                best_err = float(errs[j])
                best_word = (self.word_digits(int(qi), a)
                             + self.word_digits(int(w2s[j]), b))
        return best_err, best_word


# --- public ops ----------------------------------------------------------------------

def opt_level_errors(cal: QubitCalibration, target: np.ndarray,
                     fold_phase: float = 0.0, lmax: int = 3) -> dict[int, float]:
    """Cumulative best error for pulse counts L = 0..lmax (analysis helper)."""
    v = checked_target(target)
    if not 0 <= lmax <= 3:
        raise ValueError(f"lmax must lie in 0..3, got {lmax}")
    eng = cal.opt_engine
    out, best = {}, np.inf
    for n_pulses in range(lmax + 1):
        best = min(best, eng.search(v, fold_phase, n_pulses)[0])
        out[n_pulses] = best
    return out


def decompose_opt(
    cal: QubitCalibration,
    target: np.ndarray,
    err_budget: float = 1e-4,
    margin: float = 1e-4,
    fold_phase: float = 0.0,
    max_candidates: int = 128,
) -> list[Decomposition1Q]:
    """Decompose a 2x2 target into delay-scheduled bitstream applications.

    Searches L = 0 (pure virtual z), then 1, 2, 3 bitstream pulses on
    consecutive controller cycles, scoring every delay tuple against the
    qubit's exact six-level stream unitary.  The first L whose best error meets
    ``err_budget`` returns all its tuples within ``margin`` of that best,
    ordered by rounded error, then total delay, then lexicographic delays,
    so the scheduler can trade accuracy for broadcast sharing.  If no
    level meets the budget, the best tuple across levels is returned
    flagged; a tie in rounded error keeps the lower L.
    """
    v = checked_target(target)
    key = ("opt", v.tobytes(), round(float(fold_phase), 9), err_budget, margin)
    hit = cal._cache.get(key)
    if hit is not None:
        return hit
    eng = cal.opt_engine

    flagged, best = False, (np.inf, None)
    for n_pulses in range(4):
        err, delays, kept = eng.search(v, fold_phase, n_pulses, margin)
        if err <= err_budget:
            candidates = sorted(kept, key=lambda t: (round(t[0], 14), sum(t[1]), t[1]))
            break
        if round(err, 14) < round(best[0], 14):
            best = (err, delays)
    else:
        flagged, candidates = True, [best]

    out = []
    for err, delays in candidates[:max_candidates]:
        rho = _residual_for(eng, v, fold_phase, delays)
        out.append(Decomposition1Q(kind="opt", steps=tuple(delays),
                                   residual_phase=rho, err=max(err, 0.0),
                                   flagged=flagged))
    cal._cache[key] = out
    return out


def _residual_for(eng: _OptEngine, v, fold, delays) -> float:
    """Trailing virtual z of a delay tuple, in the frame ``Decomposition1Q`` states.

    rho is the optimal trailing z of ``block``; the anchored train of the
    whole schedule needs rho - theta_L, theta_L the qubit phase at the
    last application's start (0 without applications).
    """
    rho = _trailing_phase(eng.block(delays, fold), v)
    theta_l = ((len(delays) - 1) * (eng.phi1 * eng.cycle) + eng.phi_d[delays[-1]]
               if delays else 0.0)
    return float(np.mod(rho - theta_l, 2 * np.pi))


def decompose_min(
    cal: QubitCalibration,
    target: np.ndarray,
    err_budget: float = 1e-4,
    max_depth: int = 28,
    fold_phase: float = 0.0,
) -> Decomposition1Q:
    """Shortest stored-gate word approximating the target on this qubit.

    Depth-ordered search over per-cycle words (leakage accumulated
    through the full six-level sequence, projected once at the end).
    Returns the shortest word with error <= ``err_budget``, otherwise the
    best word found up to ``max_depth``, flagged.  ``residual_phase``
    carries the frame-reconciliation phase (word length times the cycle
    phase) the compiler folds downstream; it is bookkeeping, not error.
    ``max_depth`` may not exceed the deepest word the search covers: 28
    cycles for the two-symbol alphabet, 14 otherwise.
    """
    v = checked_target(target)
    eng = cal.min_engine
    if not 0 <= max_depth <= 2 * eng.half_cap:
        raise ValueError(f"max_depth must lie in 0..{2 * eng.half_cap}, got {max_depth}")
    key = ("min", v.tobytes(), round(float(fold_phase), 9), err_budget, max_depth)
    hit = cal._cache.get(key)
    if hit is not None:
        return hit
    v_eff = v @ phase_gate(fold_phase)
    err, word = eng.search(v_eff, err_budget, max_depth)
    res = Decomposition1Q(
        kind="min", steps=tuple(word),
        residual_phase=float(np.mod(len(word) * eng.phi, 2 * np.pi)),
        err=max(float(err), 0.0), flagged=err > err_budget)
    cal._cache[key] = res
    return res


def recompose_error(cal: QubitCalibration, dec: Decomposition1Q,
                    target: np.ndarray, fold_phase: float = 0.0) -> float:
    """Recompute a decomposition's error from plain six-level products.

    Independent of the vectorized search tables; verifies that any
    returned ``err`` is reproducible to 1e-12.
    """
    v = np.asarray(target, dtype=complex)
    if dec.kind == "opt":
        e = cal.opt_engine.block(dec.steps, fold_phase)
        return max(_exact_err_free_trailing(e, v), 0.0)
    v_eff = v @ phase_gate(fold_phase)
    e = cal.min_engine.word_block(dec.steps)
    return max(_exact_err_fixed(e, v_eff), 0.0)
