import json
import logging
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from min_oracle import (RADIUS, ball_pair_keys, exhaustive_depth, fixed_radius_walk, leakage,
                        loop_walk, pair_key_mismatches, running_bests, target_quaternion)
from opt_oracle import DRIFTS, FOLDS, mismatches
from sfqctrl import calib1q
from sfqctrl.bitstream import Bitstream
from sfqctrl.calib1q import (
    CalibrationError,
    calibrate_qubit,
    decompose_min,
    design_min_bitstreams,
    decompose_opt,
    min_basis_targets,
    opt_level_errors,
    recompose_error,
)
from sfqctrl.transmon import (
    TransmonSpec,
    level_energies,
    phase_gate,
    projected_fidelity,
    pulse_train_unitary,
    ry,
    rz,
    unitarity_defect,
)

BUDGET = 1e-4
MARGIN = 1e-4  # decompose_opt's default
GOLDEN_STREAMS = Path(__file__).resolve().parents[1] / "perfbench/fixtures/streams.json"
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T = np.diag([1, np.exp(0.25j * np.pi)])
S = np.diag([1, 1j])
X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture(scope="module")
def golden():
    """The frozen streams the benchmark verifies, by name (the file is only read)."""
    entries = json.loads(GOLDEN_STREAMS.read_text())["streams"]
    return {name: Bitstream.from_string(e["bits"], e["clock_period"], e["tip_angle"])
            for name, e in entries.items()}


def test_min_designer_matches_golden_fixtures(spec_hi, golden):
    # BS=2: the designed Ry stream (four-centre window scan) and the idle stream
    ry_bs, idle = design_min_bitstreams(spec_hi, bs=2)
    for bs, name in ((ry_bs, "min_ry_6212MHz"), (idle, "min_idle_6212MHz")):
        assert bs.bits == golden[name].bits
        assert bs.tip_angle == golden[name].tip_angle


@pytest.mark.parametrize("freq, bs", [(6.21286e9, 3), (6.21286e9, 4), (4.14238e9, 2)])
def test_min_designer_rejects_pairs_it_cannot_design(monkeypatch, freq, bs):
    # the greedy designer stalls above its error target on these pairs, so
    # they must fail before any search
    monkeypatch.setattr(calib1q, "design_bitstream", None)
    with pytest.raises(ValueError, match=f"BS={bs} at {freq / 1e9:g} GHz"):
        design_min_bitstreams(TransmonSpec(nominal_freq=freq, levels=6), bs=bs)


@pytest.mark.parametrize("bs", [1, 5, 2.0])
def test_min_basis_targets_rejects_bs_outside_two_to_four(bs):
    with pytest.raises(ValueError, match="bs"):
        min_basis_targets(0.0, bs)


@pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
def test_min_basis_targets_rejects_a_non_finite_cycle_phase(phase):
    with pytest.raises(ValueError, match="cycle_phase"):
        min_basis_targets(phase, 2)


def _two_pulse_targets(haar_su2, cal, seed, n, fold_phase):
    """Seeded Haar targets whose best schedule needs exactly two stream pulses."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        v = haar_su2(rng)
        errs = opt_level_errors(cal, v, fold_phase, lmax=2)
        if errs[1] > BUDGET and errs[2] <= BUDGET:
            out.append(v)
    return out


def _oracle_error(cal, stream, dec, v, fold_phase=0.0):
    """Error of one pulse train holding every stream application, framed by z phases.

    Application i starts at SFQ cycle i*cycle + d_i; on the computational
    block the anchored train is preceded by ``phase_gate(-fold_phase)`` and
    followed by ``phase_gate(dec.residual_phase)``.
    """
    slots = [i * cal.controller_cycle_sfq + d + s
             for i, d in enumerate(dec.steps) for s in stream.pulse_slots]
    u = pulse_train_unitary(cal.spec, slots, dec.depth * cal.controller_cycle_sfq,
                            stream.tip_angle, stream.clock_period)
    lead, trailing = np.eye(6, dtype=complex), np.eye(6, dtype=complex)
    lead[:2, :2] = phase_gate(-fold_phase)
    trailing[:2, :2] = phase_gate(dec.residual_phase)
    return projected_fidelity(trailing @ u @ lead, v).error


@pytest.mark.parametrize("drift", [0.0, 4e6, -8e6])
def test_decompose_opt_two_pulses_against_pulse_train(ry_bitstream_hi, spec_hi, haar_su2,
                                                     drift):
    cal = calibrate_qubit(spec_hi.with_drift(drift), [ry_bitstream_hi])
    for fold in (0.0, 0.7, -2.1):
        for v in _two_pulse_targets(haar_su2, cal, seed=7, n=2, fold_phase=fold):
            decs = decompose_opt(cal, v, err_budget=BUDGET, fold_phase=fold)
            assert decs and not decs[0].flagged
            assert decs[0].err <= BUDGET
            for dec in decs:
                assert dec.depth == 2
                assert abs(recompose_error(cal, dec, v, fold) - dec.err) <= 1e-12
                assert abs(_oracle_error(cal, ry_bitstream_hi, dec, v, fold)
                           - dec.err) <= 1e-12


@pytest.mark.parametrize("drift", [0.0, 4e6])
def test_decompose_opt_zero_and_one_pulse_against_pulse_train(ry_bitstream_hi, spec_hi,
                                                              drift):
    # L = 0 is the fold and the trailing z alone (an empty train); L = 1 is
    # one stream application after d_1 idle cycles
    cal = calibrate_qubit(spec_hi.with_drift(drift), [ry_bitstream_hi])
    for v, depth in ((rz(0.3), 0), (ry(np.pi / 2), 1), (rz(0.4) @ ry(np.pi / 2) @ rz(1.1), 1)):
        for fold in (0.0, 0.7):
            decs = decompose_opt(cal, v, err_budget=BUDGET, fold_phase=fold)
            assert decs[0].depth == depth and not decs[0].flagged
            for dec in decs:
                assert abs(recompose_error(cal, dec, v, fold) - dec.err) <= 1e-12
                assert abs(_oracle_error(cal, ry_bitstream_hi, dec, v, fold)
                           - dec.err) <= 1e-12


@pytest.fixture(scope="module")
def three_pulse_gate(ry_bitstream_hi, spec_hi, haar_su2):
    """A seeded Haar target at +12 MHz drift that two stream pulses cannot reach."""
    cal = calibrate_qubit(spec_hi.with_drift(12e6), [ry_bitstream_hi])
    rng = np.random.default_rng(0)
    v = haar_su2(rng)
    while opt_level_errors(cal, v, lmax=2)[2] <= BUDGET:
        v = haar_su2(rng)
    return cal, v


def test_decompose_opt_three_pulses_against_pulse_train(three_pulse_gate, ry_bitstream_hi):
    cal, v = three_pulse_gate
    decs = decompose_opt(cal, v, err_budget=BUDGET, margin=MARGIN)
    assert decs and not decs[0].flagged
    assert decs[0].err <= BUDGET
    keys = [(round(dec.err, 14), sum(dec.steps), dec.steps) for dec in decs]
    assert keys == sorted(keys)
    for dec in decs:
        assert dec.depth == 3
        assert dec.err <= decs[0].err + MARGIN + 1e-15
        assert abs(recompose_error(cal, dec, v) - dec.err) <= 1e-12
        assert abs(_oracle_error(cal, ry_bitstream_hi, dec, v) - dec.err) <= 1e-12


def _counting(monkeypatch, name, size):
    """Record ``size(args)`` of every call of ``calib1q.<name>``, which keeps working."""
    counts, f = [], getattr(calib1q, name)

    def counted(*args):
        counts.append(size(args))
        return f(*args)

    monkeypatch.setattr(calib1q, name, counted)
    return counts


def test_decompose_opt_logs_one_debug_record_per_call(three_pulse_gate, monkeypatch, caplog):
    # the record gives the L reached, the tuples whose bound was computed, the
    # chunks and cells the scorer got (the L = 0 score is no chunk) and the
    # candidates kept; opt_level_errors logs nothing
    cal, v = three_pulse_gate
    cells = _counting(monkeypatch, "_score_free_trailing", lambda args: len(args[2]))
    bounded = _counting(monkeypatch, "_bounds", lambda args: len(args[0]))
    for budget, flagged in ((BUDGET, ""), (1e-12, " (flagged)")):
        with caplog.at_level(logging.DEBUG, logger="sfqctrl"):
            opt_level_errors(cal, v)
            cells.clear()
            bounded.clear()
            decs = decompose_opt(cal, v, err_budget=budget)
        (record,) = caplog.records
        assert record.name == "sfqctrl" and record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"decompose_opt: L 3 reached, err {decs[0].err:.3g}{flagged}; {sum(bounded)} "
            f"tuples bounded, {len(cells) - 1} chunks and {sum(cells) - 1} cells scored; "
            f"{len(decs)} candidates kept")
        assert len(cells) > 3 and (len(decs) == 1) == bool(flagged)
        caplog.clear()


def test_opt_three_pulse_search_bounds_under_a_quarter_of_its_table(three_pulse_gate,
                                                                   monkeypatch):
    # the first psi slice holds the whole one- and two-pulse tables; the
    # three-pulse search computes the bounds of a few slices around tau only
    cal, v = three_pulse_gate
    bounded = _counting(monkeypatch, "_bounds", lambda args: len(args[0]))
    for n_pulses, table_rows in ((1, 1), (2, 511), (3, 195_841)):
        bounded.clear()
        cal.opt_engine.search(v, 0.0, n_pulses, MARGIN)
        assert len(cal.opt_engine._table(n_pulses)[0]) == table_rows
        if n_pulses < 3:
            assert bounded == [table_rows]
    assert 0 < sum(bounded) < 195_841 // 4


def test_decompose_opt_flags_best_across_levels(three_pulse_gate):
    cal, v = three_pulse_gate
    decs = decompose_opt(cal, v, err_budget=1e-12)
    assert len(decs) == 1 and decs[0].flagged
    assert decs[0].err == min(opt_level_errors(cal, v).values())


def _synthetic_two_pulse_search(monkeypatch, spec, stream, bounds, errs, offsets, margin):
    """``_OptEngine.search`` over a made-up two-pulse table at n_max = 7.

    Tuple k has bound ``bounds[k]``, offset o_2 = ``offsets[k]`` and errors
    ``errs[k]`` at d_1 = 0 and 1, its only cells; the scorer returns them
    (trailing terms a = b = 1).  A ``_WINDOW`` of 8 rows makes chunks of
    8 // (n_max + 1) = 1, 2, 4, ... tuples.
    Returns (search result, the tuples each scorer call got).
    """
    eng = calibrate_qubit(spec, [stream], n_max=7).opt_engine
    n = len(bounds)
    blocks = np.zeros((n, 2, 2), dtype=complex)
    blocks[:, 0, 0] = np.arange(n)  # the tuple's id, read back by the scorer
    norm2 = 6.0 * (1.0 - np.array(bounds))  # |E| = 0: every psi 0, rho 0
    eng._tables[2] = (blocks, norm2, np.zeros((n, 4)), np.zeros(n), np.array([norm2.max(), 0.0]),
                      np.zeros(n, dtype=int), np.ones(n, dtype=int), np.array(offsets))
    scored = []

    def scorer(e_core, span, z, v):
        ids = e_core[:, 0, 0].real.astype(int)
        scored.append(ids.tolist())
        out = np.array(errs)[ids].ravel()  # cells d_1 = 0, 1 of each tuple in turn
        return out, np.ones(out.size, complex), np.ones(out.size, complex)

    monkeypatch.setattr(calib1q, "_score_free_trailing", scorer)
    monkeypatch.setattr(calib1q, "_WINDOW", 8)
    found = eng.search(H, 0.0, 2, margin)
    return [t[:2] for t in found], scored


@pytest.mark.parametrize("last_bound, last_scored", [(0.3 + 2e-12, False), (0.3, True)],
                         ids=["above-the-stop", "at-the-stop"])
def test_opt_search_drops_early_entries_and_stops_before_scoring(
        spec_hi, ry_bitstream_hi, monkeypatch, last_bound, last_scored):
    # chunks [t0], [t1, t2], [t3]: t0's errors lie within the margin of its
    # own lowest (0.50) but not of the final lowest (0.20), so the list drops
    # them; t3 is scored only if its bound is at most 0.20 + 0.1 + _TIE
    found, scored = _synthetic_two_pulse_search(
        monkeypatch, spec_hi, ry_bitstream_hi,
        bounds=[0.10, 0.15, 0.20, last_bound],
        errs=[[0.50, 0.58], [0.70, 0.20], [0.25, 0.31], [0.35, 0.40]],
        offsets=[0, 3, 5, 0], margin=0.1)
    assert found == [(0.20, (1, 4)), (0.25, (0, 5))]
    assert scored == [[0], [1, 2]] + [[3]] * last_scored


def test_opt_search_breaks_ties_by_delay_sum_in_any_order(spec_hi, ry_bitstream_hi,
                                                          monkeypatch):
    # 0.2 + 1e-16 rounds to the same 14 decimals as 0.2, and its delays
    # (1, 1) sum to less than (0, 5), so it ranks first whichever tuple is
    # visited first; at margin 0 the 14-decimal tie stays in the list
    errs, offsets = [[0.2, 0.5], [0.25, 0.2 + 1e-16], [0.4, 0.4]], [5, 0, 0]
    for bounds in ([0.10, 0.15, 0.35], [0.15, 0.10, 0.35]):
        for margin, want in ((0.1, [(0.2 + 1e-16, (1, 1)), (0.2, (0, 5)), (0.25, (0, 0))]),
                             (0.0, [(0.2 + 1e-16, (1, 1)), (0.2, (0, 5))])):
            found, _ = _synthetic_two_pulse_search(monkeypatch, spec_hi, ry_bitstream_hi,
                                                   bounds, errs, offsets, margin)
            assert found == want


@pytest.mark.parametrize("drift", DRIFTS)
def test_pruned_three_pulse_search_matches_brute_force(ry_bitstream_hi, spec_hi, haar_su2,
                                                      drift):
    # every pulse count L = 1..3 against the brute-force scan; n_max = 15
    # keeps it small (16^3 tuples per target at L = 3); run tests/opt_oracle.py
    # for more targets and for n_max = 255
    cal = calibrate_qubit(spec_hi.with_drift(drift), [ry_bitstream_hi], n_max=15)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        v = haar_su2(rng)
        for fold in FOLDS:
            assert mismatches(cal, v, fold) == []


@pytest.mark.parametrize("drift", [0.0, 12e6])
def test_pruned_one_and_two_pulse_search_matches_brute_force(ry_bitstream_hi, spec_hi,
                                                           haar_su2, drift):
    # at n_max = 15 all two-pulse tuples fit in the first chunk, so only the
    # default n_max exercises the stop; a 1e-2 margin keeps candidates from
    # several chunks, so a stop that comes too early loses some of them
    cal = calibrate_qubit(spec_hi.with_drift(drift), [ry_bitstream_hi])
    rng = np.random.default_rng(2024)
    for _ in range(10):
        v = haar_su2(rng)
        for fold in FOLDS:
            assert mismatches(cal, v, fold, margin=1e-2, levels=(1, 2)) == []


def _opt_results(decs):
    return [(d.steps, d.err.hex(), d.residual_phase.hex(), d.flagged) for d in decs]


def test_opt_engine_reuse_equals_fresh_calibrations(ry_bitstream_hi, spec_hi, haar_su2):
    # one engine keeps its tables across interleaved targets, folds and pulse
    # counts, with opt_level_errors in between; every result must equal, bit
    # for bit, that of a fresh calibration, whose tables are built anew
    spec = spec_hi.with_drift(6e6)
    cal = calibrate_qubit(spec, [ry_bitstream_hi])
    rng = np.random.default_rng(11)
    targets = [haar_su2(rng) for _ in range(3)]
    steps = [(3, 0, 0.0), (1, 1, 0.9), (2, 2, 0.0), (3, 1, 0.9), (1, 0, 0.0), (3, 2, 0.9),
             (2, 0, 0.9), (3, 0, 0.0)]
    for k, (n_pulses, t, fold) in enumerate(steps):
        v = targets[t]
        opt_level_errors(cal, targets[(t + 1) % 3], 0.9 - fold, lmax=k % 4)
        fresh = calibrate_qubit(spec, [ry_bitstream_hi])
        got, want = (c.opt_engine.search(v, fold, n_pulses, MARGIN) for c in (cal, fresh))
        assert ([(e.hex(), d, r.hex()) for e, d, r in got]
                == [(e.hex(), d, r.hex()) for e, d, r in want])
        for kwargs in ({"max_candidates": 10**6}, {"err_budget": 1e-12}):
            assert (_opt_results(decompose_opt(cal, v, fold_phase=fold, **kwargs))
                    == _opt_results(decompose_opt(fresh, v, fold_phase=fold, **kwargs)))
    tables = cal.opt_engine._tables
    assert sorted(tables) == [1, 2, 3]
    for table in tables.values():
        for x in table:
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0


@pytest.mark.parametrize("window", [1, 40])
def test_opt_search_across_windows_matches_brute_force(ry_bitstream_hi, spec_hi, haar_su2,
                                                       monkeypatch, window):
    # at n_max = 15 all 721 three-pulse tuples fit in the first psi slice of
    # 4096 rows; slices of 1 or 40 rows, with first chunks of max(1, window
    # // 16) = 1 or 2 tuples, make every search grow its slice many times
    monkeypatch.setattr(calib1q, "_WINDOW", window)
    cal = calibrate_qubit(spec_hi.with_drift(-6e6), [ry_bitstream_hi], n_max=15)
    rng = np.random.default_rng(5)
    for _ in range(4):
        v = haar_su2(rng)
        for fold in FOLDS:
            for margin in (1e-4, 1e-2):
                assert mismatches(cal, v, fold, margin=margin) == []


def _recording_bound_order(monkeypatch):
    """Record every index chunk ``_OptEngine._bound_order`` yields to the search."""
    yielded, bound_order = [], calib1q._OptEngine._bound_order

    def recording(eng, n_pulses, absv):
        for at, bound in bound_order(eng, n_pulses, absv):
            yielded.append(at)
            yield at, bound

    monkeypatch.setattr(calib1q._OptEngine, "_bound_order", recording)
    return yielded


def _offsets_with_a_cell(n, n_pulses):
    """Every (0, o_2, ..., o_L) of steps in [-n, n] whose delays fit [0, n] for some d_1."""
    offsets = {(0, *np.cumsum(s).tolist()) for s in product(range(-n, n + 1), repeat=n_pulses - 1)}
    return {o for o in offsets if max(o) - min(o) <= n}


@pytest.mark.parametrize("n_pulses", [1, 2, 3])
def test_opt_search_visits_each_tuple_once_in_bound_order(ry_bitstream_hi, spec_hi, haar_su2,
                                                          monkeypatch, n_pulses):
    # a margin above every error keeps the search going, across windows of
    # 5 tuples: every tuple with a cell (offsets spanning at most n) is
    # visited exactly once, in increasing order of its bound (recomputed
    # from plain products), each bound is at most its tuple's errors (up to
    # the float slack the stop allows), and the list holds every delay tuple
    # in [0, n]^L once, ranked; the chunks hold 1, 2, 4, ... tuples, the
    # last what is left, while the psi slice grows from 5 rows
    monkeypatch.setattr(calib1q, "_WINDOW", 5)
    yielded = _recording_bound_order(monkeypatch)
    n, tie = 15, calib1q._TIE
    cal = calibrate_qubit(spec_hi.with_drift(3e6), [ry_bitstream_hi], n_max=n)
    v = haar_su2(np.random.default_rng(3))
    found = cal.opt_engine.search(v, 0.9, n_pulses, margin=10.0)
    visited = np.concatenate(yielded)
    assert sorted(visited) == list(range(len(visited)))
    assert [len(at) for at in yielded] == {1: [1], 2: [1, 2, 4, 8, 16],
                                           3: [1, 2, 4, 8, 16, 32, 64, 128, 256, 210]}[n_pulses]
    offsets = cal.opt_engine._table(n_pulses)[7:]
    visited_offsets = [(0, *(int(o[k]) for o in offsets)) for k in visited]
    assert sorted(visited_offsets) == sorted(_offsets_with_a_cell(n, n_pulses))

    def bound(o):
        m = np.abs(calib1q._lowered_block(cal, [d - min(o) for d in o]))
        return 1 - (np.sum(m ** 2) + np.sum(m * np.abs(v)) ** 2) / 6

    bounds = np.array([bound(o) for o in visited_offsets])
    assert np.all(np.diff(bounds) >= -tie)
    assert sorted(d for _, d, _ in found) == list(product(range(n + 1), repeat=n_pulses))
    bound_of = dict(zip(visited_offsets, bounds))
    assert all(err >= bound_of[tuple(np.array(d) - d[0])] - tie for err, d, _ in found)
    keys = [calib1q._rank(t) for t in found]
    assert keys == sorted(keys)


def test_opt_search_scores_no_chunk_above_the_stop(three_pulse_gate, monkeypatch):
    # the search reads a chunk's first bound before scoring it: every scored
    # chunk starts at most _TIE above the lowest error so far + margin, and
    # the one chunk yielded after the last scored one starts above it; at
    # n_max = 255 chunk k holds 16 * 2^k tuples, a last one at the table's end fewer
    cal, v = three_pulse_gate
    yielded, scored = _recording_bound_order(monkeypatch), []
    score = calib1q._score_free_trailing

    def counted(e_core, span, z, v):
        scored.append(score(e_core, span, z, v))
        return scored[-1]

    monkeypatch.setattr(calib1q, "_score_free_trailing", counted)
    found = cal.opt_engine.search(v, 0.0, 3, MARGIN)
    norm2, mags = cal.opt_engine._table(3)[1:3]
    bound = 1.0 - (norm2 + (mags @ np.abs(v).ravel()) ** 2) / 6.0
    assert len(scored) == len(yielded) - 1 > 1
    sizes = [at.size for at in yielded]
    assert sizes[:-1] == [16 * 2 ** k for k in range(len(sizes) - 1)]
    assert sizes[-1] == 16 * 2 ** (len(sizes) - 1) or sum(sizes) == norm2.size
    lows = np.minimum.accumulate([errs.min() for errs, _, _ in scored])
    for k, at in enumerate(yielded[1:-1], start=1):
        assert bound[at[0]] <= lows[k - 1] + MARGIN + calib1q._TIE
    assert bound[yielded[-1][0]] > lows[-1] + MARGIN + calib1q._TIE
    assert round(found[0][0], 14) == round(lows[-1], 14)


def test_opt_table_integers_fit_the_smallest_type(ry_bitstream_hi, spec_hi):
    # first, last and o_2..o_L are built over all 511^2 offset pairs, which
    # span +-2 n_max, before the pairs without a cell are cut: int16 at
    # n_max = 255, where the three-pulse table holds 195,841 tuples in 23.5
    # MB (the float psi column and the two peaks included), and at n_max =
    # 64, where +128 does not fit int8; rows are in psi order, so the offset
    # pairs compare as a set
    table = calibrate_qubit(spec_hi, [ry_bitstream_hi]).opt_engine._table(3)
    assert [x.dtype for x in table[5:]] == [np.int16] * 4
    peaks = table[4]
    assert peaks.shape == (2,) and peaks.dtype == np.float64
    rows = table[:4] + table[5:]
    assert [x.nbytes // 195_841 for x in rows] == [64, 8, 32, 8, 2, 2, 2, 2]
    assert sum(x.nbytes for x in table) == 21_934_192 + 195_841 * 8 + 16
    eng = calibrate_qubit(spec_hi, [ry_bitstream_hi], n_max=64).opt_engine
    _, _, _, _, _, first, last, o_2, o_3 = eng._table(3)
    d = np.arange(-64, 65)
    pairs = [(a, a + b) for a in d for b in d if max(0, a, a + b) - min(0, a, a + b) <= 64]
    assert sorted(zip(o_2.tolist(), o_3.tolist())) == sorted(pairs)
    assert (first.min(), first.max(), last.min(), last.max()) == (0, 64, 0, 64)
    assert o_2.dtype == np.int16


@pytest.mark.parametrize("drift", [0.0, 12e6])
def test_opt_window_floor_lies_below_every_row_outside(ry_bitstream_hi, spec_hi, haar_su2,
                                                       drift):
    # the three-pulse table at n_max = 255 is sorted by psi = atan2(beta,
    # alpha), its peaks are the column maxima; for slices of 16 to 32,768
    # rows, the floor is F(delta) with delta the least |psi - tau| of the
    # rows outside, found by brute force, and every bound outside is at least
    # the floor - _TIE.  I and S put tau at the low end of psi, X at the high
    # end, H in the densest part; the last target's unitarity defect of about
    # 1e-9 makes |v00| != |v11|, so P, Q and R^2 != 1 take their maxima
    _, norm2, mags, psi, peaks = calibrate_qubit(
        spec_hi.with_drift(drift), [ry_bitstream_hi]).opt_engine._table(3)[:5]
    alpha, beta = mags[:, 0] + mags[:, 3], mags[:, 1] + mags[:, 2]
    assert np.array_equal(psi, np.arctan2(beta, alpha)) and (np.diff(psi) >= 0).all()
    assert peaks.tolist() == [norm2.max(), (alpha ** 2 + beta ** 2).max()]
    rng = np.random.default_rng(29)
    haar = [haar_su2(rng) for _ in range(6)]
    skewed = haar[0] @ np.diag([1 + 5e-10, 1])
    assert 5e-10 < unitarity_defect(skewed) < 2e-9 and abs(skewed[0, 0]) != abs(skewed[1, 1])
    for v in haar + [np.eye(2), X, H, S, skewed]:
        absv = np.abs(v)
        p, q = max(absv[0, 0], absv[1, 1]), max(absv[0, 1], absv[1, 0])
        tau, r2 = np.arctan2(q, p), p * p + q * q
        bound = 1.0 - (norm2 + np.sum(mags * absv.ravel(), axis=1) ** 2) / 6.0
        for rows in 2 ** np.arange(4, 16):
            lo, hi, floor = calib1q._window(psi, peaks, absv.ravel(), int(rows))
            assert hi - lo == rows and lo <= np.searchsorted(psi, tau) <= hi
            outside = np.r_[0:lo, hi:psi.size]
            delta = np.abs(psi[outside] - tau).min()
            want = 1.0 - (peaks[0] + peaks[1] * r2 * np.cos(delta) ** 2) / 6.0
            assert abs(floor - want) <= 1e-15
            assert bound[outside].min() >= floor - calib1q._TIE
        assert calib1q._window(psi, peaks, absv.ravel(), psi.size)[2] == np.inf


@pytest.mark.parametrize("n_pulses", [2, 3])
def test_opt_search_scores_exactly_the_cells_of_each_tuple(ry_bitstream_hi, spec_hi, haar_su2,
                                                         monkeypatch, n_pulses):
    # at n_max = 15 the table holds each offset tuple with a cell once and no
    # other, with its d_1 range [first, last] and |E| from plain products; a
    # margin above every error then hands the scorer, chunk by chunk of 1, 2,
    # 4, ... tuples, exactly the cells d_1 = first..last of each yielded
    # tuple in turn, each d_1 told by its lead phase, and the cells of all
    # chunks are the delay tuples of [0, n]^L, each once
    monkeypatch.setattr(calib1q, "_WINDOW", 5)
    yielded, handed, score = _recording_bound_order(monkeypatch), [], calib1q._score_free_trailing

    def recording(e_core, span, z, v):
        handed.append((np.array(span), np.array(z)))
        return score(e_core, span, z, v)

    monkeypatch.setattr(calib1q, "_score_free_trailing", recording)
    n, fold = 15, 0.9
    cal = calibrate_qubit(spec_hi.with_drift(-6e6), [ry_bitstream_hi], n_max=n)
    eng = cal.opt_engine
    _, _, mags, _, _, first, last, *offsets = eng._table(n_pulses)
    tuples = [(0, *(int(o[k]) for o in offsets)) for k in range(first.size)]
    assert len(set(tuples)) == len(tuples) and set(tuples) == _offsets_with_a_cell(n, n_pulses)
    assert first.tolist() == [-min(o) for o in tuples]
    assert last.tolist() == [n - max(o) for o in tuples]
    for k, o in enumerate(tuples):
        block = calib1q._lowered_block(cal, [d - min(o) for d in o])
        assert np.allclose(mags[k], np.abs(block).ravel(), rtol=0, atol=1e-12)
    eng.search(haar_su2(np.random.default_rng(4)), fold, n_pulses, margin=10.0)
    d1_of = {z: d for d, z in enumerate(np.exp(-1j * (fold + eng.phi_d)).tolist())}
    assert len(d1_of) == n + 1 and len(handed) == len(yielded)
    cells = []
    for at, (span, z) in zip(yielded, handed):
        assert span.tolist() == (last[at] - first[at] + 1).tolist()
        assert [d1_of[x] for x in z.tolist()] == [d for k in at
                                                  for d in range(first[k], last[k] + 1)]
        cells += [tuple(d1_of[x] + o for o in tuples[k])
                  for k, x in zip(np.repeat(at, span).tolist(), z.tolist())]
    assert sorted(cells) == list(product(range(n + 1), repeat=n_pulses))


@pytest.mark.parametrize("other", [
    Bitstream(bits=(1, 0, 0, 0)),
    Bitstream(bits=(1, 0, 0), clock_period=50e-12),
], ids=["length", "clock_period"])
def test_calibrate_rejects_mismatched_streams(spec_hi, other):
    with pytest.raises(CalibrationError, match="differ in length or clock period"):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0)), other])


@pytest.mark.parametrize("n_streams", [2, 3])
def test_calibrate_opt_takes_exactly_one_stream_before_simulating(spec_hi, monkeypatch,
                                                                  n_streams):
    # the opt engine reads only the first stream, so more must fail, not be dropped
    monkeypatch.setattr(Bitstream, "simulate", None)
    with pytest.raises(CalibrationError, match=f"exactly one stream, got {n_streams}"):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0))] * n_streams)


@pytest.mark.parametrize("n_streams", [1, 5])
def test_calibrate_min_takes_two_to_four_streams_before_simulating(spec_hi, monkeypatch,
                                                                   n_streams):
    # the min search's half caps are sized for 2..4 symbols; one stream (idle
    # only) has no x/y rotation
    monkeypatch.setattr(Bitstream, "simulate", None)
    streams = [Bitstream(bits=(1, 0, 0))] * (n_streams - 1) + [Bitstream(bits=(0, 0, 0))]
    with pytest.raises(CalibrationError, match=f"2 to 4 streams, got {n_streams}"):
        calibrate_qubit(spec_hi, streams, arch="min")


def test_calibrate_rejects_unknown_arch_before_simulating(spec_hi, monkeypatch):
    monkeypatch.setattr(Bitstream, "simulate", None)
    with pytest.raises(ValueError, match="'mid'"):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0))], arch="mid")


def test_calibrate_min_requires_an_all_zeros_stream_before_simulating(spec_hi, monkeypatch):
    # the min engine takes every stream's step alike, so the idle step D must
    # come from a stored all-zeros stream; opt has no such need
    streams = [Bitstream(bits=(1, 0, 0))]
    with monkeypatch.context() as m:
        m.setattr(Bitstream, "simulate", None)
        with pytest.raises(CalibrationError, match="all-zeros"):
            calibrate_qubit(spec_hi, streams, arch="min")
    assert calibrate_qubit(spec_hi, streams, arch="opt").arch == "opt"


@pytest.mark.parametrize("freq, n_cycles", [(6.21286e9, 253), (4.14238e9, 225)])
@pytest.mark.parametrize("drift", [-12e6, 0.0, 12e6])
def test_all_zeros_stream_simulates_to_the_identity_bit_for_bit(freq, n_cycles, drift):
    # the min engine's idle step D @ B equals D only because B is the
    # identity byte for byte, signed zeros included
    spec = TransmonSpec(nominal_freq=freq, levels=6).with_drift(drift)
    u = Bitstream(bits=(0,) * n_cycles).simulate(spec)
    assert u.tobytes() == np.eye(spec.levels, dtype=complex).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_calibrate_rejects_a_non_finite_evolution(spec_hi, monkeypatch, value):
    # a NaN unitarity defect fails every comparison, so a NaN evolution must be
    # caught as one, not passed as a defect that is not above the bound
    monkeypatch.setattr(Bitstream, "simulate",
                        lambda self, spec: np.full((spec.levels,) * 2, value, dtype=complex))
    with pytest.raises(CalibrationError, match="lost unitarity"):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0))])


# --- min ---------------------------------------------------------------------------

def _brute_force_word(cal, streams, v, max_depth):
    """Lowest-error word of depth <= max_depth over plain six-level step products.

    Each step is D @ stream.simulate(spec), D = exp(-i*H0*T_cycle), so the
    idle stream's step is D.  Words are visited shortest first, and within
    a depth with cycle 0 varying fastest; only a strictly lower error wins.
    """
    spec = cal.spec
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    d = np.diag(np.exp(-1j * energies * cal.controller_cycle_sfq * cal.clock_period))
    steps = [d @ s.simulate(spec) for s in streams]
    best = (np.inf, None)
    for depth in range(max_depth + 1):
        for rev in product(range(len(steps)), repeat=depth):
            m = np.eye(spec.levels, dtype=complex)
            for k in rev[::-1]:
                m = steps[k] @ m
            err = projected_fidelity(m, v).error
            if err < best[0]:
                best = (err, rev[::-1])
    return best[1]


def _word_train(cal, streams, word):
    """Anchored unitary of one pulse train holding the whole word.

    Step j's stream starts at SFQ cycle j * cycle.
    """
    cycle = cal.controller_cycle_sfq
    (tip,) = {s.tip_angle for s in streams if s.n_pulses}
    slots = [j * cycle + s for j, k in enumerate(word) for s in streams[k].pulse_slots]
    return pulse_train_unitary(cal.spec, slots, len(word) * cycle, tip, cal.clock_period)


def _lab_word_error(cal, streams, word, v):
    """Error of ``_word_train``, returned to the lab frame by exp(-i*H0*T_word)."""
    spec, cycle = cal.spec, cal.controller_cycle_sfq
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    lab = (np.exp(-1j * energies * len(word) * cycle * cal.clock_period)[:, None]
           * _word_train(cal, streams, word))
    return projected_fidelity(lab, v).error


@pytest.mark.parametrize("drift", [0.0, 6e6])
def test_decompose_min_against_brute_force_and_pulse_train(golden, spec_hi, haar_su2,
                                                           drift):
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = calibrate_qubit(spec_hi.with_drift(drift), streams, arch="min")
    rng = np.random.default_rng(5)
    for v in (H, T, haar_su2(rng), haar_su2(rng)):
        dec = decompose_min(cal, v, err_budget=1e-12, max_depth=8)
        assert dec.steps == _brute_force_word(cal, streams, v, max_depth=8)
        assert abs(_lab_word_error(cal, streams, dec.steps, v) - dec.err) <= 1e-12
        assert decompose_min(cal, v, err_budget=1e-12, max_depth=8) is dec


def test_decompositions_reject_the_other_architecture(golden, spec_hi):
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    with pytest.raises(CalibrationError, match="decompose_opt needs arch 'opt'"):
        decompose_opt(calibrate_qubit(spec_hi, streams, arch="min"), H)
    with pytest.raises(CalibrationError, match="decompose_min needs arch 'min'"):
        decompose_min(calibrate_qubit(spec_hi, streams[:1], arch="opt"), H)


def _four_streams(golden):
    """A four-symbol min alphabet: the Ry stream at tip angles 1, -1 and 1/2, and idle."""
    ry, idle = golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]
    return [ry, Bitstream(ry.bits, tip_angle=-ry.tip_angle),
            Bitstream(ry.bits, tip_angle=0.5 * ry.tip_angle), idle]


@pytest.fixture
def group_cals(golden, spec_hi):
    """Fresh opt, min and four-stream min calibrations at zero drift."""
    ry, idle = golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]
    return {"opt": calibrate_qubit(spec_hi, [golden["ry_6212MHz"]]),
            "min": calibrate_qubit(spec_hi, [ry, idle], arch="min"),
            "min4": calibrate_qubit(spec_hi, _four_streams(golden), arch="min")}


def test_decompose_min_four_streams_against_brute_force(golden, group_cals, haar_su2):
    # depth 6 is the four-symbol alphabet's exhaustive cap
    cal = group_cals["min4"]
    rng = np.random.default_rng(5)
    for v in (H, T, haar_su2(rng), haar_su2(rng)):
        dec = decompose_min(cal, v, err_budget=1e-12, max_depth=6)
        assert dec.steps == _brute_force_word(cal, _four_streams(golden), v, max_depth=6)


@pytest.mark.parametrize("arch, deepest", [("min", 28), ("min4", 14)])
def test_decompose_min_default_depth_is_the_deepest_word(group_cals, arch, deepest):
    # the default is twice the alphabet's half-table cap, resolved before the
    # result cache is keyed: the explicit call is a hit on the default's result
    cal = group_cals[arch]
    dec = decompose_min(cal, H)
    assert decompose_min(cal, H, max_depth=deepest) is dec
    assert len(cal.min_engine._results) == 1


def test_decompose_min_caches_each_fold_apart(group_cals):
    # two folds that agree to 9 decimals are different gates: each call
    # must get its own word and an err that its own fold reproduces
    cal = group_cals["min"]
    first = decompose_min(cal, H, max_depth=8, fold_phase=0.3)
    fold = 0.3 + 4.9e-10
    dec = decompose_min(cal, H, max_depth=8, fold_phase=fold)
    assert dec is not first
    assert abs(recompose_error(cal, dec, H, fold) - dec.err) <= 1e-12
    assert decompose_min(cal, H, max_depth=8, fold_phase=fold) is dec


@pytest.fixture(scope="module")
def mitm_cals(golden, spec_hi):
    """BS=2 min calibrations at 0, +6 and +12 MHz and the four-symbol one at 0 MHz.

    Module-scoped, so the tests below share their half tables.
    """
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cals = {drift: calibrate_qubit(spec_hi.with_drift(drift), streams, arch="min")
            for drift in (0.0, 6e6, 12e6)}
    cals["min4"] = calibrate_qubit(spec_hi, _four_streams(golden), arch="min")
    return cals


def _mitm_matches_loop(cal, v, depths):
    """One walk equals the per-first-half loop in (err, word, radius) at each of ``depths``.

    Both shrink their radius with their own running best, so every depth
    is compared strictly; the walk's running best must also equal, after
    every depth, that of a walk whose radius never shrinks.  Returns the
    loop's (err, word), depth by depth.
    """
    eng = cal.min_engine
    walk = list(eng._depths(v, BUDGET, depths[-1]))  # walks from depth 0
    want = loop_walk(eng, v, depths)
    for depth, w in zip(depths, want, strict=True):
        assert walk[depth][:3] == w, depth
    assert running_bests(walk) == running_bests(fixed_radius_walk(eng, v, depths[-1]))
    return [w[:2] for w in want]


def _above_leakage_floor(cal, v, max_depth):
    """decompose_min's word at the default budget: err reproduced and above its leakage."""
    dec = decompose_min(cal, v, max_depth=max_depth)
    assert dec.err >= leakage(calib1q._lowered_block(cal, dec.steps)) - 1e-15
    assert abs(recompose_error(cal, dec, v) - dec.err) <= 1e-12


def test_mitm_depth_matches_loop_oracle_dense(mitm_cals, monkeypatch):
    # H at zero drift is dense (47,111 pairs at depth 24); depths 25..28
    # (up to 712,069 pairs) are left to tests/min_oracle.py, since the loop
    # alone takes about 2.4 s there.  A 4096-pair slice splits depths 19..24
    # into up to 12 slices, so a slice's best must be found at its offset and
    # kept only when strictly lower.
    cal = mitm_cals[0.0]
    _mitm_matches_loop(cal, H, range(13, 25))
    monkeypatch.setattr(calib1q, "_RESCORE_SLICE", 4096)
    _mitm_matches_loop(cal, H, range(19, 25))
    _above_leakage_floor(cal, H, max_depth=24)


@pytest.mark.parametrize("drift, draws", [(6e6, (0, 1)), (12e6, (2,))])
def test_mitm_depth_matches_loop_oracle_drifted(mitm_cals, haar_su2, drift, draws):
    # the +12 MHz qubit's idle step is nearly the identity: no first half
    # of its Haar target (the third seeded draw) has a second half within
    # the radius at any depth
    cal = mitm_cals[drift]
    rng = np.random.default_rng(5)
    targets = [haar_su2(rng) for _ in range(3)]
    for v in (targets[i] for i in draws):
        found = _mitm_matches_loop(cal, v, range(13, 29))
        if drift == 12e6:
            assert set(found) == {(np.inf, ())}
        else:
            assert found[-1][0] < np.inf
        _above_leakage_floor(cal, v, max_depth=28)


def test_mitm_depth_matches_loop_oracle_four_streams(mitm_cals):
    # depths 7..14 are every meet-in-the-middle depth of the four-symbol alphabet
    _mitm_matches_loop(mitm_cals["min4"], H, range(7, 15))


def test_mitm_depth_breaks_ties_like_the_loop(golden, spec_hi, monkeypatch):
    # two copies of the Ry stream make every word with a Ry step tie, bit for
    # bit, with the words that swap the copies: the lowest (first, second)
    # key must win, across the boundaries of 64-pair slices too
    ry, idle = golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]
    cal = calibrate_qubit(spec_hi, [ry, ry, idle], arch="min")
    monkeypatch.setattr(calib1q, "_RESCORE_SLICE", 64)
    for v in (H, T):
        _mitm_matches_loop(cal, v, range(7, 13))


def _recording_pair_keys(monkeypatch):
    """Record (a, radius) of every ``_pair_keys`` call and (depth, pairs) of every
    ``_best_pair``."""
    queried, scored = [], []
    pair_keys, best_pair = calib1q._MinEngine._pair_keys, calib1q._MinEngine._best_pair

    def counted_pair_keys(eng, vq, a, radius):
        queried.append((a, radius))
        return pair_keys(eng, vq, a, radius)

    def counted_best_pair(eng, v, keys, a, b):
        scored.append((a + b, keys.size))
        return best_pair(eng, v, keys, a, b)

    monkeypatch.setattr(calib1q._MinEngine, "_pair_keys", counted_pair_keys)
    monkeypatch.setattr(calib1q._MinEngine, "_best_pair", counted_best_pair)
    return queried, scored


@pytest.mark.parametrize("v, budget, depth", [(X, 1e-3, 20), (S, 3e-4, 26)], ids=["X", "S"])
def test_min_walk_queries_once_per_first_half(golden, spec_hi, monkeypatch, v, budget, depth):
    # depths 2a and 2a+1 share one ball query, and a search that meets the
    # budget at depth 2a never rescores depth 2a+1
    queried, scored = _recording_pair_keys(monkeypatch)
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = calibrate_qubit(spec_hi.with_drift(-6e6), streams, arch="min")
    dec = decompose_min(cal, v, err_budget=budget)
    assert not dec.flagged and dec.depth == depth
    assert [a for a, _ in queried] == list(range(6, depth // 2 + 1))
    assert [d for d, _ in scored] == list(range(13, depth + 1))


class _FirstRounds:
    """A KD-tree that records the rows of every first k-nearest query (k = ``_KNN``)."""

    def __init__(self, tree):
        self.tree, self.rows = tree, []

    def query(self, x, k, **kwargs):
        if k == calib1q._KNN:
            self.rows.append(x)
        return self.tree.query(x, k, **kwargs)


@pytest.mark.parametrize("knn", [None, 2])
def test_pair_keys_equal_the_ball_query(mitm_cals, haar_su2, monkeypatch, knn):
    # the growing k-nearest queries of the canonical and band rows must find every
    # point of each closed ball over q and -q, twins included: H at zero drift is
    # dense (up to 243 points per row), the +12 MHz Haar target (the third seeded
    # draw) finds none, and k = 2 takes several growth rounds: the engine's own
    # first-round rows for H hold exactly 2, 8 and 32 points somewhere
    if knn is not None:
        monkeypatch.setattr(calib1q, "_KNN", knn)
    rng = np.random.default_rng(5)
    haar = [haar_su2(rng) for _ in range(3)]
    cases = [(0.0, H, range(6, 15)), (6e6, haar[0], range(6, 15)),
             (12e6, haar[2], range(6, 15)), ("min4", H, range(3, 8))]
    for cal, v, a_range in cases:
        eng, vq = mitm_cals[cal].min_engine, target_quaternion(v)
        assert pair_key_mismatches(eng, vq, a_range) == [], cal
    eng = mitm_cals[12e6].min_engine
    assert not any(k.size for a in range(6, 15)
                   for k, _ in eng._pair_keys(target_quaternion(haar[2]), a, RADIUS))
    if knn is None:
        return
    eng, vq = mitm_cals[0.0].min_engine, target_quaternion(H)
    sizes = set()
    for a in range(6, 15):
        tree, order, conj = eng._tree(a)
        recorder = _FirstRounds(tree)
        monkeypatch.setitem(eng._trees, a, (recorder, order, conj))
        eng._pair_keys(vq, a, RADIUS)
        (rows,) = recorder.rows
        assert len(rows) > len(order)  # some band rows
        sizes.update(tree.query_ball_point(rows, r=RADIUS, return_length=True).tolist())
    assert {2, 8, 32} <= sizes and max(sizes) == 243


@pytest.mark.parametrize("cal, a", [(0.0, 6), (0.0, 13), (0.0, 14), ("min4", 3), ("min4", 7)])
def test_min_tree_holds_one_canonical_point_per_word(mitm_cals, cal, a):
    # one point per word of lengths a and a + 1 (only a at the half cap), each
    # q or -q of its word with w >= 0, and the words of length a listed in the
    # tree's leaf order, each once, with their points' conjugates
    eng = mitm_cals[cal].min_engine
    tree, order, conj = eng._tree(a)
    n_even = eng.n_sym ** a
    assert tree.n == (n_even if a == eng.half_cap else n_even + n_even * eng.n_sym)
    q = np.concatenate([eng._word_table(n).q for n in range(a, min(a + 1, eng.half_cap) + 1)])
    assert ((tree.data == q).all(axis=1) | (tree.data == -q).all(axis=1)).all()
    assert (tree.data[:, 0] >= 0.0).all()
    assert np.array_equal(np.sort(order), np.arange(n_even))
    assert np.array_equal(order, tree.indices[tree.indices < n_even])
    assert np.array_equal(conj, tree.data[order] * np.array([1.0, -1.0, -1.0, -1.0]))


def test_pair_keys_find_a_first_half_through_its_band_row_alone(mitm_cals):
    # a target whose wanted match x for the first half W1 (a = 7, word 37) lies
    # just across the w = 0 equator from the point c of a second half W2 of 8
    # cycles: x_w = 0.005 puts x in the band, its own row finds no point, its
    # band row -x finds c, and the pair (W1, W2) is proposed, the keys equal
    # to the ball query's over q and -q
    eng, a, first = mitm_cals[0.0].min_engine, 7, 37
    tree, _, _ = eng._tree(a)
    n_even, conj = 2 ** a, np.array([1.0, -1.0, -1.0, -1.0])
    q1 = eng._word_table(a).q[first]
    for second in np.argsort(tree.data[n_even:, 0]):
        x = np.concatenate([[0.005], -tree.data[n_even + second, 1:]])
        x /= np.linalg.norm(x)
        if not tree.query_ball_point(x, r=RADIUS):
            break
    w, x1, y, z = calib1q._quat_mul(x, q1)
    vq = target_quaternion(np.array([[w - 1j * z, -y - 1j * x1], [y - 1j * x1, w + 1j * z]]))
    got = calib1q._quat_mul(vq, q1 * conj)
    got *= np.sign(got[0])
    assert 0.0 < got[0] <= RADIUS
    assert tree.query_ball_point(got, r=RADIUS) == []
    assert n_even + second in tree.query_ball_point(-got, r=RADIUS)
    assert first * 2 ** (a + 1) + second in eng._pair_keys(vq, a, RADIUS)[1][0]
    assert pair_key_mismatches(eng, vq, [a]) == []


def test_su2_quaternions_of_singular_blocks_are_finite():
    # a word that leaks all of a level has a singular block and still needs a tree point
    blocks = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]), [[0.6, 0.8j], [0.3, 0.4j]]])
    assert np.isfinite(calib1q._su2_quaternions(blocks)).all()


def test_min_search_keeps_words_with_singular_blocks(golden, spec_hi):
    # an idle step that also swaps levels 1 and 2 leaves the all-idle words of odd
    # length with a rank-one {0, 1} block; they stay first halves and tree points,
    # so the pair keys equal the ball query over every word, and a target at
    # q(W2) q(W1), W1 the 7-cycle all-idle word, meets W1 in a ball at a = 7,
    # whose depth-15 pairs the search rescores before it stops at depth 16
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = calibrate_qubit(spec_hi, streams, arch="min")
    cal.basis_ops[1] = cal.basis_ops[1] @ np.eye(spec_hi.levels)[[0, 2, 1, 3, 4, 5]]
    eng = cal.min_engine
    assert abs(np.linalg.det(calib1q._lowered_block(cal, (1,) * 7))) <= 1e-6
    w, x, y, z = calib1q._quat_mul(eng._word_table(8).q[37], eng._word_table(7).q[-1])
    v = np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])
    vq = target_quaternion(v)
    assert pair_key_mismatches(eng, vq, range(6, 11)) == []
    assert 2 ** 7 - 1 in eng._pair_keys(vq, 7, RADIUS)[1][0] // 2 ** 8
    dec = decompose_min(cal, v)
    assert not dec.flagged and dec.depth == 16
    assert abs(recompose_error(cal, dec, v) - dec.err) <= 1e-12


def _nudged_polar(cal, rng, length):
    """The unitary polar part of a random ``length``-cycle word in the min search's frame
    (phase_gate(-residual_phase) @ A), turned by 0.01 rad about a random axis in the xy
    plane."""
    eng = cal.min_engine
    word = tuple(rng.integers(eng.n_sym, size=length).tolist())
    block = phase_gate(-length * eng.phi) @ calib1q._lowered_block(cal, word)
    u, _, vh = np.linalg.svd(block)
    phi = rng.uniform(0, 2 * np.pi)
    return rz(phi) @ ry(0.01) @ rz(-phi) @ u @ vh


@pytest.mark.parametrize("drift, seed, length", [(0.0, 0, 14), (6e6, 0, 17), (6e6, 1, 17)])
def test_min_search_meets_the_budget_wherever_the_exhaustive_pass_does(
        mitm_cals, drift, seed, length):
    # beyond depth 12 the search only rescores pairs within its quaternion radius;
    # at 1e-3 (radius 0.136 before any best) every depth 13..18 whose best of all
    # pairs meets the budget must find, by then, a searched word that meets it too
    budget = 1e-3
    assert calib1q._ball_radius(budget, np.inf) == pytest.approx(0.1356, abs=1e-4)
    eng = mitm_cals[drift].min_engine
    v = _nudged_polar(mitm_cals[drift], np.random.default_rng(seed), length)
    bests = running_bests(eng._depths(v, budget, 18))
    reached = [depth for depth in range(13, 19) if exhaustive_depth(eng, v, depth)[0] <= budget]
    assert reached
    for depth in reached:
        assert bests[depth][0] <= budget, depth


@pytest.mark.parametrize("drift", [-12e6, 0.0, 6e6])
def test_min_pair_errors_meet_the_ball_bound(golden, spec_hi, mitm_cals, haar_su2, drift):
    # _ball_radius drops a pair only where err >= 0.9 * (2/3) sin^2(phi), phi the
    # search's angle between +-q(W2) q(W1) and the target's quaternion, with
    # sin^2(phi) <= 3/4: every pair of depth 15 (a = 7, b = 8, 2^15 pairs) on
    # seeded Haar targets must meet it, and the tightest pairs must lie in the
    # ball that their own error gives (a 1.0 budget keeps r0 above every chord)
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = mitm_cals.get(drift) or calibrate_qubit(spec_hi.with_drift(drift), streams, arch="min")
    first, second = cal.min_engine._word_table(7), cal.min_engine._word_table(8)
    cols = first.products[:, :, :2]
    rows = second.products[:, :2]
    blocks = np.einsum("sij,fjk->sfik", rows, cols).reshape(-1, 2, 2)
    q = calib1q._quat_mul(second.q[:, None], first.q[None]).reshape(-1, 4)
    rng = np.random.default_rng(31)
    for v in (haar_su2(rng) for _ in range(3)):
        errs = calib1q._fixed_errors(blocks, v)
        cos = np.abs(q @ target_quaternion(v))
        sin2 = 1.0 - cos ** 2
        near = np.flatnonzero(sin2 <= 0.75)
        ratio = errs[near] / (2.0 / 3.0 * sin2[near])
        assert ratio.min() >= calib1q._SLACK
        chord = np.sqrt(2.0 - 2.0 * np.minimum(cos, 1.0))  # to the nearer of +-q
        for k in near[np.argsort(ratio)[:50]]:
            assert chord[k] <= calib1q._ball_radius(1.0, errs[k])


def _min_result(dec):
    return dec.steps, dec.err.hex(), dec.residual_phase.hex(), dec.flagged


def test_min_ball_shrinks_with_the_running_best(golden, spec_hi, haar_su2, monkeypatch):
    # a flagged Haar target at zero drift walks every depth to 28: its radius never
    # grows, falls below the unshrunk 0.05 at the deep first-half lengths, and the
    # result equals, bit for bit, that of a walk whose radius stays 0.05
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    v = haar_su2(np.random.default_rng(5))
    queried, _ = _recording_pair_keys(monkeypatch)
    dec = decompose_min(calibrate_qubit(spec_hi, streams, arch="min"), v)
    assert dec.flagged and [a for a, _ in queried] == list(range(6, 15))
    radii = [r for _, r in queried]
    assert radii[0] == RADIUS
    assert all(later <= earlier for earlier, later in zip(radii, radii[1:]))
    assert max(radii[-2:]) < RADIUS  # first halves of 13 and 14 cycles
    monkeypatch.setattr(calib1q, "_ball_radius", lambda budget, best: RADIUS)
    fixed = decompose_min(calibrate_qubit(spec_hi, streams, arch="min"), v)
    assert _min_result(fixed) == _min_result(dec)


@pytest.mark.parametrize("drift, v, radius, pairs", [(0.0, X, 0.02115, 600), (6e6, H, 0.0334, 4)],
                         ids=["X", "H"])
def test_min_depth_takes_the_radius_of_every_shallower_error(mitm_cals, drift, v, radius, pairs):
    # depth 19 shares depth 18's query (a = 9) but takes its own, smaller radius
    # from the best of depths 0..18: X at 0 MHz rescores 600 pairs at 0.02115
    # (695 at depth 18's 0.02226), H at +6 MHz 4 at 0.0334 (17 at 0.05); H's
    # depth-19 best moves from 1.4617e-3 to 1.7498e-3, and the 6.69e-4 of
    # depth 18 stays the running best
    eng = mitm_cals[drift].min_engine
    walk = list(eng._depths(v, BUDGET, 19))
    err, word, r, n = walk[19]
    assert r == calib1q._ball_radius(BUDGET, min(e for e, *_ in walk[:19]))
    assert r == pytest.approx(radius, abs=5e-6) and r < walk[18][2]
    assert n == pairs
    assert (err, word, r) == loop_walk(eng, v, [19])[0]
    if v is H:
        assert err == pytest.approx(1.7498e-3, abs=1e-7)
        bests = running_bests(walk)
        assert bests[19] == bests[18] == walk[18][:2]
        assert bests[18][0] == pytest.approx(6.69e-4, abs=1e-6)


def test_pair_key_distances_give_the_smaller_balls(mitm_cals):
    # the keys of one query whose distances lie within half its radius are the
    # ball query's at that half radius, as multisets, at every first-half length
    eng, vq = mitm_cals[0.0].min_engine, target_quaternion(H)
    dropped = 0
    for a in range(6, 15):
        got, want = eng._pair_keys(vq, a, RADIUS), ball_pair_keys(eng, vq, a, RADIUS / 2)
        for (keys, dists), ball in zip(got, want, strict=True):
            kept = keys[dists <= RADIUS / 2]
            assert np.array_equal(np.sort(kept), np.sort(ball)), a
            dropped += keys.size - kept.size
    assert dropped


def test_decompose_min_logs_one_debug_record_per_search(group_cals, monkeypatch, caplog):
    # the record gives the depth reached, the radius of each meet-in-the-middle
    # depth (13..17) as the walk yielded it and the pairs rescored; a cached
    # result logs nothing
    _, scored = _recording_pair_keys(monkeypatch)
    walked, depths = [], calib1q._MinEngine._depths

    def recorded_depths(eng, *args):
        for step in depths(eng, *args):
            walked.append(step)
            yield step

    monkeypatch.setattr(calib1q._MinEngine, "_depths", recorded_depths)
    cal = group_cals["min"]
    with caplog.at_level(logging.DEBUG, logger="sfqctrl"):
        dec = decompose_min(cal, H, max_depth=17)
        assert decompose_min(cal, H, max_depth=17) is dec
    (record,) = caplog.records
    assert record.name == "sfqctrl" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert [d for d, _ in scored] == list(range(13, 18))
    assert f"depth {scored[-1][0]} reached" in message
    assert str({d: round(walked[d][2], 5) for d, _ in scored}) in message
    assert f"{sum(n for _, n in scored)} pairs rescored" in message


@pytest.mark.parametrize("slice_pairs", [None, 64])
def test_pair_blocks_equal_one_product_per_pair(mitm_cals, monkeypatch, slice_pairs):
    # one first half per run of 1..70 pairs: each run is one (2k, 6) @ (6, 2)
    # product, stacked with the runs of its length, and must give the rows
    # of the per-pair products bit for bit, also where a 64-pair slice cuts
    # a run (the 70-pair one at least)
    if slice_pairs is not None:
        monkeypatch.setattr(calib1q, "_RESCORE_SLICE", slice_pairs)
    eng = mitm_cals[0.0].min_engine
    cols, rows = eng._word_table(7).products[:, :, :2], eng._word_table(8).products[:, :2, :]
    n_second = 2 ** 8
    rng = np.random.default_rng(11)
    firsts = rng.choice(2 ** 7, size=70, replace=False)
    keys = np.sort(np.concatenate([
        qi * n_second + rng.choice(n_second, size=k, replace=False)
        for k, qi in enumerate(firsts, start=1)]))
    got = list(calib1q._pair_blocks(keys, n_second, cols, rows))
    assert [lo for lo, _ in got] == list(range(0, keys.size, calib1q._RESCORE_SLICE))
    qi, w2 = np.divmod(keys, n_second)
    assert np.array_equal(np.concatenate([b for _, b in got]), rows[w2] @ cols[qi])


@pytest.mark.parametrize("drift", [-12e6, 0.0, 12e6])
@pytest.mark.parametrize("arch, sizes", [("opt", range(4)), ("min", range(1, 13)),
                                         ("min", range(13, 29))],
                         ids=["opt-L0-3", "min-depth1-12", "min-depth13-28"])
def test_lowered_block_is_the_block_of_the_whole_pulse_train(golden, spec_hi, arch, sizes,
                                                             drift):
    # the lowering behind recompose_error against pulse_train_unitary of one train
    # holding every pulse of every application at its absolute SFQ cycle: three
    # seeded delay tuples per pulse count L (opt) and two seeded words per depth
    # (min), over the exhaustive and the meet-in-the-middle depths
    names = ("ry_6212MHz",) if arch == "opt" else ("min_ry_6212MHz", "min_idle_6212MHz")
    streams = [golden[name] for name in names]
    cal = calibrate_qubit(spec_hi.with_drift(drift), streams, arch=arch)
    rng, cycle = np.random.default_rng(17), cal.controller_cycle_sfq
    if arch == "min":
        for word in (tuple(rng.integers(2, size=n).tolist()) for n in sizes for _ in range(2)):
            train = _word_train(cal, streams, word)
            assert np.abs(calib1q._lowered_block(cal, word) - train[:2, :2]).max() <= 1e-11, word
        return
    stream = streams[0]
    for steps in (tuple(rng.integers(cal.n_max + 1, size=n).tolist())
                  for n in sizes for _ in range(3)):
        slots = [i * cycle + d + s for i, d in enumerate(steps) for s in stream.pulse_slots]
        train = pulse_train_unitary(cal.spec, slots, len(steps) * cycle, stream.tip_angle,
                                    stream.clock_period)
        assert np.abs(calib1q._lowered_block(cal, steps) - train[:2, :2]).max() <= 1e-11, steps


@pytest.mark.parametrize("arch", ["opt", "min"])
def test_recompose_error_sees_a_shifted_residual_phase(three_pulse_gate, mitm_cals, haar_su2,
                                                       arch):
    # recompose_error scores the frame a result states, residual phase included: an
    # L = 3 opt gate at +12 MHz and a depth-22 min word at +6 MHz, each with its
    # residual moved by 0.1 rad either way, must recompose as clearly worse gates
    # (by 1.3e-3 to 2.0e-3)
    if arch == "opt":
        cal, v = three_pulse_gate
        dec = decompose_opt(cal, v)[0]
    else:
        cal, v = mitm_cals[6e6], haar_su2(np.random.default_rng(5))
        dec = decompose_min(cal, v)
    assert abs(recompose_error(cal, dec, v) - dec.err) <= 1e-12
    for shift in (0.1, -0.1):
        moved = replace(dec, residual_phase=dec.residual_phase + shift)
        assert recompose_error(cal, moved, v) > dec.err + 1e-4, shift


@pytest.mark.parametrize("drift", [-12e6, 0.0, 6e6, 12e6])
def test_min_residual_phase_frames_the_word_train(golden, spec_hi, mitm_cals, haar_su2, drift):
    # Decomposition1Q's min frame, read off the pulse train: with A the 2x2 block of
    # the anchored train of the whole word, phase_gate(-residual_phase) @ A @
    # phase_gate(-fold_phase) has the word's error
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = mitm_cals.get(drift) or calibrate_qubit(spec_hi.with_drift(drift), streams, arch="min")
    for v in (H, haar_su2(np.random.default_rng(9))):
        for fold in (0.0, 0.7):
            dec = decompose_min(cal, v, fold_phase=fold)
            train = _word_train(cal, streams, dec.steps)[:2, :2]
            framed = phase_gate(-dec.residual_phase) @ train @ phase_gate(-fold)
            assert abs(projected_fidelity(framed, v).error - dec.err) <= 1e-11, dec.steps


def _frame(cal, sfq_cycles):
    """Six-level free-evolution diagonal exp(-i*H0*t) over ``sfq_cycles``, at the actual
    frequency; its conjugate is phase_gate(theta(t)) on levels {0, 1}."""
    energies = level_energies(cal.spec.actual_freq, cal.spec.anharmonicity, cal.spec.levels)
    return np.exp(-1j * energies * sfq_cycles * cal.clock_period)


def _theta(cal, sfq_cycles):
    """The qubit phase theta(t) of ``Decomposition1Q``'s chaining rule."""
    return -np.angle(_frame(cal, sfq_cycles)[1])


def _gate_operator(cal, dec):
    """Six-level anchored operator of one decomposition started at cycle 0, from plain products.

    Opt: one conjugated stream unitary F(t_i)^dag U F(t_i) per application,
    t_i = i * cycle + d_i.  Min: F(T)^dag (F(cycle) B_k) ... (F(cycle) B_k),
    the lab product of the word's steps returned to the frame at T = depth * cycle.
    """
    cycle, m = cal.controller_cycle_sfq, np.eye(cal.spec.levels, dtype=complex)
    if dec.kind == "opt":
        for i, d in enumerate(dec.steps):
            f = _frame(cal, i * cycle + d)
            m = (f.conj()[:, None] * cal.basis_ops[0] * f) @ m
        return m
    for k in dec.steps:
        m = _frame(cal, cycle)[:, None] * cal.basis_ops[k] @ m
    return _frame(cal, dec.depth * cycle).conj()[:, None] * m


def _framed_block(cal, dec, fold):
    """The 2x2 block whose error against its target ``Decomposition1Q`` reports."""
    frame = phase_gate(dec.residual_phase if dec.kind == "opt" else -dec.residual_phase)
    return frame @ _gate_operator(cal, dec)[:2, :2] @ phase_gate(-fold)


def _chain_two(cal, decompose, first, second, fold):
    """Decompose ``first`` at ``fold`` and ``second`` at the fold the first leaves, back to back.

    ``first`` and ``second`` are wanted framed blocks: each gate's target is
    its block @ phase_gate(-fold_phase), so a gate's search sees the same
    block at any fold.  Returns [(dec, fold, start cycle, target)] per gate
    and the phase p the second gate leaves (``Decomposition1Q``).
    """
    out, start = [], 0
    for r in (first, second):
        v = r @ phase_gate(-fold)
        dec = decompose(cal, v, fold_phase=fold)
        out.append((dec, fold, start, v))
        nxt = start + dec.depth * cal.controller_cycle_sfq
        sign = 1.0 if dec.kind == "opt" else -1.0
        fold, start = sign * dec.residual_phase + _theta(cal, nxt - start), nxt
    dec, _, begin, _ = out[-1]
    sign = -1.0 if dec.kind == "opt" else 1.0
    return out, _theta(cal, begin) + sign * dec.residual_phase


def _check_chained_train(cal, gates, p, train):
    """The lowered train against the per-gate operators and the framed blocks' product.

    Six levels: the train equals F(t_2)^dag U_2 F(t_2) U_1 within 1e-12 on
    levels {0, 1}.  Two levels: phase_gate(-p) @ train @ phase_gate(-fold_1)
    equals G_2 @ G_1 up to the leakage cross-term P U_2 Q U_1 P, whose
    Frobenius norm is at most sqrt((2 - |P U_2 P|^2)(2 - |P U_1 P|^2)).
    """
    ops = [_gate_operator(cal, dec) for dec, *_ in gates]
    f2 = _frame(cal, gates[1][2])
    composed = (f2.conj()[:, None] * ops[1] * f2) @ ops[0]
    assert np.abs(train[:2, :2] - composed[:2, :2]).max() <= 1e-12
    blocks = [_framed_block(cal, dec, fold) for dec, fold, *_ in gates]
    for (dec, _, _, v), g in zip(gates, blocks):
        assert abs(projected_fidelity(g, v).error - dec.err) <= 1e-12
    chained = phase_gate(-p) @ train[:2, :2] @ phase_gate(-gates[0][1])
    cross = np.sqrt(np.prod([2.0 - np.sum(np.abs(u[:2, :2]) ** 2) for u in ops]))
    assert np.linalg.norm(chained - blocks[1] @ blocks[0]) <= cross + 1e-12
    return cross


def _polar(block):
    u, _, vh = np.linalg.svd(block)
    return u @ vh


def test_opt_gates_chain_through_their_folds(three_pulse_gate, ry_bitstream_hi):
    # pairs of opt gates with L = 0..3 pulses, each placed right after the
    # other in one absolute-cycle train (application i of a gate at its start
    # + i * cycle + d_i): the train must be the product of the per-gate
    # operators, and the fold rule must chain their framed blocks; at +12 MHz
    # one application leaks 1.8e-4, so a 2e-4 budget lets one pulse suffice
    cal, v3 = three_pulse_gate
    wanted = [rz(0.3), _polar(calib1q._lowered_block(cal, (5,))),
              _polar(calib1q._lowered_block(cal, (3, 40))), v3]
    stream, cycle = ry_bitstream_hi, cal.controller_cycle_sfq
    depths = []
    for i, j in ((3, 0), (0, 1), (1, 2), (2, 3)):
        gates, p = _chain_two(cal, lambda *a, **k: decompose_opt(*a, err_budget=2e-4, **k)[0],
                              wanted[i], wanted[j], fold=0.7)
        slots = [start + n * cycle + d + s for dec, _, start, _ in gates
                 for n, d in enumerate(dec.steps) for s in stream.pulse_slots]
        n_cycles = sum(dec.depth for dec, *_ in gates) * cycle
        train = pulse_train_unitary(cal.spec, slots, n_cycles, stream.tip_angle,
                                    stream.clock_period)
        assert _check_chained_train(cal, gates, p, train) < 1e-3
        depths.append(tuple(dec.depth for dec, *_ in gates))
    assert depths == [(3, 0), (0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("drift", [0.0, 6e6])
def test_min_words_chain_through_their_folds(golden, mitm_cals, drift):
    # two min words back to back are one word train (``_word_train`` of the
    # concatenated word); the second word's fold, theta(depth * cycle) -
    # residual_phase of the first, is 0 mod 2*pi
    streams = [golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]]
    cal = mitm_cals[drift]
    for first, second in ((H, T), (X, H)):
        gates, p = _chain_two(cal, lambda *a, **k: decompose_min(*a, max_depth=10, **k),
                              first, second, fold=0.7)
        assert abs(np.angle(np.exp(1j * gates[1][1]))) <= 1e-9
        train = _word_train(cal, streams, gates[0][0].steps + gates[1][0].steps)
        _check_chained_train(cal, gates, p, train)


def test_min_stream_leakage_floor(mitm_cals):
    # every min error is at least the word's leakage 1 - |E|^2 / 2, since
    # |tr V^dag E|^2 <= 2 |E|^2; one Ry step of the frozen stream leaks 8.66e-5
    cal = mitm_cals[0.0]
    assert leakage(calib1q._lowered_block(cal, (0,))) == pytest.approx(8.66e-5, abs=1e-6)
    assert abs(leakage(calib1q._lowered_block(cal, (1,)))) <= 1e-15  # the idle step is unitary


def test_decompose_opt_truncates_each_call_alone(group_cals):
    # X needs two pulses on this stream and has more than 128 candidates;
    # a call's max_candidates, or a change to the list it returned, must not
    # reach a later call
    cal = group_cals["opt"]
    (one,) = decompose_opt(cal, X, max_candidates=1)
    decs = decompose_opt(cal, X)
    assert len(decs) == 128 and decs[0] == one
    decs.clear()
    again = decompose_opt(cal, X, max_candidates=1000)
    assert 128 < len(again) < 1000 and again[0] == one
    assert len(decompose_opt(cal, X)) == 128
