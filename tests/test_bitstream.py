import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import design_oracle
from sfqctrl import bitstream
from sfqctrl.transmon import (TransmonSpec, projected_errors, projected_fidelity,
                              pulse_train_stack, pulse_train_unitary, ry)
from sfqctrl.bitstream import (
    DEFAULT_N_MAX,
    SFQ_CLOCK_PERIOD,
    Bitstream,
    BitstreamDesignError,
    _cycle_kicks,
    _flip_blocks,
    _golden_tip_angle,
    _lit_table,
    _move,
    _move_blocks,
    _prefix_suffix,
    _prefixes,
    _suffixes,
    _window_patterns,
    _window_scan,
    design_bitstream,
    drift_tolerance,
    gate_length_cycles,
    parking_scan,
    rz_grid_error,
    worst_rz_error,
)
from sfqctrl.calib1q import calibrate_qubit, min_basis_targets

TAU = 40e-12
GOLDEN_STREAMS = Path(__file__).resolve().parents[1] / "perfbench/fixtures/streams.json"


# --- Bitstream container ------------------------------------------------------

def test_bitstream_length_cap():
    with pytest.raises(ValueError):
        Bitstream(bits=tuple([0] * 301))


def test_bitstream_roundtrip_ascii():
    bs = Bitstream(bits=(1, 0, 0, 1, 0), tip_angle=0.03)
    s = bs.to_string()
    assert s == "10010"
    back = Bitstream.from_string(s, tip_angle=0.03)
    assert back.bits == bs.bits
    assert back.pulse_slots == (0, 3)


@pytest.mark.parametrize("bits", [(1.0, 0, True), (1.0, 0, 1), (True, 0, 1), (1, 0, 2),
                                  (1, 0, "1"), (), [0, 1, 1]],
                         ids=["float-bool", "float", "bool", "two", "str", "empty", "list"])
def test_bitstream_rejects_bits_other_than_the_ints_0_and_1(bits):
    # to_string would write '1.00True', '1.001', 'True01', ... or '', which
    # from_string cannot read back as the same stream; a list would leave the
    # frozen stream unhashable and unequal to its tuple form
    with pytest.raises(ValueError, match="bits"):
        Bitstream(bits=bits)


@pytest.mark.parametrize("freq", [np.nan, np.inf, -np.inf])
def test_gate_length_cycles_rejects_a_non_finite_frequency(freq):
    # a non-finite frequency matched no parking point and got the 300-cycle cap
    with pytest.raises(ValueError, match="nominal_freq"):
        gate_length_cycles(freq)


@pytest.mark.parametrize("tip_angle", [np.nan, np.inf, -np.inf])
def test_bitstream_rejects_non_finite_tip_angle(tip_angle):
    with pytest.raises(ValueError):
        Bitstream(bits=(1, 0), tip_angle=tip_angle)


@pytest.mark.parametrize("field, make", [
    ("nominal_freq", lambda: TransmonSpec(nominal_freq=np.nan)),
    ("nominal_freq", lambda: TransmonSpec(nominal_freq=np.inf)),
    ("nominal_freq", lambda: TransmonSpec(nominal_freq=-5e9)),
    ("anharmonicity", lambda: TransmonSpec(nominal_freq=5e9, anharmonicity=np.nan)),
    ("drift", lambda: TransmonSpec(nominal_freq=5e9, drift=np.nan)),
    ("levels", lambda: TransmonSpec(nominal_freq=5e9, levels=2.5)),
    ("clock_period", lambda: Bitstream(bits=(1, 0), clock_period=0.0)),
    ("clock_period", lambda: Bitstream(bits=(1, 0), clock_period=-4e-11)),
    ("clock_period", lambda: Bitstream(bits=(1, 0), clock_period=np.nan)),
], ids=["freq-nan", "freq-inf", "freq-negative", "anharmonicity-nan", "drift-nan",
        "levels-2.5", "clock-zero", "clock-negative", "clock-nan"])
def test_fields_reject_bad_values(field, make):
    with pytest.raises(ValueError, match=field):
        make()


# --- the delay grid a calibrated qubit uses ------------------------------------

def _grid(freq, n_max=DEFAULT_N_MAX, drift=0.0):
    """Delay phases phi_0..phi_n_max of a calibrated opt qubit (``_OptEngine.phi_d``)."""
    spec = TransmonSpec(nominal_freq=freq, drift=drift)
    return calibrate_qubit(spec, [Bitstream(bits=(1, 0, 0))], n_max=n_max).opt_engine.phi_d


def _circular(a, b):
    """Distance between angles on the circle."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, 2 * np.pi) - np.pi)


def test_delay_set_rational_lock():
    # f*tau = 0.25 exactly: only 4 distinct phases (up to float wrap at 2*pi)
    phases = _grid(6.25e9)
    quadrant = np.round(phases / (np.pi / 2)).astype(int) % 4
    assert set(quadrant) == {0, 1, 2, 3}
    assert _circular(phases, quadrant * np.pi / 2).max() <= 1e-6


def test_delay_set_zero_delay_zero_phase():
    assert _grid(6.21286e9)[0] == 0.0


def test_delay_set_frozen_coverage_gap():
    # brute-force oracle: sort all 256 phases, take the largest circular gap
    phases = _grid(6.21286e9)
    assert len(phases) == 256
    ph = np.sort(phases)
    gap = np.max(np.diff(np.append(ph, ph[0] + 2 * np.pi)))
    assert np.isclose(gap, 0.03733720036941435, atol=1e-12)
    assert np.isclose(worst_rz_error(phases), 5.8084418497848214e-05, rtol=1e-9)


def test_delay_set_uses_actual_frequency():
    # drifting by df turns phi_d by 2*pi*df*d*tau
    a = _grid(6.21286e9)
    b = _grid(6.21286e9, drift=5e6)
    assert not np.allclose(a, b)
    d = np.arange(len(a))
    assert _circular(b - a, 2 * np.pi * 5e6 * d * TAU).max() <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(3e9, 8e9), st.integers(0, 255))
def test_delay_phase_recomputable_exactly(freq, d):
    assert _circular(_grid(freq)[d], 2 * np.pi * freq * d * TAU) <= 1e-12


# --- worst-case grid error ---------------------------------------------------------

def test_best_rz_uniform_grid_worst_case():
    # exactly uniform 256 phases: worst error is the analytic midpoint value
    phases = np.arange(256) * 2 * np.pi / 256
    w = worst_rz_error(phases)
    assert np.isclose(w, (2 / 3) * np.sin(np.pi / 512) ** 2, rtol=1e-12)
    assert w <= 0.251e-4  # the published "0.25e-4" is this value rounded


def test_worst_rz_error_one_value_per_row():
    grids = np.stack([np.arange(256) * 2 * np.pi / 256, _grid(6.21286e9), _grid(6.25e9)])
    assert np.array_equal(worst_rz_error(grids), [worst_rz_error(g) for g in grids])


def test_rz_grid_error_form():
    # documented form: (2/3)*sin^2(delta/2), the d=2 average-fidelity error
    delta = 0.1
    e = rz_grid_error(delta)
    rep = projected_fidelity(np.diag([np.exp(-0.05j), np.exp(0.05j)]).astype(complex),
                             np.eye(2))
    assert np.isclose(e, rep.error, rtol=1e-9)


def test_small_grid_pigeonhole():
    # n_max=3: only 4 phases; some target is at least pi/4 from every phase
    w = worst_rz_error(_grid(6.25e9, n_max=3))  # exact 4-phase lock
    assert w >= rz_grid_error(np.pi / 4) - 1e-12


# --- parking_scan ----------------------------------------------------------------

def test_parking_scan_reproduces_high_freq_tolerance():
    runs = parking_scan(6.19e9, 6.24e9, resolution=0.1e6)
    best = max(runs, key=lambda r: r[1])
    centre, tol = best
    assert abs(centre - 6.21286e9) < 2e6
    assert 0.8 * 0.01282e9 <= tol <= 1.2 * 0.01282e9


def test_parking_scan_reproduces_low_freq_tolerance():
    runs = parking_scan(4.12e9, 4.17e9, resolution=0.1e6)
    best = max(runs, key=lambda r: r[1])
    centre, tol = best
    assert abs(centre - 4.14238e9) < 2e6
    assert 0.8 * 0.00820e9 <= tol <= 1.2 * 0.00820e9


def test_parking_scan_middle_parking_frequency():
    runs = parking_scan(5.00e9, 5.06e9, resolution=0.1e6)
    best = max(runs, key=lambda r: r[1])
    assert abs(best[0] - 5.02978e9) < 2e6
    assert 0.8 * 0.01049e9 <= best[1] <= 1.2 * 0.01049e9


def test_parking_scan_resolution_refinement_stable():
    # refining below the default resolution moves the tolerance by at most
    # one coarse step (edge slivers are already resolved at 0.1 MHz)
    a = drift_tolerance(6.21286e9, resolution=0.1e6)
    b = drift_tolerance(6.21286e9, resolution=0.05e6)
    assert abs(a - b) <= 0.1e6


def test_parking_scan_drops_runs_cut_off_by_the_range():
    # 6.19 GHz itself meets the budget, but the scan cannot see where that
    # run starts; every reported interval must lie inside the range
    runs = parking_scan(6.19e9, 6.24e9, resolution=0.1e6)
    assert runs
    for centre, tol in runs:
        assert 6.19e9 < centre - tol and centre + tol < 6.24e9


def test_parking_scan_rejects_bad_range():
    with pytest.raises(ValueError, match="f_lo"):
        parking_scan(6e9, 5e9)


@pytest.mark.parametrize("scan, name", [
    (lambda x: parking_scan(x, 6.24e9), "f_lo"),
    (lambda x: parking_scan(6.19e9, x), "f_hi"),
    (lambda x: drift_tolerance(x), "freq"),
], ids=["f_lo", "f_hi", "freq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scan_rejects_non_finite_frequency(scan, name, value):
    with pytest.raises(ValueError, match=name):
        scan(value)


@pytest.mark.parametrize("scan", [
    lambda res: parking_scan(6.19e9, 6.24e9, resolution=res),
    lambda res: drift_tolerance(6.21286e9, resolution=res),
], ids=["parking_scan", "drift_tolerance"])
@pytest.mark.parametrize("resolution", [0.0, -0.1e6, np.nan, np.inf])
def test_scan_rejects_non_positive_resolution(scan, resolution):
    with pytest.raises(ValueError, match="resolution"):
        scan(resolution)


# --- design -------------------------------------------------------

def test_designed_bitstream_high_freq(ry_bitstream_hi, spec_hi):
    bs = ry_bitstream_hi
    assert len(bs) <= 253
    u = bs.simulate(spec_hi)
    rep = projected_fidelity(u, ry(np.pi / 2))
    assert rep.error <= 1e-4


def test_designed_bitstream_low_freq(ry_bitstream_lo, spec_lo):
    bs = ry_bitstream_lo
    assert len(bs) <= 225
    u = bs.simulate(spec_lo)
    rep = projected_fidelity(u, ry(np.pi / 2))
    assert rep.error <= 1e-4


def test_designed_bitstreams_match_golden_fixtures(ry_bitstream_hi, ry_bitstream_lo):
    # the frozen streams the benchmark checks its own designs against
    golden = json.loads(GOLDEN_STREAMS.read_text())["streams"]
    for bs, name in ((ry_bitstream_hi, "ry_6212MHz"), (ry_bitstream_lo, "ry_4142MHz")):
        assert bs.to_string() == golden[name]["bits"]
        assert bs.tip_angle == golden[name]["tip_angle"]


@pytest.mark.parametrize("target", [2 * np.eye(2), np.full((2, 2), np.nan), np.eye(3),
                                    np.array([[1, 1], [0, 1]])],
                         ids=["scaled", "nan", "3x3", "non-unitary"])
def test_design_bitstream_rejects_bad_target(spec_hi, target):
    with pytest.raises(ValueError, match="target"):
        design_bitstream(spec_hi, target)


@pytest.mark.parametrize("centres", [(), [], (np.nan,), (0.0, np.inf), (-np.inf, 1.0)],
                         ids=["empty-tuple", "empty-list", "nan", "inf", "minus-inf"])
def test_design_bitstream_rejects_bad_window_centres(spec_hi, monkeypatch, centres):
    # bad input, not a design failure: the ValueError names the argument
    # and comes before any simulation
    for name in ("pulse_train_unitary", "pulse_train_stack", "sfq_kick"):
        monkeypatch.setattr(bitstream, name, None)
    with pytest.raises(ValueError, match="window_centres"):
        design_bitstream(spec_hi, ry(np.pi / 2), window_centres=centres)


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_greedy_scores_match_whole_train(freq):
    # every flip and move block the descent scores, against one from-scratch
    # train; a flip pass's batched blocks and running prefixes from any cycle
    # on equal the per-cycle products bit for bit
    spec = TransmonSpec(nominal_freq=freq)
    rng = np.random.default_rng(7)
    n, tip = 253, 0.04
    bits = (rng.random(n) < 0.3).astype(int)

    def block(b):
        return pulse_train_unitary(spec, np.flatnonzero(b), n, tip, TAU)[:2, :2]

    kicks = _cycle_kicks(spec, n, tip)
    pref, suf = _prefix_suffix(kicks, bits)
    whole = pulse_train_unitary(spec, np.flatnonzero(bits), n, tip, TAU)
    assert np.abs(suf[0] - whole).max() < 1e-12
    assert np.abs(pref[n] - whole).max() < 1e-12
    for start in (0, 97, n - 1):
        prefs = _prefixes(kicks, bits, start, pref[start])
        assert (prefs == pref[start:]).all()
        got = _flip_blocks(kicks, prefs, suf, bits, start)
        assert got.shape == (n - start, 2, 2)
        for i in range(start, n):
            rows = suf[i + 1][:2] @ kicks[i] if bits[i] == 0 else suf[i + 1][:2]
            assert (got[i - start] == rows @ pref[i][:, :2]).all()
    for i, got in enumerate(_flip_blocks(kicks, pref, suf, bits, 0)):
        flipped = bits.copy()
        flipped[i] ^= 1
        assert np.abs(got - block(flipped)).max() < 1e-12
    js = np.flatnonzero(bits == 0)
    lit = _lit_table(kicks, pref, suf, js)
    for i in rng.choice(np.flatnonzero(bits[20:-20]) + 20, size=4, replace=False):
        assert js[0] < i < js[-1]
        blocks = _move_blocks(kicks, pref, suf, i, js, lit)
        assert (blocks == design_oracle.move_blocks(kicks, pref, suf, i, js)).all()
        for j, got in zip(js, blocks):
            moved = bits.copy()
            moved[i], moved[j] = 0, 1
            assert np.abs(got - block(moved)).max() < 1e-12


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_move_rebuilds_prefixes_and_suffixes_bit_for_bit(freq):
    # after each move the partly rebuilt (pref, suf) equal a whole rebuild by the
    # per-cycle loop, and the move blocks from the new state's lit table equal the
    # full-product formula
    spec = TransmonSpec(nominal_freq=freq)
    n = gate_length_cycles(freq)
    kicks = _cycle_kicks(spec, n, 0.04)
    bits = np.zeros(n, dtype=int)
    bits[[0, 5, 17, 40, 41, 90, 150, n - 2]] = 1
    pref, suf = _prefix_suffix(kicks, bits)
    moves = [(17, 3), (40, 200), (0, n - 1), (n - 1, 0), (5, 1), (n - 2, n - 1), (41, 42),
             (150, 149), (0, 120)]
    for i, j in moves:
        assert bits[i] and not bits[j]
        _move(kicks, bits, pref, suf, i, j)
        want_pref, want_suf = design_oracle.prefix_suffix(kicks, bits)
        assert (pref == want_pref).all() and (suf == want_suf).all()
        js = np.flatnonzero(bits == 0)
        lit = _lit_table(kicks, pref, suf, js)
        for k in np.flatnonzero(bits):
            assert (_move_blocks(kicks, pref, suf, k, js, lit)
                    == design_oracle.move_blocks(kicks, pref, suf, k, js)).all()


def test_prefixes_and_suffixes_equal_the_per_cycle_loop():
    # one product per lit cycle, dark cycles filled by index, must give the per-cycle
    # loop's arrays bit for bit, whole and from every cut, the edges included
    spec = TransmonSpec(nominal_freq=6.21286e9)
    n = gate_length_cycles(6.21286e9)
    kicks = _cycle_kicks(spec, n, 0.04)
    eye = np.eye(spec.levels, dtype=complex)
    for lit_edges in ((1, 0, 1), (0, 1, 0)):
        bits = (np.random.default_rng(3).random(n) < 0.2).astype(int)
        bits[[0, 1, n - 1]] = lit_edges
        pref, suf = _prefix_suffix(kicks, bits)
        assert (pref == design_oracle.prefixes(kicks, bits, 0, eye)).all()
        assert (suf == design_oracle.suffixes(kicks, bits, n, eye)).all()
        for cut in (0, 1, 2, 97, n - 1, n):
            assert (_prefixes(kicks, bits, cut, pref[cut])
                    == design_oracle.prefixes(kicks, bits, cut, pref[cut])).all()
            assert (_suffixes(kicks, bits, cut, suf[cut])
                    == design_oracle.suffixes(kicks, bits, cut, suf[cut])).all()


@pytest.mark.parametrize("freq, name", [(6.21286e9, "ry_6212MHz"), (4.14238e9, "ry_4142MHz")],
                         ids=["6212MHz", "4142MHz"])
@pytest.mark.parametrize("iters", [0, 1, 2, 3, 4, 24, 32])
def test_golden_tip_angle_matches_the_sequential_search(freq, name, iters):
    # speculative stacks walk the sequential search's points and comparisons
    stream = json.loads(GOLDEN_STREAMS.read_text())["streams"][name]
    spec = TransmonSpec(nominal_freq=freq)
    slots = np.flatnonzero([int(c) for c in stream["bits"]])
    n, tip = len(stream["bits"]), stream["tip_angle"]
    for lo, hi in ((tip * 0.98, tip * 1.02), (tip * 0.92, tip * 1.08)):
        want = design_oracle.golden_tip_angle(spec, slots, n, lo, hi, ry(np.pi / 2), iters)
        got = _golden_tip_angle(spec, slots, n, lo, hi, ry(np.pi / 2), iters)
        assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_train_stack_matches_each_train(freq):
    # every stage-1 pattern of one centre, simulated together, equals its own train
    spec = TransmonSpec(nominal_freq=freq)
    n = gate_length_cycles(freq)
    patterns = _window_patterns(spec, 0.0, n)
    assert len(patterns) == 23 * 11
    for (slots, tip), got in zip(patterns, pulse_train_stack(spec, patterns, n, TAU)):
        assert (got == pulse_train_unitary(spec, slots, n, tip, TAU)).all()


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_window_patterns_keep_every_pattern_at_the_parking_points(freq):
    # no two windows give one slot set there, so nothing is dropped
    spec = TransmonSpec(nominal_freq=freq)
    n = gate_length_cycles(freq)
    for centre in design_oracle.CENTRES:
        want = list(design_oracle.patterns(spec, centre, n))
        got = _window_patterns(spec, centre, n)
        assert len(got) == len(want) == 23 * 11
        assert all((a.tolist(), x) == (b.tolist(), y) for (a, x), (b, y) in zip(got, want))


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_window_scan_picks_the_per_pattern_choice(freq, haar_su2):
    spec = TransmonSpec(nominal_freq=freq)
    assert design_oracle.scan_mismatch(spec, ry(np.pi / 2), (0.0,)) is None
    target = haar_su2(np.random.default_rng(3))
    assert design_oracle.scan_mismatch(spec, target, design_oracle.CENTRES) is None
    # its winner is a pattern of the last centre only, so the oracle also
    # checks the order across centres
    n = gate_length_cycles(freq)
    _, slots, tip = _window_scan(spec, target, design_oracle.CENTRES, n)
    owners = [c for c, centre in enumerate(design_oracle.CENTRES)
              if any((s.tolist(), t) == (slots.tolist(), tip)
                     for s, t in _window_patterns(spec, centre, n))]
    assert owners == [len(design_oracle.CENTRES) - 1]


@pytest.mark.parametrize("freq", [6.21286e9, 4.14238e9], ids=["6212MHz", "4142MHz"])
def test_window_scan_walks_every_centre_as_one_stack(freq, monkeypatch):
    # the 4 x 253 patterns of the min designer's centres: one walk, one scoring
    spec = TransmonSpec(nominal_freq=freq)
    sizes = []

    def walk(spec, trains, *args):
        sizes.append(len(trains))
        return pulse_train_stack(spec, trains, *args)

    def score(blocks, target):
        sizes.append(len(blocks))
        return projected_errors(blocks, target)

    monkeypatch.setattr(bitstream, "pulse_train_stack", walk)
    monkeypatch.setattr(bitstream, "projected_errors", score)
    _window_scan(spec, ry(np.pi / 2), design_oracle.CENTRES, gate_length_cycles(freq))
    assert sizes == [4 * 23 * 11] * 2  # the walk, then the scoring


def test_window_scan_resolves_exact_ties_to_the_first_pattern(monkeypatch):
    # at 3.125 GHz the phase steps by pi/4 a cycle, so the windows below and
    # above pi/4 each give one slot set: the visiting order holds 13 and 10
    # copies of every pattern, and the scan simulates only the first of each
    spec = TransmonSpec(nominal_freq=3.125e9)
    n = gate_length_cycles(spec.nominal_freq)
    patterns = _window_patterns(spec, 0.0, n)
    copies = Counter((tuple(slots), tip) for slots, tip in design_oracle.patterns(spec, 0.0, n))
    assert sorted(copies.values()) == [10] * 11 + [13] * 11
    assert [(tuple(slots), tip) for slots, tip in patterns] == list(copies)
    errs = projected_errors(pulse_train_stack(spec, patterns, n, TAU), ry(np.pi / 2))
    assert len(set(errs.tolist())) == len(patterns) == 22
    assert design_oracle.scan_mismatch(spec, ry(np.pi / 2), (0.0,)) is None
    # when every pattern of every centre ties, the first of the first centre wins
    monkeypatch.setattr(bitstream, "projected_errors", lambda blocks, target: np.zeros(len(blocks)))
    err, slots, tip = _window_scan(spec, ry(np.pi / 2), (0.0, 0.0, np.pi), n)
    assert (err, slots.tolist(), tip) == (0.0, patterns[0][0].tolist(), patterns[0][1])


def test_window_scan_skips_a_centre_without_patterns():
    # at 25 GHz the phase never leaves 0: a centre at pi/2 lights no cycle
    spec = TransmonSpec(nominal_freq=25e9)
    with pytest.raises(BitstreamDesignError,
                       match=r"no pulse pattern found .* 25 GHz, window centres \(1.5708\)"):
        design_bitstream(spec, ry(np.pi / 2), (np.pi / 2,))
    for centres in ((0.0,), (np.pi / 2, 0.0)):
        with pytest.raises(BitstreamDesignError, match="best design error 8.054e-04 "):
            design_bitstream(spec, ry(np.pi / 2), centres)


def _design_against_oracle(spec, target, centres):
    """design_bitstream gives the oracle's stream, or raises with its error; that error."""
    bits, tip, err = design_oracle.design(spec, target, centres)
    if err > 1e-4:
        with pytest.raises(BitstreamDesignError, match=f"best design error {err:.3e} "):
            design_bitstream(spec, target, centres)
    else:
        assert design_bitstream(spec, target, centres) == Bitstream(bits, tip_angle=tip)
    return err


def test_design_matches_per_candidate_oracle(spec_lo, spec_hi, haar_su2):
    # batched passes take the same first improving candidate as scoring one by one
    assert _design_against_oracle(spec_lo, ry(np.pi / 2), design_oracle.CENTRES) <= 1e-4
    _design_against_oracle(spec_hi, haar_su2(np.random.default_rng(2)), (0.0,))


def test_design_oracle_stalls_on_the_bs3_x_axis_turn(spec_hi):
    # the known stall of the min designer's BS=3 stream, reproduced by both
    phase = float(np.mod(2 * np.pi * spec_hi.nominal_freq * 253 * SFQ_CLOCK_PERIOD, 2 * np.pi))
    err = _design_against_oracle(spec_hi, min_basis_targets(phase, 3)[1], design_oracle.CENTRES)
    assert f"{err:.3e}" == "1.158e-04"


def test_designed_bitstream_drift_sensitivity(ry_bitstream_hi, spec_hi):
    # replaying the shared bitstream on a drifted qubit yields a different
    # unitary: the premise of software calibration
    u0 = ry_bitstream_hi.simulate(spec_hi)
    for drift in (-6e6, 6e6):
        ud = ry_bitstream_hi.simulate(spec_hi.with_drift(drift))
        assert np.abs(u0 - ud).max() > 1e-3
        rep = projected_fidelity(ud, ry(np.pi / 2))
        assert rep.error > 1e-4  # beyond-tolerance drift degrades the gate
