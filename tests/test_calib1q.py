import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from sfqctrl.bitstream import Bitstream
from sfqctrl.calib1q import (
    CalibrationError,
    _collect,
    calibrate_qubit,
    decompose_min,
    design_min_bitstreams,
    decompose_opt,
    opt_level_errors,
    recompose_error,
)
from sfqctrl.transmon import (
    level_energies,
    phase_gate,
    projected_fidelity,
    pulse_train_unitary,
)

BUDGET = 1e-4
MARGIN = 1e-4  # decompose_opt's default
GOLDEN_STREAMS = Path(__file__).resolve().parents[1] / "perfbench/fixtures/streams.json"
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T = np.diag([1, np.exp(0.25j * np.pi)])


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


def test_decompose_opt_flags_best_across_levels(three_pulse_gate):
    cal, v = three_pulse_gate
    decs = decompose_opt(cal, v, err_budget=1e-12)
    assert len(decs) == 1 and decs[0].flagged
    assert decs[0].err == min(opt_level_errors(cal, v).values())


def test_collect_keeps_only_entries_near_the_final_best():
    # the first chunk's own minimum (0.50) lies above the final best (0.20)
    # plus the margin, so what it keeps must be dropped at the end
    margin = 0.1
    chunks = [np.array([0.50, 0.55, 0.58, 0.90]),
              np.array([[0.70, 0.20], [0.25, 0.31]]),
              np.array([0.35, 0.28])]
    ids = np.cumsum([0] + [c.size for c in chunks])
    fed = [(errs, [np.arange(lo, lo + errs.size).reshape(errs.shape),
                   np.full(errs.shape, n)])
           for n, (lo, errs) in enumerate(zip(ids, chunks))]
    best, best_delays, kept = _collect(iter(fed), margin)

    flat = np.concatenate([c.ravel() for c in chunks])
    chunk_of = np.repeat(np.arange(len(chunks)), [c.size for c in chunks])
    want = [(float(flat[i]), (int(i), int(chunk_of[i])))
            for (i,) in np.argwhere(flat <= flat.min() + margin)]
    assert best == flat.min() and best_delays == (int(np.argmin(flat)), 1)
    assert sorted(kept) == sorted(want)
    assert len(want) == 3


@pytest.mark.parametrize("other", [
    Bitstream(bits=(1, 0, 0, 0)),
    Bitstream(bits=(1, 0, 0), clock_period=50e-12),
], ids=["length", "clock_period"])
def test_calibrate_rejects_mismatched_streams(spec_hi, other):
    with pytest.raises(CalibrationError):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0)), other])


def test_calibrate_rejects_n_max_below_one(spec_hi):
    with pytest.raises(ValueError):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0))], n_max=0)


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


def _lab_word_error(cal, streams, word, v):
    """Error of one pulse train holding the whole word, in the lab frame.

    Step j's stream starts at SFQ cycle j * cycle; the anchored train is
    returned to the lab frame by exp(-i*H0*T_word).
    """
    spec, cycle = cal.spec, cal.controller_cycle_sfq
    (tip,) = {s.tip_angle for s in streams if s.n_pulses}
    slots = [j * cycle + s for j, k in enumerate(word) for s in streams[k].pulse_slots]
    u = pulse_train_unitary(spec, slots, len(word) * cycle, tip, cal.clock_period)
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    lab = np.exp(-1j * energies * len(word) * cycle * cal.clock_period)[:, None] * u
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
    with pytest.raises(CalibrationError):
        decompose_opt(calibrate_qubit(spec_hi, streams, arch="min"), H)
    with pytest.raises(CalibrationError):
        decompose_min(calibrate_qubit(spec_hi, streams, arch="opt"), H)


@pytest.fixture
def group_cals(golden, spec_hi):
    """Fresh opt, min and four-stream min calibrations at zero drift."""
    ry, idle = golden["min_ry_6212MHz"], golden["min_idle_6212MHz"]
    four = [ry, Bitstream(ry.bits, tip_angle=-ry.tip_angle),
            Bitstream(ry.bits, tip_angle=0.5 * ry.tip_angle), idle]
    return {"opt": calibrate_qubit(spec_hi, [golden["ry_6212MHz"]]),
            "min": calibrate_qubit(spec_hi, [ry, idle], arch="min"),
            "min4": calibrate_qubit(spec_hi, four, arch="min")}


NAN = np.full((2, 2), np.nan, dtype=complex)


@pytest.mark.parametrize("fn, arch, target, kwargs", [
    pytest.param(decompose_opt, "opt", NAN, {}, id="opt-nan"),
    pytest.param(opt_level_errors, "opt", NAN, {}, id="levels-nan"),
    pytest.param(decompose_min, "min", NAN, {}, id="min-nan"),
    pytest.param(decompose_opt, "opt", np.eye(3), {}, id="opt-3x3"),
    pytest.param(opt_level_errors, "opt", np.eye(3), {}, id="levels-3x3"),
    pytest.param(decompose_min, "min", np.eye(3), {}, id="min-3x3"),
    pytest.param(decompose_opt, "opt", 1.01 * H, {}, id="opt-not-unitary"),
    pytest.param(decompose_min, "min", 1.01 * H, {}, id="min-not-unitary"),
    pytest.param(opt_level_errors, "opt", H, {"lmax": 4}, id="lmax-4"),
    pytest.param(opt_level_errors, "opt", H, {"lmax": -1}, id="lmax-negative"),
    pytest.param(decompose_min, "min", H, {"max_depth": 29}, id="depth-29"),
    pytest.param(decompose_min, "min", H, {"max_depth": -1}, id="depth-negative"),
    pytest.param(decompose_min, "min4", H, {"max_depth": 15}, id="depth-15-four-streams"),
])
def test_decompositions_reject_bad_input(group_cals, fn, arch, target, kwargs):
    cal = group_cals[arch]
    with pytest.raises(ValueError):
        fn(cal, target, **kwargs)
    assert not cal._cache
