import numpy as np
import pytest

from sfqctrl.bitstream import Bitstream
from sfqctrl.calib1q import (
    CalibrationError,
    _collect,
    calibrate_qubit,
    decompose_opt,
    opt_level_errors,
    recompose_error,
)
from sfqctrl.transmon import phase_gate, projected_fidelity, pulse_train_unitary

BUDGET = 1e-4
MARGIN = 1e-4  # decompose_opt's default


def _two_pulse_targets(haar_su2, cal, seed, n):
    """Seeded Haar targets whose best schedule needs exactly two stream pulses."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        v = haar_su2(rng)
        errs = opt_level_errors(cal, v, lmax=2)
        if errs[1] > BUDGET and errs[2] <= BUDGET:
            out.append(v)
    return out


def _oracle_error(cal, stream, dec, v):
    """Error of one pulse train holding every stream application, then residual z.

    Application i starts at SFQ cycle i*cycle + d_i; the anchored train is
    followed by ``phase_gate(dec.residual_phase)`` on the computational block.
    """
    slots = [i * cal.controller_cycle_sfq + d + s
             for i, d in enumerate(dec.steps) for s in stream.pulse_slots]
    u = pulse_train_unitary(cal.spec, slots, dec.depth * cal.controller_cycle_sfq,
                            stream.tip_angle, stream.clock_period)
    trailing = np.eye(6, dtype=complex)
    trailing[:2, :2] = phase_gate(dec.residual_phase)
    return projected_fidelity(trailing @ u, v, [6]).error


@pytest.mark.parametrize("drift", [0.0, 4e6, -8e6])
def test_decompose_opt_two_pulses_against_pulse_train(ry_bitstream_hi, spec_hi, haar_su2,
                                                     drift):
    cal = calibrate_qubit(spec_hi.with_drift(drift), [ry_bitstream_hi])
    for v in _two_pulse_targets(haar_su2, cal, seed=7, n=2):
        decs = decompose_opt(cal, v, err_budget=BUDGET)
        assert decs and not decs[0].flagged
        assert decs[0].err <= BUDGET
        for dec in decs:
            assert dec.depth == 2
            assert abs(recompose_error(cal, dec, v) - dec.err) <= 1e-12
            assert abs(_oracle_error(cal, ry_bitstream_hi, dec, v) - dec.err) <= 1e-12


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
