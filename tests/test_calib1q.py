import numpy as np
import pytest

from sfqctrl.bitstream import Bitstream
from sfqctrl.calib1q import (
    CalibrationError,
    calibrate_qubit,
    decompose_opt,
    opt_level_errors,
    recompose_error,
)
from sfqctrl.transmon import projected_fidelity, pulse_train_unitary

BUDGET = 1e-4


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


def _oracle_error(cal, stream, delays, v):
    """Error of one pulse train holding every stream application, best trailing z.

    Application i starts at SFQ cycle i*cycle + d_i; the projected block
    is scored with the optimal trailing phase diag(1, e^{i*rho}).
    """
    slots = [i * cal.controller_cycle_sfq + d + s
             for i, d in enumerate(delays) for s in stream.pulse_slots]
    u = pulse_train_unitary(cal.spec, slots, len(delays) * cal.controller_cycle_sfq,
                            stream.tip_angle, stream.clock_period)
    a = np.sum(u[0, :2] * np.conj(v[0]))
    b = np.sum(u[1, :2] * np.conj(v[1]))
    trailing = np.eye(6, dtype=complex)
    trailing[1, 1] = np.exp(1j * (np.angle(a) - np.angle(b)))
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
            assert abs(_oracle_error(cal, ry_bitstream_hi, dec.steps, v) - dec.err) <= 1e-12


@pytest.mark.parametrize("other", [
    Bitstream(bits=(1, 0, 0, 0)),
    Bitstream(bits=(1, 0, 0), clock_period=50e-12),
], ids=["length", "clock_period"])
def test_calibrate_rejects_mismatched_streams(spec_hi, other):
    with pytest.raises(CalibrationError):
        calibrate_qubit(spec_hi, [Bitstream(bits=(1, 0, 0)), other])
