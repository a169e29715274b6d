"""One bad-input table over the public API.

``CASES`` lists every public callable of ``transmon``, ``bitstream`` and
``calib1q`` (every name in ``sfqctrl.__all__`` is one of them), each with
the bad-input classes that apply to its arguments: NaN and +-inf, a bool
where a number is wanted, a non-integer where an integer is, negative and
zero values below a bound, wrong shapes or a list where a tuple is wanted,
strings, and scan grids too large to allocate.  Every case must raise a
``ValueError`` that names the argument.  Callables that take no input of
their own to check sit in ``NOT_IN_TABLE`` with the reason, and
``test_table_covers_every_public_callable`` fails when a public callable is
in neither.

Scalars follow the rules of ``checked_finite`` and ``checked_int``: a real
is a non-bool ``numbers.Real`` and an integer a non-bool
``numbers.Integral``, so a bool, a string or a 0-d array is neither.
``projected_errors`` runs inside the designer's passes and checks types
and shapes only; ``projected_fidelity`` is its checked entry point.  No
rejected call may leave a result in a min calibration's cache.
"""

import inspect
import re

import numpy as np
import pytest

import sfqctrl
from sfqctrl import bitstream, calib1q, transmon
from sfqctrl.bitstream import (Bitstream, BitstreamDesignError, design_bitstream,
                               design_ry_bitstream, drift_tolerance, gate_length_cycles,
                               parking_scan, rz_grid_error, worst_rz_error)
from sfqctrl.calib1q import (CalibrationError, Decomposition1Q, QubitCalibration,
                             calibrate_qubit, decompose_min, decompose_opt,
                             design_min_bitstreams, min_basis_targets, opt_level_errors,
                             recompose_error)
from sfqctrl.transmon import (FidelityReport, TransmonSpec, annihilation, checked_finite,
                              checked_int, checked_target, level_energies, phase_gate,
                              projected_errors, projected_fidelity, pulse_train_stack,
                              pulse_train_unitary, ry, rz, sfq_kick, unitarity_defect)

SPEC = TransmonSpec(nominal_freq=6.21286e9)
STREAM = Bitstream(bits=(1, 0, 0), tip_angle=0.03)
# three-cycle streams: every case fails before any search, so no designed stream is needed
OPT = calibrate_qubit(SPEC, [STREAM])
MIN = calibrate_qubit(SPEC, [STREAM, Bitstream(bits=(0, 0, 0))], arch="min")
MIN4 = calibrate_qubit(SPEC, [STREAM] * 3 + [Bitstream(bits=(0, 0, 0))], arch="min")
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

NOT_REAL = [True, "0.5", np.array(0.5)]  # a bool, a string, a 0-d array
BAD_REAL = [np.nan, np.inf, -np.inf, *NOT_REAL]
BAD_INT = [True, 2.5, 3.0, "3", np.nan, np.array(3)]
BAD_TARGET = [2 * np.eye(2), np.full((2, 2), np.nan), np.array([[1, np.inf], [0, 1]]),
              np.eye(3), np.eye(2)[0], [["1", "0"], ["0", "1"]], np.eye(2, dtype=bool)]
BAD_TIPS = [np.nan, np.inf, [0.03, np.nan], True, "0.03", ["0.03", "0.02"], 0.03j,
            [0.03, True], [[0.03], [np.True_]]]  # np.asarray takes a bool among floats as 1.0

# (callable, argument the message names, call with the bad value, bad values)
CASES = [
    (TransmonSpec, "nominal_freq", lambda x: TransmonSpec(nominal_freq=x),
     [*BAD_REAL, 0.0, -5e9]),
    (TransmonSpec, "anharmonicity", lambda x: TransmonSpec(6e9, anharmonicity=x),
     [*BAD_REAL, 0.0, -1.0]),
    (TransmonSpec, "levels", lambda x: TransmonSpec(6e9, levels=x), [*BAD_INT, 1, 0, -2]),
    (TransmonSpec, "drift", lambda x: TransmonSpec(6e9, drift=x), [*BAD_REAL, 6e9, -7e9]),
    (annihilation, "levels", annihilation, [*BAD_INT, 0, -1]),
    (level_energies, "freq", lambda x: level_energies(x, 250e6, 6), BAD_REAL),
    (level_energies, "anharmonicity", lambda x: level_energies(6e9, x, 6), BAD_REAL),
    (level_energies, "levels", lambda x: level_energies(6e9, 250e6, x), [*BAD_INT, 0]),
    (sfq_kick, "tip_angle", lambda x: sfq_kick(SPEC, x), BAD_TIPS),
    (checked_finite, "value", lambda x: checked_finite("value", x), BAD_REAL),
    (checked_finite, "value", lambda x: checked_finite("value", x, ">= 0"), [-1.0, -1]),
    (checked_finite, "value", lambda x: checked_finite("value", x, "> 0"), [0.0, 0, -1e-300]),
    (checked_int, "value", lambda x: checked_int("value", x, 0, 5), [*BAD_INT, -1, 6]),
    (checked_target, "target", checked_target, BAD_TARGET),
    (pulse_train_stack, "n_cycles", lambda x: pulse_train_stack(SPEC, [], x, 40e-12),
     [*BAD_INT, -1]),
    (pulse_train_stack, "clock_period",
     lambda x: pulse_train_stack(SPEC, [([0, 5], 0.03)], 10, x), [*BAD_REAL, 0.0, -4e-11]),
    (pulse_train_stack, "tip_angle",
     lambda x: pulse_train_stack(SPEC, [([1], x)], 10, 40e-12), [np.nan, True, "0.03", 1j]),
    (pulse_train_stack, "tip_angle",
     lambda x: pulse_train_stack(SPEC, [([0], 0.03), ([1], x)], 10, 40e-12), [True, np.True_]),
    (pulse_train_stack, "pulse_slots",
     lambda x: pulse_train_stack(SPEC, [(x, 0.03)], 10, 40e-12),
     [[1.5], [np.nan], ["1"], [[0, 1]], [5, 2], [-1], [10]]),
    (pulse_train_unitary, "n_cycles", lambda x: pulse_train_unitary(SPEC, [], x, 0.1, 40e-12),
     [*BAD_INT, -1]),
    (pulse_train_unitary, "clock_period",
     lambda x: pulse_train_unitary(SPEC, [0, 5], 10, 0.03, x), [*BAD_REAL, 0.0, -4e-11]),
    (pulse_train_unitary, "tip_angle",
     lambda x: pulse_train_unitary(SPEC, [0, 5], 10, x, 40e-12), BAD_TIPS),
    (pulse_train_unitary, "pulse_slots",
     lambda x: pulse_train_unitary(SPEC, x, 10, 0.03, 40e-12), [[1.5], ["1"], [5, 2], [10]]),
    (projected_errors, "blocks", lambda x: projected_errors(x, np.eye(2)),
     [np.ones((6, 1)), np.ones(2), np.ones(()), np.eye(6).tolist()]),
    (projected_errors, "target", lambda x: projected_errors(np.eye(6), x),
     [np.eye(3), np.ones((2, 2, 2)), [[1, 0], [0, 1]], ((1, 0), (0, 1))]),
    (unitarity_defect, "u", unitarity_defect,
     [np.full((2, 2), np.nan), np.diag([1.0, np.inf]), np.ones(3), np.ones((2, 3)), np.ones(()),
      np.eye(2, dtype=bool), [["1", "0"], ["0", "1"]]]),
    (projected_fidelity, "actual", lambda x: projected_fidelity(x, np.eye(2)),
     [np.full((6, 6), np.nan), np.diag([np.inf, 1.0]), np.diag([1, 1, 1, np.nan]),
      np.eye(6).tolist(), np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]]),
      np.ones((2, 2, 2)), np.ones((3, 6, 6)), np.ones((1, 2, 2))]),
    (projected_fidelity, "target", lambda x: projected_fidelity(np.eye(6), x), BAD_TARGET),
    (ry, "theta", ry, BAD_REAL),
    (rz, "theta", rz, BAD_REAL),
    (phase_gate, "gamma", phase_gate, BAD_REAL),
    (Bitstream, "s", Bitstream.from_string,
     ["10x", "1 0", "1.0", "12", 101, b"10", None, "", " \n"]),
    (Bitstream, "bits", lambda x: Bitstream(bits=x),
     [[1, 0], (1.0, 0), (True, 0), (np.int64(1), 0), (2, 0), ("1", 0), (), (0,) * 301]),
    (Bitstream, "tip_angle", lambda x: Bitstream((1, 0), tip_angle=x), BAD_REAL),
    (Bitstream, "clock_period", lambda x: Bitstream((1, 0), clock_period=x),
     [*BAD_REAL, 0.0, -4e-11]),
    (parking_scan, "f_lo", lambda x: parking_scan(x, 6.24e9), [*BAD_REAL, 6.24e9, 6.3e9]),
    (parking_scan, "f_hi", lambda x: parking_scan(6.19e9, x), BAD_REAL),
    (parking_scan, "resolution", lambda x: parking_scan(6.19e9, 6.24e9, resolution=x),
     [*BAD_REAL, 0.0, -1e5, 1.0]),  # 1 Hz: 5e7 frequencies
    (parking_scan, "resolution", lambda x: parking_scan(4e9, 8e9, resolution=x),
     [10e3]),  # 400,001 frequencies
    (parking_scan, "resolution", lambda x: parking_scan(1e9, x), [20e9]),  # 190,001 at 0.1 MHz
    (drift_tolerance, "freq", drift_tolerance, BAD_REAL),
    (drift_tolerance, "resolution", lambda x: drift_tolerance(6e9, resolution=x),
     [*BAD_REAL, 0.0, -1e5, 1.0]),  # 1 Hz: 8e7 frequencies, 153 GiB of phases
    (gate_length_cycles, "nominal_freq", gate_length_cycles, BAD_REAL),
    (design_bitstream, "target", lambda x: design_bitstream(SPEC, x), BAD_TARGET),
    (design_bitstream, "window_centres", lambda x: design_bitstream(SPEC, H, x),
     [(), [], (np.nan,), (0.0, np.inf), ("0.5",), (True,), 0.0, [[0.0, 1.0]]]),
    (calibrate_qubit, "qubit_id", lambda x: calibrate_qubit(SPEC, [STREAM], qubit_id=x),
     [*BAD_INT, "a", -1]),
    (calibrate_qubit, "n_max", lambda x: calibrate_qubit(SPEC, [STREAM], n_max=x),
     [*BAD_INT, 0, -1]),
    (calibrate_qubit, "arch", lambda x: calibrate_qubit(SPEC, [STREAM], arch=x),
     ["mid", "OPT", None]),
    (calibrate_qubit, "shared_bitstreams", lambda x: calibrate_qubit(SPEC, x),
     [STREAM, "101", [STREAM, "x"], [STREAM.bits], None]),
    (calibrate_qubit, "shared_bitstreams",  # a generator of streams
     lambda x: calibrate_qubit(SPEC, (bs for bs in x)), [[STREAM]]),
    (min_basis_targets, "cycle_phase", lambda x: min_basis_targets(x, 2), BAD_REAL),
    (min_basis_targets, "bs", lambda x: min_basis_targets(0.0, x), [*BAD_INT, 1, 5]),
    (design_min_bitstreams, "bs", lambda x: design_min_bitstreams(SPEC, x), [*BAD_INT, 1, 5]),
    (opt_level_errors, "target", lambda x: opt_level_errors(OPT, x), BAD_TARGET),
    (opt_level_errors, "fold_phase", lambda x: opt_level_errors(OPT, H, x), BAD_REAL),
    (opt_level_errors, "lmax", lambda x: opt_level_errors(OPT, H, lmax=x), [*BAD_INT, -1, 4]),
    (decompose_opt, "target", lambda x: decompose_opt(OPT, x), BAD_TARGET),
    (decompose_opt, "err_budget", lambda x: decompose_opt(OPT, H, err_budget=x),
     [*BAD_REAL, -1e-4]),
    (decompose_opt, "margin", lambda x: decompose_opt(OPT, H, margin=x), [*BAD_REAL, -1e-4]),
    (decompose_opt, "fold_phase", lambda x: decompose_opt(OPT, H, fold_phase=x), BAD_REAL),
    (decompose_opt, "max_candidates", lambda x: decompose_opt(OPT, H, max_candidates=x),
     [*BAD_INT, 0]),
    (decompose_min, "target", lambda x: decompose_min(MIN, x), BAD_TARGET),
    (decompose_min, "err_budget", lambda x: decompose_min(MIN, H, err_budget=x),
     [*BAD_REAL, -1e-4]),
    (decompose_min, "fold_phase", lambda x: decompose_min(MIN, H, fold_phase=x), BAD_REAL),
    (decompose_min, "max_depth", lambda x: decompose_min(MIN, H, max_depth=x),
     [*BAD_INT, -1, 29]),
    (decompose_min, "max_depth", lambda x: decompose_min(MIN4, H, max_depth=x), [15]),
    (recompose_error, "target",
     lambda x: recompose_error(OPT, Decomposition1Q("opt", (), 0.0, 0.0), x), BAD_TARGET),
    (recompose_error, "fold_phase",
     lambda x: recompose_error(OPT, Decomposition1Q("opt", (), 0.0, 0.0), H, x), BAD_REAL),
    (recompose_error, "dec", lambda x: recompose_error(OPT, Decomposition1Q(*x, 0.0, 0.0), H),
     [("foo", ()), ("min", (0,)), ("opt", (-1,)), ("opt", (3, -4)), ("opt", (256,)),
      ("opt", (2.0,)), ("opt", (True,)), ("opt", ("3",))]),
    (recompose_error, "dec", lambda x: recompose_error(MIN, Decomposition1Q(*x, 0.0, 0.0), H),
     [("min", (2,)), ("min", (0, -1)), ("min", (1.0,)), ("min", (True,))]),
    (recompose_error, "target",
     lambda x: recompose_error(MIN, Decomposition1Q("min", (), 0.0, 0.0), x), BAD_TARGET),
    (recompose_error, "fold_phase",
     lambda x: recompose_error(MIN, Decomposition1Q("min", (), 0.0, 0.0), H, x), BAD_REAL),
    (recompose_error, "dec.residual_phase",
     lambda x: recompose_error(OPT, Decomposition1Q("opt", (3,), x, 0.0), H), BAD_REAL),
    (recompose_error, "dec.residual_phase",
     lambda x: recompose_error(MIN, Decomposition1Q("min", (0, 1), x, 0.0), H), BAD_REAL),
]

NOT_IN_TABLE = {
    FidelityReport: "a result record that projected_fidelity builds",
    Decomposition1Q: "a result record; recompose_error checks one handed back to it",
    QubitCalibration: "a result record that calibrate_qubit builds from checked input",
    BitstreamDesignError: "an exception",
    CalibrationError: "an exception",
    design_ry_bitstream: "its one argument is a TransmonSpec, which checks itself",
    rz_grid_error: "elementwise over an array, like the numpy functions it calls",
    worst_rz_error: "rowwise over an array of grids that the scans build themselves",
}


def _label(value) -> str:
    if isinstance(value, np.ndarray):
        return f"array{list(value.shape)}-{value.dtype}"
    if isinstance(value, tuple) and len(value) > 4:
        return f"tuple-of-{len(value)}"
    return repr(value)


def _public_callables() -> set:
    found = {getattr(sfqctrl, name) for name in sfqctrl.__all__}
    for module in (transmon, bitstream, calib1q):
        found |= {obj for name, obj in inspect.getmembers(module, callable)
                  if not name.startswith("_") and obj.__module__ == module.__name__}
    return found


@pytest.mark.parametrize("arg, call, value", [
    pytest.param(arg, call, value, id=f"{fn.__name__}-{arg}-{_label(value)}")
    for fn, arg, call, values in CASES for value in values])
def test_bad_input_raises_value_error_naming_the_argument(arg, call, value):
    with pytest.raises(ValueError, match=rf"\b{re.escape(arg)}\b"):
        call(value)
    assert not (MIN.min_engine._results or MIN4.min_engine._results)


def test_table_covers_every_public_callable():
    in_table = {fn for fn, *_ in CASES}
    assert not in_table & NOT_IN_TABLE.keys()
    assert in_table | NOT_IN_TABLE.keys() == _public_callables()
