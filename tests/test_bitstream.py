import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfqctrl.transmon import TransmonSpec, projected_fidelity, ry
from sfqctrl.bitstream import (
    Bitstream,
    DelaySet,
    best_rz,
    delay_set,
    drift_tolerance,
    parking_scan,
    rz_grid_error,
    window_rule_slots,
    worst_rz_error,
)

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


@pytest.mark.parametrize("tip_angle", [np.nan, np.inf, -np.inf])
def test_bitstream_rejects_non_finite_tip_angle(tip_angle):
    with pytest.raises(ValueError):
        Bitstream(bits=(1, 0), tip_angle=tip_angle)


# --- delay_set -----------------------------------------------------------------

def test_delay_set_rational_lock():
    # f*tau = 0.25 exactly: only 4 distinct phases (up to float wrap at 2*pi)
    spec = TransmonSpec(nominal_freq=6.25e9, levels=6)
    ds = delay_set(spec, n_max=255)
    quadrant = np.round(ds.phases / (np.pi / 2)).astype(int) % 4
    assert set(quadrant) == {0, 1, 2, 3}
    assert np.allclose(ds.phases, quadrant * np.pi / 2, atol=1e-6) or np.allclose(
        np.mod(ds.phases - quadrant * np.pi / 2 + np.pi, 2 * np.pi) - np.pi, 0, atol=1e-6
    )


def test_delay_set_zero_delay_zero_phase():
    spec = TransmonSpec(nominal_freq=6.21286e9)
    assert delay_set(spec, 255).phase(0) == 0.0


def test_delay_set_frozen_coverage_gap():
    # brute-force oracle: enumerate all 256 phases, sort, max gap
    spec = TransmonSpec(nominal_freq=6.21286e9)
    ds = delay_set(spec, n_max=255)
    assert len(ds.phases) == 256
    assert np.isclose(ds.max_gap(), 0.03733720036941435, atol=1e-12)
    assert np.isclose(worst_rz_error(ds.phases), 5.8084418497848214e-05, rtol=1e-9)


def test_delay_set_equality_and_hash():
    # the phase table is derived, so equal fields mean equal sets
    a, b = DelaySet(6e9), DelaySet(6e9)
    assert a == b and hash(a) == hash(b)
    assert a != DelaySet(6e9, n_max=100)
    assert len({a, b, DelaySet(6.1e9)}) == 2


def test_delay_set_uses_actual_frequency():
    a = delay_set(TransmonSpec(nominal_freq=6.21286e9), 255)
    b = delay_set(TransmonSpec(nominal_freq=6.21286e9, drift=5e6), 255)
    assert not np.allclose(a.phases, b.phases)


@settings(max_examples=50, deadline=None)
@given(st.floats(3e9, 8e9), st.integers(0, 255))
def test_delay_phase_recomputable_exactly(freq, d):
    spec = TransmonSpec(nominal_freq=freq)
    ds = delay_set(spec, 255)
    assert ds.phase(d) == np.mod(2 * np.pi * freq * d * TAU, 2 * np.pi)


# --- best_rz -------------------------------------------------------------------

def test_best_rz_exact_table_phase():
    spec = TransmonSpec(nominal_freq=6.21286e9)
    ds = delay_set(spec, 255)
    d, err = best_rz(ds, ds.phase(17))
    assert err <= 1e-30
    assert np.isclose(ds.phase(d), ds.phase(17))


def test_best_rz_zero_phase():
    spec = TransmonSpec(nominal_freq=6.21286e9)
    d, err = best_rz(delay_set(spec, 255), 0.0)
    assert d == 0 and err == 0.0


def test_best_rz_uniform_grid_worst_case():
    # exactly uniform 256 phases: worst error is the analytic midpoint value
    phases = np.arange(256) * 2 * np.pi / 256
    w = worst_rz_error(phases)
    assert np.isclose(w, (2 / 3) * np.sin(np.pi / 512) ** 2, rtol=1e-12)
    assert w <= 0.251e-4  # the published "0.25e-4" is this value rounded


def test_rz_grid_error_form():
    # documented form: (2/3)*sin^2(delta/2), the d=2 average-fidelity error
    delta = 0.1
    e = rz_grid_error(delta)
    rep = projected_fidelity(np.diag([np.exp(-0.05j), np.exp(0.05j)]).astype(complex),
                             np.eye(2))
    assert np.isclose(e, rep.error, rtol=1e-9)


def test_small_grid_pigeonhole():
    # n_max=3: only 4 phases; some target is at least pi/4 from every phase
    spec = TransmonSpec(nominal_freq=6.25e9)  # exact 4-phase lock
    ds = delay_set(spec, n_max=3)
    w = worst_rz_error(ds.phases)
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


def test_parking_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        parking_scan(6e9, 5e9)


@pytest.mark.parametrize("scan", [
    lambda res: parking_scan(6.19e9, 6.24e9, resolution=res),
    lambda res: drift_tolerance(6.21286e9, resolution=res),
], ids=["parking_scan", "drift_tolerance"])
@pytest.mark.parametrize("resolution", [0.0, -0.1e6])
def test_scan_rejects_non_positive_resolution(scan, resolution):
    with pytest.raises(ValueError):
        scan(resolution)


# --- window rule + design -------------------------------------------------------

def test_window_rule_quarter_lock_counting():
    # f*tau = 1/4 exactly: pulses every 4th cycle; with dtheta = (pi/2)/63
    # the cap stops after 63 pulses
    slots = window_rule_slots(6.25e9, 253, w=0.1, tip_angle=(np.pi / 2) / 63)
    assert len(slots) == 63
    assert all(s % 4 == 0 for s in slots)
    assert slots[-1] == 62 * 4


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


def test_designed_bitstream_drift_sensitivity(ry_bitstream_hi, spec_hi):
    # replaying the shared bitstream on a drifted qubit yields a different
    # unitary: the premise of software calibration
    u0 = ry_bitstream_hi.simulate(spec_hi)
    for drift in (-6e6, 6e6):
        ud = ry_bitstream_hi.simulate(spec_hi.with_drift(drift))
        assert np.abs(u0 - ud).max() > 1e-3
        rep = projected_fidelity(ud, ry(np.pi / 2))
        assert rep.error > 1e-4  # beyond-tolerance drift degrades the gate
