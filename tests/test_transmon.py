import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfqctrl.transmon import (
    TransmonSpec,
    annihilation,
    level_energies,
    phase_gate,
    projected_errors,
    projected_fidelity,
    pulse_train_stack,
    pulse_train_unitary,
    ry,
    rz,
    sfq_kick,
    unitarity_defect,
)

TWO_PI = 2 * np.pi


# --- TransmonSpec ------------------------------------------------------------

def test_actual_freq_includes_drift():
    spec = TransmonSpec(nominal_freq=5e9, drift=3e6)
    assert spec.actual_freq == 5.003e9


# --- free Hamiltonian (its diagonal, level_energies) --------------------------

def test_free_hamiltonian_two_level():
    assert np.allclose(level_energies(5e9, 250e6, 2), [0.0, TWO_PI * 5e9])


def test_free_hamiltonian_three_level_anharmonic():
    h = level_energies(5e9, 250e6, 3)
    assert np.isclose(h[2], TWO_PI * (2 * 5e9 - 0.25e9))


def test_free_hamiltonian_six_level_frozen():
    # expected values recomputed independently with 40-digit arithmetic
    expected = [
        0.0000000000e00,
        3.9036550668e10,
        7.6502305008e10,
        1.1239726302e11,
        1.4672142471e11,
        1.7947479007e11,
    ]
    assert np.allclose(level_energies(6.21286e9, 250e6, 6), expected, rtol=1e-10)


# --- sfq_kick ----------------------------------------------------------------

def test_kick_two_level_is_ry():
    spec = TransmonSpec(nominal_freq=5e9, levels=2)
    assert np.allclose(sfq_kick(spec, np.pi / 2), ry(np.pi / 2), atol=1e-12)


def test_kick_zero_angle_identity():
    spec = TransmonSpec(nominal_freq=5e9, levels=6)
    assert np.allclose(sfq_kick(spec, 0.0), np.eye(6), atol=1e-14)


def _expm_scaling_squaring(m, order=24, squarings=4):
    """Independent oracle: Taylor series at m/2^s, then square s times."""
    x = m / (2.0 ** squarings)
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def test_kick_matches_scaling_squaring_oracle():
    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    theta = 0.0249
    a = annihilation(6)
    oracle = _expm_scaling_squaring(0.5 * theta * (a.conj().T - a))
    assert np.abs(sfq_kick(spec, theta) - oracle).max() < 1e-12


def test_kick_inverse_composes_to_identity():
    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    u = sfq_kick(spec, 0.031) @ sfq_kick(spec, -0.031)
    assert np.abs(u - np.eye(6)).max() < 1e-10


# --- projected_fidelity ------------------------------------------------------

def test_fidelity_exact_match(haar_su2):
    rng = np.random.default_rng(7)
    u = haar_su2(rng)
    full = np.eye(6, dtype=complex)
    full[:2, :2] = u
    rep = projected_fidelity(full, u)
    assert np.isclose(rep.avg_gate_fidelity, 1.0, atol=1e-12)
    assert rep.error < 1e-12


def test_fidelity_full_leakage_case():
    # |1> -> |2> entirely: E = |0><0|, Fbar = (1+1)/6
    full = np.eye(3, dtype=complex)
    full[1, 1] = 0
    full[2, 2] = 0
    full[2, 1] = 1.0
    full[1, 2] = 1.0
    rep = projected_fidelity(full, np.eye(2))
    assert np.isclose(rep.avg_gate_fidelity, 1 / 3, atol=1e-12)


def test_fidelity_global_phase_invariant(haar_su2):
    rng = np.random.default_rng(11)
    u = haar_su2(rng)
    full = np.eye(2, dtype=complex) @ u
    rep = projected_fidelity(full, np.exp(1j * 1.234) * u)
    assert np.isclose(rep.avg_gate_fidelity, 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 6, 6), (3, 2, 2), (6, 6)])
def test_projected_errors_rejects_bad_target(shape):
    with pytest.raises(ValueError, match=rf"got shapes \(3, 3\) and \({shape[0]}, {shape[1]}"):
        projected_errors(np.zeros(shape, dtype=complex), np.eye(3))


@pytest.mark.parametrize("shape", [(6, 1), (1, 1), (4, 1, 6), (2,)])
def test_projected_errors_rejects_blocks_below_2x2(shape):
    for f in (projected_errors, projected_fidelity):
        with pytest.raises(ValueError,
                           match=re.escape(f"at least 2x2, got shapes (2, 2) and {shape}")):
            f(np.ones(shape, dtype=complex), np.eye(2))


@pytest.mark.parametrize("levels", [6, 2])
def test_projected_errors_equal_one_block_at_a_time(haar_su2, levels):
    # exact equality: the designer scores a pass's candidates as one stack and
    # must take the same one as scoring them one block at a time.  The formula
    # takes |Tr| by np.hypot: np.abs on a complex stack differs from the scalar
    # abs in the last bit on about a third of random blocks, hypot on none
    rng = np.random.default_rng(levels)
    v = haar_su2(rng)
    blocks = (rng.normal(size=(500, levels, levels))
              + 1j * rng.normal(size=(500, levels, levels))) / levels
    blocks[:8, :2, :2] = [np.exp(1j * a) * v for a in rng.uniform(0, 2 * np.pi, 8)]
    got = projected_errors(blocks, v)
    assert got.shape == (500,)
    assert (got == [projected_fidelity(b, v).error for b in blocks]).all()
    assert projected_errors(blocks[3], v) == projected_fidelity(blocks[3], v).error
    assert np.abs(got[:8]).max() < 1e-12
    # the scalar form (np.trace, abs(.) ** 2) agrees to one rounding of 1 - Fbar
    for b, e in zip(blocks, got):
        tr = np.trace(v.conj().T @ b[:2, :2])
        fbar = (np.trace(b[:2, :2] @ b[:2, :2].conj().T).real + abs(tr) ** 2) / 6
        assert abs(e - (1.0 - fbar)) <= np.spacing(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fidelity_bounds_random(haar_su2, seed):
    rng = np.random.default_rng(seed)
    u = haar_su2(rng)
    v = haar_su2(rng)
    full = np.eye(6, dtype=complex)
    full[:2, :2] = u
    rep = projected_fidelity(full, v)
    assert -1e-12 <= rep.avg_gate_fidelity <= 1.0 + 1e-12
    # equals 1 iff equal up to global phase
    ov = abs(np.trace(v.conj().T @ u)) / 2
    if rep.avg_gate_fidelity > 1 - 1e-12:
        assert ov > 1 - 1e-9


# --- pulse trains and unitarity property ------------------------------------

def test_pulse_train_empty_is_identity():
    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    u = pulse_train_unitary(spec, [], 253, 0.0249, 40e-12)
    assert np.abs(u - np.eye(6)).max() < 1e-9


def test_pulse_train_unitarity_many_random():
    rng = np.random.default_rng(3)
    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    for _ in range(200):
        n = int(rng.integers(10, 254))
        k = int(rng.integers(0, 40))
        slots = np.sort(rng.choice(n, size=min(k, n), replace=False))
        u = pulse_train_unitary(spec, slots, n, 0.03, 40e-12)
        assert unitarity_defect(u) < 1e-8


def _one_train(spec, slots, n, tip, clock_period):
    """One train, one pulse at a time, from a kick built with ``np.diag``."""
    energies = level_energies(spec.actual_freq, spec.anharmonicity, spec.levels)
    lam, v = np.linalg.eig(annihilation(spec.levels).conj().T - annihilation(spec.levels))
    kick = v @ np.diag(np.exp(0.5 * tip * lam)) @ np.linalg.inv(v)
    u, prev = np.eye(spec.levels, dtype=complex), 0
    for s in slots:
        if s > prev:
            u = (np.exp(-1j * energies * (s - prev) * clock_period)[:, None]) * u
        u = kick @ u
        prev = s
    return (np.exp(1j * energies * prev * clock_period)[:, None]) * u


def test_pulse_train_stack_equals_each_scalar_train_bit_for_bit():
    # an array of tip angles is one stack of trains; each slice is the scalar
    # call, and the scalar call is the per-pulse product of one kick
    rng = np.random.default_rng(11)
    for levels, freq in ((6, 6.21286e9), (6, 4.14238e9), (3, 5.1e9)):
        spec = TransmonSpec(nominal_freq=freq, levels=levels, drift=2.5e6)
        for _ in range(25):
            n = int(rng.integers(1, 301))
            slots = np.sort(rng.choice(n, size=int(rng.integers(0, min(n, 70) + 1)),
                                       replace=False))
            tips = rng.uniform(0.0, 0.2, int(rng.integers(1, 9)))
            stack = pulse_train_unitary(spec, slots, n, tips, 40e-12)
            assert stack.shape == (len(tips), levels, levels)
            for tip, got in zip(tips, stack):
                one = pulse_train_unitary(spec, slots, n, float(tip), 40e-12)
                assert one.shape == (levels, levels)
                assert (got == one).all()
                assert (one == _one_train(spec, slots, n, float(tip), 40e-12)).all()
            kicks = sfq_kick(spec, tips)
            assert all((k == sfq_kick(spec, float(t))).all() for t, k in zip(tips, kicks))
    # ragged stacks: own slot sets and pulse counts, empty and one-pulse trains
    # included, listed in no order of pulse count; the walk sorts them by count
    for levels, freq in ((6, 6.21286e9), (6, 4.14238e9), (3, 5.1e9)):
        spec = TransmonSpec(nominal_freq=freq, levels=levels, drift=-1.5e6)
        for _ in range(10):
            n = int(rng.integers(2, 301))
            sizes = [0, 1, *rng.integers(0, min(n, 70) + 1, 6), 1, 0]
            trains = [(np.sort(rng.choice(n, size=int(k), replace=False)),
                       float(rng.uniform(0.0, 0.2))) for k in rng.permutation(sizes)]
            trains.append(([0, 0, n - 1], 0.05))  # two kicks in one cycle
            assert sorted(map(len, (s for s, _ in trains))) != [len(s) for s, _ in trains]
            stack = pulse_train_stack(spec, trains, n, 40e-12)
            assert stack.shape == (len(trains), levels, levels)
            for (slots, tip), got in zip(trains, stack):
                assert (got == pulse_train_unitary(spec, slots, n, tip, 40e-12)).all()
                assert (got == _one_train(spec, slots, n, tip, 40e-12)).all()
    assert pulse_train_stack(spec, [], 10, 40e-12).shape == (0, levels, levels)


@pytest.mark.parametrize("tip", [np.nan, np.inf, -np.inf])
def test_non_finite_tip_angle_is_rejected(tip):
    # a NaN tip would otherwise give a NaN unitary
    spec = TransmonSpec(nominal_freq=6.21286e9)
    with pytest.raises(ValueError, match="tip_angle must be finite"):
        sfq_kick(spec, tip)
    with pytest.raises(ValueError, match="tip_angle must be finite"):
        sfq_kick(spec, [0.03, tip, 0.02])
    with pytest.raises(ValueError, match="tip_angle must be finite"):
        pulse_train_unitary(spec, [0, 5], 10, tip, 40e-12)
    with pytest.raises(ValueError, match="tip_angle must be finite"):
        pulse_train_unitary(spec, [0, 5], 10, np.array([0.03, tip]), 40e-12)
    with pytest.raises(ValueError, match="tip_angle must be finite"):
        pulse_train_stack(spec, [([0, 5], 0.03), ([1], tip), ([], 0.02)], 10, 40e-12)


@pytest.mark.parametrize("clock_period", [np.nan, np.inf, -np.inf, 0.0, -40e-12])
def test_bad_clock_period_is_rejected(clock_period):
    spec = TransmonSpec(nominal_freq=6.21286e9)
    with pytest.raises(ValueError, match="clock_period must be finite and > 0"):
        pulse_train_unitary(spec, [0, 5], 10, 0.03, clock_period)
    with pytest.raises(ValueError, match="clock_period must be finite and > 0"):
        pulse_train_stack(spec, [([0, 5], 0.03)], 10, clock_period)


@pytest.mark.parametrize("slots", [[1.5, 5], [0, 2.25], [np.nan], [0, np.inf], [[0, 1]],
                                   ["1"]])
def test_non_integer_slots_are_rejected(slots):
    # a fractional slot is no clock cycle: the walker does not round it
    spec = TransmonSpec(nominal_freq=6.21286e9)
    with pytest.raises(ValueError, match="pulse_slots of train 0 must be integers"):
        pulse_train_unitary(spec, slots, 10, 0.03, 40e-12)
    with pytest.raises(ValueError, match="pulse_slots of train 2 must be integers"):
        pulse_train_stack(spec, [([0, 5], 0.03), ([], 0.02), (slots, 0.03)], 10, 40e-12)


@pytest.mark.parametrize("slots", [[5, 2], [0, 3, 3, 1], [-1, 4], [0, 10], [12]])
def test_unsorted_or_outside_slots_are_rejected(slots):
    spec = TransmonSpec(nominal_freq=6.21286e9)
    with pytest.raises(ValueError, match=r"train 0 must be sorted and lie inside the "
                                         r"window \[0, 10\)"):
        pulse_train_unitary(spec, slots, 10, 0.03, 40e-12)
    with pytest.raises(ValueError, match="train 1 must be sorted and lie inside"):
        pulse_train_stack(spec, [([0, 9], 0.03), (slots, 0.03), ([1.0, 2.0], 0.03)], 10,
                          40e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(4e9, 7e9), st.floats(0.001, 0.2))
def test_kick_pair_identity_property(freq, theta):
    spec = TransmonSpec(nominal_freq=freq, levels=6)
    u = sfq_kick(spec, theta) @ sfq_kick(spec, -theta)
    assert np.abs(u - np.eye(6)).max() < 1e-10


def test_phase_gate_vs_rz():
    g = 0.7
    assert np.allclose(phase_gate(g), np.exp(0.5j * g) * rz(g))
