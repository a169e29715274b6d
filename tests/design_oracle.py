"""Per-candidate greedy descent: the oracle for the batched bitstream designer.

``design`` is the descent ``design_bitstream`` ran before it scored each
pass as one batch: the same stage-1 window scan and golden-section
tip-angle refinement (``_window_scan``, ``_golden_tip_angle``), then
every flip and every move candidate built and scored on its own with
the scalar projected-fidelity formula (``np.trace`` and ``abs(...) ** 2``),
in the same visiting order, taking each candidate whose error is
strictly lower.  It returns (bits, tip angle, err) instead of raising,
so the tests compare ``design_bitstream`` against it in both outcomes.
Run as a script to compare the two on seeded Haar targets:

    PYTHONPATH=src python3 tests/design_oracle.py --targets 5

which designs each target at 6.21286 and 4.14238 GHz with the four
window centres of the min designer and prints every mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from opt_oracle import haar_su2
from sfqctrl.bitstream import (
    _ERR_TARGET,
    _POLISH_SWEEPS,
    BitstreamDesignError,
    _cycle_kicks,
    _golden_tip_angle,
    _move_blocks,
    _prefix_suffix,
    _window_scan,
    design_bitstream,
    gate_length_cycles,
)
from sfqctrl.transmon import checked_target

CENTRES = (0.0, np.pi / 2, np.pi, -np.pi / 2)


def scalar_error(block, target):
    """Projected gate error of one block, the scalar formula."""
    e = np.ascontiguousarray(block[:2, :2])
    fbar = float((np.trace(e @ e.conj().T).real + abs(np.trace(target.conj().T @ e)) ** 2) / 6)
    return 1.0 - fbar


def flip_block(pref, kick, suf_next, lit):
    """2x2 block of ``suf_next @ (kick if lit else 1) @ pref``: one cycle set or cleared."""
    rows = suf_next[:2] @ kick if lit else suf_next[:2]
    return rows @ pref[:, :2]


def design(spec, target, window_centres=(0.0,)):
    """(bits, tip angle, err) of the per-candidate descent."""
    target = checked_target(target)
    design_spec = spec.with_drift(0.0)
    n_cycles = gate_length_cycles(spec.nominal_freq)
    _, slots, dt = _window_scan(design_spec, target, window_centres, n_cycles)
    err, dt = _golden_tip_angle(design_spec, slots, n_cycles, dt * 0.92, dt * 1.08, target)
    bits = np.zeros(n_cycles, dtype=int)
    bits[np.asarray(slots, dtype=int)] = 1

    stop_at = 0.8 * _ERR_TARGET
    for _ in range(_POLISH_SWEEPS):
        improved = False
        kicks = _cycle_kicks(design_spec, n_cycles, dt)
        _, suf = _prefix_suffix(kicks, bits)
        pref, n_on = np.eye(design_spec.levels, dtype=complex), int(bits.sum())
        for i in range(n_cycles):
            if not (bits[i] and n_on == 1):
                e = scalar_error(flip_block(pref, kicks[i], suf[i + 1], not bits[i]), target)
                if e < err:
                    bits[i] ^= 1
                    n_on += 1 if bits[i] else -1
                    err, improved = e, True
            if bits[i]:
                pref = kicks[i] @ pref
        if err > stop_at:
            pref, suf = _prefix_suffix(kicks, bits)
            for i in np.flatnonzero(bits):
                if err <= stop_at:
                    break
                js = np.flatnonzero(bits == 0)
                for j, block in zip(js, _move_blocks(kicks, pref, suf, i, js)):
                    e = scalar_error(block, target)
                    if e < err:
                        bits[i], bits[j] = 0, 1
                        err, improved = e, True
                        pref, suf = _prefix_suffix(kicks, bits)
                        break
        err, dt = _golden_tip_angle(design_spec, np.flatnonzero(bits), n_cycles,
                                    dt * 0.98, dt * 1.02, target, iters=24)
        if err <= stop_at or not improved:
            break
    return tuple(int(b) for b in bits), float(dt), err


def mismatch(spec, target, window_centres=(0.0,)) -> str | None:
    """How ``design_bitstream`` and the oracle disagree, or None if they agree."""
    bits, tip, err = design(spec, target, window_centres)
    try:
        got = design_bitstream(spec, target, window_centres)
    except BitstreamDesignError as exc:
        if err <= _ERR_TARGET or f"{err:.3e}" not in str(exc):
            return f"raised {exc}, oracle err {err:.6e}"
        return None
    if err > _ERR_TARGET:
        return f"designed a stream, oracle err {err:.6e}"
    if (got.bits, got.tip_angle) != (bits, tip):
        return f"tip {got.tip_angle!r} vs {tip!r}, bits differ at " \
               f"{np.flatnonzero(np.array(got.bits) != bits).tolist()}"
    return None


def main(argv=None) -> int:
    from sfqctrl.transmon import TransmonSpec

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--targets", type=int, default=5, help="Haar targets per frequency")
    p.add_argument("--seed", type=int, default=2024)
    args = p.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    targets = [haar_su2(rng) for _ in range(args.targets)]
    bad = checked = 0
    t0 = time.perf_counter()
    for freq in (6.21286e9, 4.14238e9):
        spec = TransmonSpec(nominal_freq=freq)
        for k, v in enumerate(targets):
            checked += 1
            why = mismatch(spec, v, CENTRES)
            if why is not None:
                bad += 1
                print(f"{freq / 1e9:g} GHz haar{k}: {why}", flush=True)
    print(f"# {bad} of {checked} designs mismatched ({time.perf_counter() - t0:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
