"""Per-pattern and per-candidate bitstream design: the oracle for the batched designer.

``window_scan`` is the stage-1 scan as one loop over patterns: every
(window, tip scale) pattern, repeated slot sets included, is its own
``pulse_train_unitary`` train scored with ``projected_fidelity``, in the
visiting order of ``_window_scan``, keeping each pattern whose error is
strictly lower.  ``_window_scan`` walks every centre's patterns, in centre
order, as one ``pulse_train_stack`` and takes the first lowest error, so it
must give the same (slots, tip) and the same error bit for bit.  ``golden_tip_angle``
is the sequential golden-section tip refinement, one scalar train per
step.  ``design`` runs the scan, the refinement, then the descent
``design_bitstream`` ran before it scored each pass as one batch: every
flip and every move candidate built and scored on its own with the
scalar projected-fidelity formula (``np.trace`` and ``abs(...) ** 2``),
the move candidates from the full product ``move_blocks`` and the
prefixes and suffixes rebuilt whole by the per-cycle loop
``prefix_suffix`` after each move, in the same
visiting order, taking each candidate whose error is strictly lower.  It
returns (bits, tip angle, err) instead of raising, so the tests compare
``design_bitstream`` against it in both outcomes.  Run as a script to
compare the two on seeded Haar targets:

    PYTHONPATH=src python3 tests/design_oracle.py --targets 5

which designs each target at 6.21286 and 4.14238 GHz with the four
window centres of the min designer and prints every design mismatch,
every stage-1 scan whose (slots, tip) or error differs from
``_window_scan``'s and every golden-section refinement of the oracle's
designs whose (err, tip) differs from ``_golden_tip_angle``'s.
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
    SFQ_CLOCK_PERIOD,
    BitstreamDesignError,
    _cycle_kicks,
    _golden_tip_angle,
    _window_scan,
    design_bitstream,
    gate_length_cycles,
)
from sfqctrl.transmon import checked_target, projected_fidelity, pulse_train_unitary

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


def patterns(spec, centre, n_cycles):
    """Every stage-1 (slots, tip angle) pattern of one centre in visiting order, the
    patterns of a window whose slot set an earlier window gave included."""
    ph = np.mod(2.0 * np.pi * spec.nominal_freq * np.arange(n_cycles) * SFQ_CLOCK_PERIOD
                - centre + np.pi, 2.0 * np.pi) - np.pi  # qubit phase from centre, in [-pi, pi)
    for w in np.linspace(0.15, 1.25, 23):
        all_slots = np.flatnonzero(np.abs(ph) <= w)
        if len(all_slots) < 8:
            continue
        base = (np.pi / 2) / len(all_slots)
        for scale in np.linspace(0.85, 1.35, 11):
            dt = base * scale
            yield all_slots[:int(np.ceil((np.pi / 2) / dt))], dt


def window_scan(spec, target, window_centres, n_cycles):
    """(err, slots, tip angle) of the best window pattern, one train at a time."""
    best = (np.inf, None, None)  # err, slots, tip
    for centre in window_centres:
        for slots, dt in patterns(spec, centre, n_cycles):
            u = pulse_train_unitary(spec, slots, n_cycles, dt, SFQ_CLOCK_PERIOD)
            err = projected_fidelity(u, target).error
            if err < best[0]:
                best = (err, slots, dt)
    if best[1] is None:
        raise BitstreamDesignError("no pulse pattern found within the window scan")
    return best


def train_error(spec, slots, n_cycles, tip, target):
    """Projected error of one train, simulated on its own."""
    u = pulse_train_unitary(spec, slots, n_cycles, tip, SFQ_CLOCK_PERIOD)
    return projected_fidelity(u, target).error


def golden_tip_angle(spec, slots, n_cycles, lo, hi, target, iters=32):
    """(err, tip) of ``iters`` sequential golden-section steps, then the midpoint."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1 = train_error(spec, slots, n_cycles, x1, target)
    f2 = train_error(spec, slots, n_cycles, x2, target)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = train_error(spec, slots, n_cycles, x1, target)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = train_error(spec, slots, n_cycles, x2, target)
    x = 0.5 * (a + b)
    return train_error(spec, slots, n_cycles, x, target), x


def checked_golden(log):
    """``golden_tip_angle`` that also runs ``_golden_tip_angle`` and appends to ``log``
    one line per call, None where the two return the same (err, tip) bit for bit."""
    def golden(spec, slots, n_cycles, lo, hi, target, iters=32):
        want = golden_tip_angle(spec, slots, n_cycles, lo, hi, target, iters)
        got = _golden_tip_angle(spec, slots, n_cycles, lo, hi, target, iters)
        log.append(None if got == want else f"golden ({got[0]!r}, {got[1]!r}) "
                   f"vs ({want[0]!r}, {want[1]!r}), {iters} steps on [{lo!r}, {hi!r}]")
        return want
    return golden


def prefixes(kicks, bits, start, pref):
    """``_prefixes`` stepped through every cycle, a dark cycle copying the product before it."""
    out = [pref]
    for i in range(start, len(bits)):
        out.append(kicks[i] @ out[-1] if bits[i] else out[-1])
    return np.array(out)


def suffixes(kicks, bits, stop, suf):
    """``_suffixes`` stepped back through every cycle, a dark cycle copying the product after it."""
    out = [suf]
    for i in range(stop - 1, -1, -1):
        out.append(out[-1] @ kicks[i] if bits[i] else out[-1])
    return np.array(out[::-1])


def prefix_suffix(kicks, bits):
    """``_prefix_suffix`` from the per-cycle loops."""
    eye = np.eye(kicks.shape[1], dtype=complex)
    return prefixes(kicks, bits, 0, eye), suffixes(kicks, bits, len(bits), eye)


def move_blocks(kicks, pref, suf, i, js):
    """2x2 blocks of the trains that move the pulse at cycle i to each empty cycle in js,
    from the whole product of each train with j lit."""
    lit = suf[js + 1] @ kicks[js] @ pref[js]
    undo = kicks[i].conj().T
    x = pref[i].conj().T @ undo @ pref[i]
    w = suf[i + 1] @ undo @ suf[i + 1].conj().T
    return np.where((js > i)[:, None, None], lit[:, :2] @ x[:, :2], w[:2] @ lit[:, :, :2])


def scan_mismatch(spec, target, window_centres=(0.0,)) -> str | None:
    """How ``_window_scan`` and ``window_scan`` disagree on (slots, tip) or, bit for
    bit, on the stage-1 error, or None."""
    design_spec, n_cycles = spec.with_drift(0.0), gate_length_cycles(spec.nominal_freq)
    err, slots, tip = window_scan(design_spec, target, window_centres, n_cycles)
    got_err, got_slots, got_tip = _window_scan(design_spec, target, window_centres, n_cycles)
    if (list(got_slots), got_tip) != (list(slots), tip):
        return f"scan picked {len(got_slots)} slots at tip {got_tip!r}, " \
               f"oracle {len(slots)} slots at tip {tip!r}"
    if got_err.hex() != err.hex():
        return f"scan error {got_err.hex()}, oracle {err.hex()}"
    return None


def design(spec, target, window_centres=(0.0,), golden=golden_tip_angle):
    """(bits, tip angle, err) of the per-pattern scan and the per-candidate descent."""
    target = checked_target(target)
    design_spec = spec.with_drift(0.0)
    n_cycles = gate_length_cycles(spec.nominal_freq)
    _, slots, dt = window_scan(design_spec, target, window_centres, n_cycles)
    err, dt = golden(design_spec, slots, n_cycles, dt * 0.92, dt * 1.08, target)
    bits = np.zeros(n_cycles, dtype=int)
    bits[np.asarray(slots, dtype=int)] = 1

    stop_at = 0.8 * _ERR_TARGET
    for _ in range(_POLISH_SWEEPS):
        improved = False
        kicks = _cycle_kicks(design_spec, n_cycles, dt)
        _, suf = prefix_suffix(kicks, bits)
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
            pref, suf = prefix_suffix(kicks, bits)
            for i in np.flatnonzero(bits):
                if err <= stop_at:
                    break
                js = np.flatnonzero(bits == 0)
                for j, block in zip(js, move_blocks(kicks, pref, suf, i, js)):
                    e = scalar_error(block, target)
                    if e < err:
                        bits[i], bits[j] = 0, 1
                        err, improved = e, True
                        pref, suf = prefix_suffix(kicks, bits)
                        break
        err, dt = golden(design_spec, np.flatnonzero(bits), n_cycles,
                         dt * 0.98, dt * 1.02, target, iters=24)
        if err <= stop_at or not improved:
            break
    return tuple(int(b) for b in bits), float(dt), err


def mismatch(spec, target, window_centres=(0.0,), golden=golden_tip_angle) -> str | None:
    """How ``design_bitstream`` and the oracle disagree, or None if they agree."""
    bits, tip, err = design(spec, target, window_centres, golden)
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
    bad = bad_scans = bad_scan_errs = checked = 0
    goldens = []
    t0 = time.perf_counter()
    for freq in (6.21286e9, 4.14238e9):
        spec = TransmonSpec(nominal_freq=freq)
        for k, v in enumerate(targets):
            checked += 1
            scan_why = scan_mismatch(spec, v, CENTRES)
            if scan_why is not None:
                bad_scans += 1
                bad_scan_errs += scan_why.startswith("scan error")
                print(f"{freq / 1e9:g} GHz haar{k}: {scan_why}", flush=True)
            log = []
            why = mismatch(spec, v, CENTRES, checked_golden(log))
            if why is not None:
                bad += 1
                print(f"{freq / 1e9:g} GHz haar{k}: {why}", flush=True)
            for line in filter(None, log):
                print(f"{freq / 1e9:g} GHz haar{k}: {line}", flush=True)
            goldens += log
    bad_goldens = sum(line is not None for line in goldens)
    print(f"# {bad} of {checked} designs, {bad_scans} of {checked} stage-1 scans "
          f"({bad_scan_errs} on the error alone) and "
          f"{bad_goldens} of {len(goldens)} golden-section refinements mismatched "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if bad or bad_scans or bad_goldens else 0


if __name__ == "__main__":
    sys.exit(main())
