"""Brute-force opt scan: the oracle for the pruned search at every pulse count.

Scores every delay tuple (d_1, ..., d_L) in [0, n_max]^L for L = 1, 2
and 3 with the same block arithmetic and scorer the engine uses (three
pulses in 16-delta_1 slices), and feeds the scores to the same collector
without a floor, so nothing is pruned: this is the score-everything
path the engine used before it pruned every level.  The tests compare
``_OptEngine.search`` at each L against it.  Run as a script for the
full-size comparison at the default n_max:

    PYTHONPATH=src python3 tests/opt_oracle.py --targets 25 --n-max 255

which draws seeded Haar targets at drifts -12, 0, +6 and +12 MHz on the
designed 6.21286 GHz stream, checks each at fold phases 0 and 0.9, and
prints, for each L, the number of checks whose best error, sorted
candidate list or ``opt_level_errors`` differ.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import accumulate

import numpy as np

from sfqctrl.calib1q import _collect, _rank, _score_free_trailing, opt_level_errors

DRIFTS = (-12e6, 0.0, 6e6, 12e6)
FOLDS = (0.0, 0.9)
MARGIN = 1e-4
LEVELS = (1, 2, 3)


def brute_force_chunks(eng, v, fold, n_pulses):
    """Every delay tuple of ``n_pulses`` pulses, scored; tuples outside [0, n_max] score inf.

    One pulse is the single block P U6 P, two are the rows of ``t2_rows``
    over delta_1, three come in 16-delta_1 slices of ``t2_rows`` against
    K(cycle + delta_1) U6; each tuple is scored at every d_1.
    """
    z = np.exp(-1j * (fold + eng.phi_d))
    if n_pulses == 1:
        parts = [(eng.pu[None], [])]
    elif n_pulses == 2:
        parts = [(eng.t2_rows, [eng.deltas])]
    else:
        parts = ((np.einsum("eij,cjk->ecik", eng.t2_rows,
                            eng.k_deltas[lo:lo + 16, :, None] * eng.u6, optimize=True),
                  [eng.deltas, eng.deltas[lo:lo + 16]])
                 for lo in range(0, len(eng.deltas), 16))
    for rows, steps in parts:
        e_core = np.ascontiguousarray(rows[..., :2]).reshape(-1, 2, 2)
        errs = _score_free_trailing(e_core, z, v).reshape(
            *(len(s) for s in steps), eng.n_max + 1)
        mesh = np.ix_(*steps, np.arange(eng.n_max + 1))  # (delta_{L-1}, ..., delta_1, d_1)
        ds = np.broadcast_arrays(errs, *accumulate(mesh[::-1]))[1:]
        valid = np.all([(d >= 0) & (d <= eng.n_max) for d in ds], axis=0)
        yield np.where(valid, errs, np.inf), ds, -np.inf


def brute_force_search(eng, v, fold, n_pulses, margin=MARGIN):
    """(best err, its delays, every (err, delays) within ``margin``) over all tuples."""
    return _collect(brute_force_chunks(eng, v, fold, n_pulses), margin)


def mismatches(cal, v, fold, margin=MARGIN, levels=LEVELS) -> list[str]:
    """What the pruned search and the brute-force scan disagree on, per pulse count.

    ``levels`` are the pulse counts checked; each entry starts with the one
    it concerns, as "L2 ...".
    """
    eng = cal.opt_engine
    level_errs = opt_level_errors(cal, v, fold, lmax=max(levels))
    out = []
    for n_pulses in levels:
        err, delays, kept = eng.search(v, fold, n_pulses, margin)
        b_err, b_delays, b_kept = brute_force_search(eng, v, fold, n_pulses, margin)
        if (err, delays) != (b_err, b_delays):
            out.append(f"L{n_pulses} best {err!r} {delays} vs {b_err!r} {b_delays}")
        if sorted(kept, key=_rank) != sorted(b_kept, key=_rank):
            out.append(f"L{n_pulses} candidates {len(kept)} vs {len(b_kept)}")
        if level_errs[n_pulses] != min(level_errs[n_pulses - 1], b_err):
            out.append(f"L{n_pulses} level error {level_errs[n_pulses]!r} "
                       f"vs {min(level_errs[n_pulses - 1], b_err)!r}")
    return out


def haar_su2(rng):
    """Haar-random SU(2) matrix (the same draw as the tests' ``haar_su2`` fixture)."""
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    a, b, c, d = z
    return np.array([[a + 1j * b, -c + 1j * d], [c + 1j * d, a - 1j * b]])


def main(argv=None) -> int:
    from sfqctrl.bitstream import design_ry_bitstream
    from sfqctrl.calib1q import calibrate_qubit
    from sfqctrl.transmon import TransmonSpec

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--targets", type=int, default=200, help="Haar targets per drift")
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--seed", type=int, default=2024)
    args = p.parse_args(argv)

    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    stream = design_ry_bitstream(spec)
    rng = np.random.default_rng(args.seed)
    bad = dict.fromkeys(LEVELS, 0)
    checked = 0
    t0 = time.perf_counter()
    for drift in DRIFTS:
        cal = calibrate_qubit(spec.with_drift(drift), [stream], n_max=args.n_max)
        for k in range(args.targets):
            v = haar_su2(rng)
            for fold in FOLDS:
                diffs = mismatches(cal, v, fold)
                checked += 1
                for n_pulses in LEVELS:
                    bad[n_pulses] += any(d.startswith(f"L{n_pulses} ") for d in diffs)
                for d in diffs:
                    print(f"drift {drift / 1e6:+.0f} MHz target {k} fold {fold}: {d}",
                          flush=True)
        print(f"# drift {drift / 1e6:+.0f} MHz done: {checked} checked, "
              f"{time.perf_counter() - t0:.0f} s", flush=True)
    for n_pulses, n_bad in bad.items():
        print(f"L={n_pulses}: {n_bad} of {checked} checks mismatched")
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
