"""Brute-force opt scan: the oracle for the pruned search at every pulse count.

Scores every delay tuple (d_1, ..., d_L) in [0, n_max]^L for L = 1, 2
and 3 with the same block arithmetic the engine uses (three pulses in
16-delta_1 slices) and a grid scorer of its own (``grid_errors``: every
offset tuple at every d_1, out-of-range delays then set to inf), nothing
pruned: this is the score-everything path the engine used before it
pruned every level and scored only the cells that exist.  Its own collector
takes the lowest error, then keeps every tuple within the margin of it or
tied with it at 14 decimals, ranked; each trailing phase is the optimal
trailing angle of the tuple's train, lowered by ``_lowered_block``.  The tests
compare ``_OptEngine.search`` at each L against it.  Run as a script for
the full-size comparison at the default n_max:

    PYTHONPATH=src python3 tests/opt_oracle.py --targets 25 --n-max 255

which draws seeded Haar targets at drifts -12, 0, +6 and +12 MHz on the
designed 6.21286 GHz stream, checks each at fold phases 0 and 0.9, and
prints, for each L, the number of checks whose ranked candidate list,
trailing phases or ``opt_level_errors`` differ.  The scan runs twice per
check (lowest error, then candidates), so it holds one slice of scores
at a time rather than all 67M three-pulse scores.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import accumulate

import numpy as np

from sfqctrl.calib1q import _lowered_block, _rank, opt_level_errors
from sfqctrl.transmon import phase_gate

DRIFTS = (-12e6, 0.0, 6e6, 12e6)
FOLDS = (0.0, 0.9)
MARGIN = 1e-4
LEVELS = (1, 2, 3)
RESIDUAL_TOL = 1e-12


def grid_errors(e_core, z, v):
    """Errors of (M, 2, 2) blocks at each lead phase of ``z`` (K,), as (M, K).

    1 - (|E|^2 + (|a0 + a1 z| + |b0 + b1 z|)^2) / 6 with the trailing z
    chosen freely, in the engine's elementwise arithmetic, so equal errors
    agree bit for bit.
    """
    norm2 = np.sum(np.abs(e_core) ** 2, axis=(1, 2)).real
    a0, a1, b0, b1 = (e_core.reshape(-1, 4) * np.conj(v).ravel()).T[..., None]
    a, b = a0 + a1 * z, b0 + b1 * z
    return 1.0 - (norm2[:, None] + (np.abs(a) + np.abs(b)) ** 2) / 6.0


def brute_force_chunks(eng, v, fold, n_pulses):
    """Yield (errs, ds): every delay tuple of ``n_pulses`` pulses, scored.

    One pulse is the single block P U6 P, two are the rows t2 = P U6
    K(cycle + delta) U6 over delta_1, built here by the engine's ``einsum``,
    three come in 16-delta_1 slices of t2 against K(cycle + delta_1) U6;
    each tuple is scored at every d_1.  ``ds`` holds d_1..d_L in the shape
    of ``errs``; tuples outside [0, n_max] score inf.
    """
    z = np.exp(-1j * (fold + eng.phi_d))
    t2 = np.einsum("ij,dj,jk->dik", eng.pu, eng.k_deltas, eng.u6, optimize=True)
    if n_pulses == 1:
        parts = [(eng.pu[None], [])]
    elif n_pulses == 2:
        parts = [(t2, [eng.deltas])]
    else:
        parts = ((np.einsum("eij,cjk->ecik", t2,
                            eng.k_deltas[lo:lo + 16, :, None] * eng.u6, optimize=True),
                  [eng.deltas, eng.deltas[lo:lo + 16]])
                 for lo in range(0, len(eng.deltas), 16))
    for rows, steps in parts:
        e_core = np.ascontiguousarray(rows[..., :2]).reshape(-1, 2, 2)
        errs = grid_errors(e_core, z, v).reshape(
            *(len(s) for s in steps), eng.n_max + 1)
        mesh = np.ix_(*steps, np.arange(eng.n_max + 1))  # (delta_{L-1}, ..., delta_1, d_1)
        ds = np.broadcast_arrays(errs, *accumulate(mesh[::-1]))[1:]
        valid = np.all([(d >= 0) & (d <= eng.n_max) for d in ds], axis=0)
        yield np.where(valid, errs, np.inf), ds


def block_residual(cal, v, fold, delays) -> float:
    """Trailing phase of a delay tuple from its lowered train, in the stated frame.

    With A the 2x2 block of the anchored train of the whole schedule,
    rho = angle(a) - angle(b) of A @ phase_gate(-fold) is the optimal
    trailing z, which ``Decomposition1Q`` calls the residual phase.
    """
    e = _lowered_block(cal, delays) @ phase_gate(-fold)
    a = e[0, 0] * np.conj(v[0, 0]) + e[0, 1] * np.conj(v[0, 1])
    b = e[1, 0] * np.conj(v[1, 0]) + e[1, 1] * np.conj(v[1, 1])
    return float(np.mod(np.angle(a) - np.angle(b), 2 * np.pi))


def brute_force_search(cal, v, fold, n_pulses, margin=MARGIN):
    """[(err, delays, residual_phase)] over all tuples, ranked by ``_rank``.

    The first scan finds the lowest error; the second keeps every tuple
    within ``margin`` of it or equal to it at 14 decimals.
    """
    eng = cal.opt_engine
    low = min(float(errs.min()) for errs, _ in brute_force_chunks(eng, v, fold, n_pulses))
    tie, kept = round(low, 14), []
    for errs, ds in brute_force_chunks(eng, v, fold, n_pulses):
        for i in map(tuple, np.argwhere(errs <= low + margin + 1e-12)):
            err = float(errs[i])
            if err <= low + margin or round(err, 14) == tie:
                kept.append((err, tuple(int(d[i]) for d in ds)))
    return sorted(((err, delays, block_residual(cal, v, fold, delays)) for err, delays in kept),
                  key=_rank)


def mismatches(cal, v, fold, margin=MARGIN, levels=LEVELS) -> list[str]:
    """What the pruned search and the brute-force scan disagree on, per pulse count.

    The ranked (err, delays) lists must be equal, and each trailing phase
    within ``RESIDUAL_TOL`` of the lowered train's.  ``levels`` are the pulse
    counts checked; each entry starts with the one it concerns, as "L2 ...".
    """
    eng = cal.opt_engine
    level_errs = opt_level_errors(cal, v, fold, lmax=max(levels))
    out = []
    for n_pulses in levels:
        got = eng.search(v, fold, n_pulses, margin)
        want = brute_force_search(cal, v, fold, n_pulses, margin)
        if [t[:2] for t in got] != [t[:2] for t in want]:
            out.append(f"L{n_pulses} candidates {len(got)} vs {len(want)}, "
                       f"best {got[0][:2]} vs {want[0][:2]}")
        else:
            dev = max(abs(np.angle(np.exp(1j * (g[2] - w[2])))) for g, w in zip(got, want))
            if dev > RESIDUAL_TOL:
                out.append(f"L{n_pulses} residual phase off by {dev:.3g} rad")
        if level_errs[n_pulses] != min(level_errs[n_pulses - 1], want[0][0]):
            out.append(f"L{n_pulses} level error {level_errs[n_pulses]!r} "
                       f"vs {min(level_errs[n_pulses - 1], want[0][0])!r}")
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
