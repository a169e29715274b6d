"""Oracles for the min search: the per-first-half loop, the ball query and every pair.

``loop_mitm_depth`` is the search the min engine made at one depth before
it rescored a whole depth as one sorted batch: it builds its own
quaternions (``quaternions``) and KD-tree of one depth's second halves
from the engine's word products, then, for each first half in index
order, rescores the distinct second halves its ball query found and
keeps a first half's best only when it is strictly lower than the
running best.  Every word takes part, singular blocks included.
``loop_walk`` runs it depth after depth, each at the radius
``_ball_radius`` gives for the lowest error of the shallower depths.
The tests compare each depth that the engine's lazy walk
``_MinEngine._depths`` yields against it (the walk starts at depth 0, so
they skip its exhaustive depths), and the walk's running best against
that of a walk whose radius never shrinks (``fixed_radius_walk``).
``ball_pair_keys`` is ``_MinEngine._pair_keys`` from one
``query_ball_point`` list per first half on a tree of its own, q and -q
of every second half, and an explicit table of the word each tree point
belongs to: the pair set that the engine's canonical and band queries
must equal as a multiset of keys.  ``exhaustive_depth`` scores every
(first, second) pair of one depth, with no radius.  Run as a script for
the full comparison on the min equality set:

    PYTHONPATH=src python3 tests/min_oracle.py

which calibrates BS=2 groups from the frozen ``min_*`` streams at drifts
-12, -6, 0, +6 and +12 MHz, takes 50 seeded Haar targets and H, T, X, Y,
Z, S at each (280 gates), runs one walk per gate over the
meet-in-the-middle depths 13..28 at the default budget, compares every
depth it yields with the loop in (err, word, radius), and prints the
number of mismatched gates per depth; it also prints the number of gates
whose running best differs from the fixed-radius walk's after any depth,
compares the pair keys of every first-half length 6..14 at the unshrunk
radius with ``ball_pair_keys`` and prints the number of gates with a
multiset mismatch at any length.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.spatial import cKDTree

from opt_oracle import haar_su2
from sfqctrl import calib1q
from sfqctrl.calib1q import _ball_radius, _fixed_errors, _quat_mul, _su2_quaternions

GOLDEN_STREAMS = Path(__file__).resolve().parents[1] / "perfbench/fixtures/streams.json"
DRIFTS = (-12e6, -6e6, 0.0, 6e6, 12e6)
BUDGET = 1e-4  # decompose_min's default
RADIUS = _ball_radius(BUDGET, np.inf)  # 0.05: the radius before any best is known
NAMED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "T": np.diag([1, np.exp(0.25j * np.pi)]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "S": np.diag([1, 1j]),
}


def quaternions(blocks):
    """Unit quaternions of the SU(2) parts of (N, 2, 2) blocks, every row finite.

    Each block is divided by the square root of its determinant, or by 1
    where |det| <= 1e-6, and its quaternion by its norm, or by 1 where the
    norm is <= 1e-9 (the engine's guards, written out apart from it).
    """
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    e = blocks / np.sqrt(np.where(np.abs(det) > 1e-6, det, 1.0))[:, None, None]
    q = np.stack([0.5 * (e[:, 0, 0] + e[:, 1, 1]).real, -0.5 * (e[:, 0, 1] + e[:, 1, 0]).imag,
                  0.5 * (e[:, 1, 0] - e[:, 0, 1]).real, 0.5 * (e[:, 1, 1] - e[:, 0, 0]).imag],
                 axis=-1)
    norms = np.linalg.norm(q, axis=1)
    return q / np.where(norms > 1e-9, norms, 1.0)[:, None]


def loop_mitm_depth(eng, v, vq, depth, radius=RADIUS):
    """(err, word) of the best meet-in-the-middle pair at ``depth``, one first half a pass."""
    a = depth // 2
    b = depth - a
    first = eng._word_table(a).products
    cols = np.ascontiguousarray(first[:, :, :2])   # W1 @ P
    # wanted second half: W2 ~ V W1^{-1}; unit quaternion inverse = conj
    q1_inv = quaternions(first[:, :2, :2]) * np.array([1.0, -1.0, -1.0, -1.0])
    targets = _quat_mul(vq[None, :], q1_inv)
    second = eng._word_table(b).products
    q2 = quaternions(second[:, :2, :2])
    tree = cKDTree(np.concatenate([q2, -q2]))
    rows = np.ascontiguousarray(second[:, :2, :])  # P @ W2
    hits = tree.query_ball_point(targets, r=radius)
    best_err, best_word = np.inf, ()
    for qi, neigh in enumerate(hits):
        if not neigh:
            continue
        w2s = np.unique(np.asarray(neigh) % len(second))
        errs = _fixed_errors(rows[w2s] @ cols[qi], v)
        j = int(np.argmin(errs))
        if errs[j] < best_err:
            best_err = float(errs[j])
            best_word = eng.word_digits(int(qi), a) + eng.word_digits(int(w2s[j]), b)
    return best_err, best_word


def loop_walk(eng, v, depths, err_budget=BUDGET):
    """[(err, word, radius)] of ``loop_mitm_depth`` at each of ``depths``, past ``exh_cap``.

    The radius of depth d is ``_ball_radius(err_budget, b)``, b the lowest
    error of the depths below d.  The exhaustive depths are scored from
    every word of the engine's word tables, and the loop runs every deeper
    depth up to the last of ``depths``.
    """
    vq, best, out = target_quaternion(v), [], {}
    for depth in range(depths[-1] + 1):
        if depth <= eng.exh_cap:
            best.append(float(_fixed_errors(eng._word_table(depth).products[:, :2, :2],
                                            v).min()))
            continue
        radius = _ball_radius(err_budget, min(best))
        out[depth] = (*loop_mitm_depth(eng, v, vq, depth, radius), radius)
        best.append(out[depth][0])
    return [out[depth] for depth in depths]


def fixed_radius_walk(eng, v, last, err_budget=BUDGET):
    """Everything ``_MinEngine._depths`` yields up to ``last`` when its radius never shrinks."""
    with mock.patch.object(calib1q, "_ball_radius",
                           lambda budget, best: _ball_radius(budget, np.inf)):
        return list(eng._depths(v, err_budget, last))


def running_bests(walk):
    """The lowest (err, word) after each depth of a walk, the earlier kept on ties."""
    best, out = (np.inf, ()), []
    for err, word, *_ in walk:
        if err < best[0]:
            best = (err, word)
        out.append(best)
    return out


def exhaustive_depth(eng, v, depth, chunk=128):
    """(err, word) of the best of every (first, second) pair at ``depth``, no radius.

    First halves of a = depth // 2 cycles, second halves of the rest; each
    chunk of first halves is one ``rows @ cols`` product against all second
    halves, scored as 1 - (|E|^2 + |tr V^dag E|^2) / 6.  The lowest error
    wins, and among equal errors the lowest (first, second) index.
    """
    a, b = depth // 2, depth - depth // 2
    cols = eng._word_table(a).products[:, :, :2]  # W1 @ P, (n1, 6, 2)
    rows = eng._word_table(b).products[:, :2]  # P @ W2, (n2, 2, 6)
    n2 = len(rows)
    best = (np.inf, ())
    for lo in range(0, len(cols), chunk):
        c = cols[lo:lo + chunk]
        blocks = (rows.reshape(2 * n2, -1) @ c.transpose(1, 0, 2).reshape(c.shape[1], -1))
        blocks = blocks.reshape(n2, 2, len(c), 2).transpose(2, 0, 1, 3)  # [first, second]
        norm2 = np.sum(np.abs(blocks) ** 2, axis=(2, 3))
        errs = 1.0 - (norm2 + np.abs(np.einsum("ij,fsij->fs", v.conj(), blocks)) ** 2) / 6.0
        qi, w2 = np.unravel_index(np.argmin(errs), errs.shape)
        if errs[qi, w2] < best[0]:
            best = (float(errs[qi, w2]),
                    eng.word_digits(lo + int(qi), a) + eng.word_digits(int(w2), b))
    return best


def ball_pair_keys(eng, vq, a, radius=RADIUS):
    """``_MinEngine._pair_keys`` from one ``query_ball_point`` list per first half.

    The same [depth 2a's, depth 2a+1's] keys, first * n_second + second,
    in the order the lists give them, from a KD-tree of its own (not the
    engine's ``_tree``): q and -q of every second half, q from
    ``quaternions`` of the engine's word products.  Every word of length a
    is a first half.  The word of each tree point comes from an explicit
    owner table: the words of length a twice (q, then -q), then those of
    length a + 1 twice, unless a is the half cap.
    """
    lengths = range(a, min(a + 1, eng.half_cap) + 1)
    q2 = [quaternions(eng._word_table(n).products[:, :2, :2]) for n in lengths]
    tree = cKDTree(np.concatenate([x for q in q2 for x in (q, -q)]))
    owners = np.concatenate([np.arange(len(q)) for q in q2 for _ in (0, 1)])  # q, then -q
    q1_inv = q2[0] * np.array([1.0, -1.0, -1.0, -1.0])
    hits = tree.query_ball_point(_quat_mul(vq[None, :], q1_inv), r=radius, return_sorted=False)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    points = np.fromiter(chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum()))
    n_even = len(q2[0])
    firsts = np.repeat(np.arange(n_even), counts)
    odd = points >= 2 * n_even
    return [firsts[~odd] * n_even + owners[points[~odd]],
            firsts[odd] * (n_even * eng.n_sym) + owners[points[odd]]]


def pair_key_mismatches(eng, vq, a_range, radius=RADIUS):
    """The first-half lengths a whose ``_pair_keys`` shares differ from ``ball_pair_keys``'s
    as multisets of keys."""
    return [a for a in a_range
            if not all(np.array_equal(np.sort(got), np.sort(want)) for (got, _), want in
                       zip(eng._pair_keys(vq, a, radius), ball_pair_keys(eng, vq, a, radius),
                           strict=True))]


def target_quaternion(v):
    """The SU(2) quaternion whose balls ``_MinEngine._depths`` asks for target ``v``."""
    return _su2_quaternions(v[None])[0]


def leakage(block):
    """1 - |E|_F^2 / 2 of a projected 2x2 block: a lower bound on its error to any unitary."""
    return 1.0 - float(np.sum(np.abs(block) ** 2)) / 2.0


def min_streams():
    """The frozen BS=2 min streams (Ry(pi/2) and idle) at 6.21286 GHz."""
    from sfqctrl.bitstream import Bitstream

    entries = json.loads(GOLDEN_STREAMS.read_text())["streams"]
    return [Bitstream.from_string(entries[n]["bits"], entries[n]["clock_period"],
                                  entries[n]["tip_angle"])
            for n in ("min_ry_6212MHz", "min_idle_6212MHz")]


def main(argv=None) -> int:
    from sfqctrl.calib1q import calibrate_qubit
    from sfqctrl.transmon import TransmonSpec

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--targets", type=int, default=50, help="Haar targets per drift")
    p.add_argument("--seed", type=int, default=2024)
    args = p.parse_args(argv)

    spec = TransmonSpec(nominal_freq=6.21286e9, levels=6)
    streams = min_streams()
    rng = np.random.default_rng(args.seed)
    gates = [(f"haar{k}", haar_su2(rng)) for k in range(args.targets)] + list(NAMED.items())
    depths = range(13, 29)
    bad = dict.fromkeys(depths, 0)
    checked = bad_keys = bad_bests = 0
    t0 = time.perf_counter()
    for drift in DRIFTS:
        eng = calibrate_qubit(spec.with_drift(drift), streams, arch="min").min_engine
        for name, v in gates:
            vq = target_quaternion(v)
            checked += 1
            walk = list(eng._depths(v, BUDGET, depths[-1]))
            for depth, want in zip(depths, loop_walk(eng, v, depths), strict=True):
                if walk[depth][:3] != want:
                    bad[depth] += 1
                    print(f"drift {drift / 1e6:+.0f} MHz {name} depth {depth}: "
                          f"{walk[depth][:3]} vs {want}", flush=True)
            if running_bests(walk) != running_bests(fixed_radius_walk(eng, v, depths[-1])):
                bad_bests += 1
                print(f"drift {drift / 1e6:+.0f} MHz {name}: running best differs from the "
                      f"fixed-radius walk's", flush=True)
            lengths = pair_key_mismatches(eng, vq, range(depths[0] // 2, depths[-1] // 2 + 1))
            if lengths:
                bad_keys += 1
                print(f"drift {drift / 1e6:+.0f} MHz {name}: pair keys differ at first-half "
                      f"lengths {lengths}", flush=True)
        print(f"# drift {drift / 1e6:+.0f} MHz done: {checked} gates, "
              f"{time.perf_counter() - t0:.0f} s", flush=True)
    for depth, n_bad in bad.items():
        print(f"depth {depth}: {n_bad} of {checked} gates mismatched")
    print(f"running best: {bad_bests} of {checked} gates mismatched")
    print(f"pair keys: {bad_keys} of {checked} gates mismatched")
    return 1 if bad_keys or bad_bests or any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
