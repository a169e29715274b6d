"""The benchmark's three workloads and their correctness checks.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returned.  Calls come in *jobs*: both parking
points for ``design``, one gate for ``opt_haar``, one circuit for
``min_circuit``.  Inputs are a pure function of the seed (``opt_haar``
also screens them with the program, untimed), so a run that gets further
simply consumes more of the same sequence.

Only the public API of ``sfqctrl.transmon``, ``sfqctrl.bitstream`` and
``sfqctrl.calib1q`` is called.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

import refsim

PROGRAM_MODULES = ("sfqctrl.transmon", "sfqctrl.bitstream", "sfqctrl.calib1q")
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "streams.json"

PARKING = {"6212MHz": 6.21286e9, "4142MHz": 4.14238e9}
GROUP_FREQ = PARKING["6212MHz"]
DRIFTS_MHZ = (-12.0, -6.0, 0.0, 6.0, 12.0)
ERR_BUDGET = 1e-4       # gate and stream error budget
DEV_TOL = 1e-9          # |recompose_error - err| allowed for a returned result
MIN_REPEATS = 12        # named gates per qubit after its first six, per circuit
MIN_HAAR = 1            # unique Haar targets per qubit, per circuit
MIN_MAX_DEPTH = 28      # decompose_min's default max_depth


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) from a uniformly random unit quaternion."""
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    a, b, c, d = z
    return np.array([[a + 1j * b, -c + 1j * d], [c + 1j * d, a - 1j * b]])


NAMED_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(0.25j * np.pi)]),
    "RY90": refsim.ry(np.pi / 2),
    "RZ90": refsim.rz(np.pi / 2),
}


def import_program() -> dict:
    """Fresh import of the program's modules (previous imports dropped)."""
    for name in [n for n in sys.modules if n == "sfqctrl" or n.startswith("sfqctrl.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in PROGRAM_MODULES}


# --- frozen streams ---------------------------------------------------------------

@dataclass
class Fixtures:
    specs: dict                 # name -> fixture entry from streams.json
    streams: dict               # name -> sfqctrl Bitstream
    ref_err: dict               # name -> reference-simulator error
    ok: bool


def stream_target(mods: dict, entry: dict) -> np.ndarray:
    kind = entry["target"]
    if kind == "ry90":
        return refsim.ry(np.pi / 2)
    if kind == "identity":
        return np.eye(2, dtype=complex)
    if kind == "min_basis_0":
        n = len(entry["bits"])
        phase = float(np.mod(2 * np.pi * entry["nominal_freq"] * n * entry["clock_period"],
                             2 * np.pi))
        return mods["sfqctrl.calib1q"].min_basis_targets(phase, 2)[0]
    raise ValueError(f"unknown stream target {kind!r}")


def ref_error(mods: dict, entry: dict, bits: str, tip_angle: float) -> float:
    u = refsim.stream_unitary(bits, entry["nominal_freq"], tip_angle, entry["clock_period"])
    return refsim.projected_error(u, stream_target(mods, entry))


def load_fixtures(mods: dict, path: Path = FIXTURES) -> Fixtures:
    """Load the frozen streams and verify each with the reference simulator."""
    specs = json.loads(path.read_text())["streams"]
    bs_cls = mods["sfqctrl.bitstream"].Bitstream
    streams, errs = {}, {}
    for name, e in specs.items():
        streams[name] = bs_cls.from_string(e["bits"], e["clock_period"], e["tip_angle"])
        errs[name] = ref_error(mods, e, e["bits"], e["tip_angle"])
    return Fixtures(specs, streams, errs, all(v <= ERR_BUDGET for v in errs.values()))


# --- one operation ------------------------------------------------------------------

@dataclass
class OpRecord:
    kind: str                        # "design", "opt" or "min"
    label: str                       # parking point, named gate or "haar"
    qubit: int | None
    latency_s: float                 # the program call only, wall seconds
    start: float = 0.0               # perf_counter() when the call began
    error: str | None = None         # exception type, or "check:<reason>"
    message: str = ""
    within_budget: bool = False
    info: dict = field(default_factory=dict)


def timed(tracer, span_name, fn, *args):
    """(start, latency, result, exception) of one program call, never raising."""
    t0 = time.perf_counter()
    try:
        out = tracer.span(span_name, fn, *args) if tracer else fn(*args)
    except Exception as exc:  # every failure is counted by type, never dropped
        return t0, time.perf_counter() - t0, None, exc
    return t0, time.perf_counter() - t0, out, None


def _fail(rec: OpRecord, exc: BaseException, prefix: str = "") -> OpRecord:
    rec.error = prefix + type(exc).__name__
    rec.message = str(exc).splitlines()[0][:200] if str(exc) else ""
    return rec


# --- workloads --------------------------------------------------------------------

class Workload:
    name = ""

    def jobs(self, seed: int, state):
        """Endless sequence of jobs, each a list of operations."""
        raise NotImplementedError

    def start_job(self, state) -> None:
        """Called before each job, outside the timed calls."""


class Design(Workload):
    """Shared Ry(pi/2) stream design for both DigiQ parking points."""

    name = "design"

    def setup(self, mods, fx: Fixtures) -> dict:
        return {"mods": mods, "fx": fx}

    def jobs(self, seed: int, state):
        rng = np.random.default_rng(seed)
        labels = list(PARKING)
        while True:
            yield [labels[i] for i in rng.permutation(len(labels))]

    def run_op(self, state, label, tracer=None) -> OpRecord:
        mods, fx = state["mods"], state["fx"]
        spec = mods["sfqctrl.transmon"].TransmonSpec(nominal_freq=PARKING[label], levels=6)
        design = mods["sfqctrl.bitstream"].design_ry_bitstream
        t0, dt, bs, exc = timed(tracer, f"op.{label}", design, spec)
        rec = OpRecord("design", label, None, dt, t0)
        if exc is not None:
            return _fail(rec, exc)
        gold = fx.specs[f"ry_{label}"]
        try:
            bits = bs.to_string()
            err = ref_error(mods, gold, bits, bs.tip_angle)
        except Exception as exc:
            return _fail(rec, exc, "check:")
        rec.info = {"err": err, "n_pulses": bits.count("1"),
                    "golden_match": bits == gold["bits"] and bs.tip_angle == gold["tip_angle"]}
        rec.within_budget = bool(err <= ERR_BUDGET)
        if not rec.within_budget:
            rec.error = "check:stream_error"
            rec.message = f"reference error {err:.3e} > {ERR_BUDGET:.0e}"
        return rec


class _Group(Workload):
    """A drifted 6.21286 GHz qubit group calibrated from frozen streams."""

    arch = ""
    stream_names: tuple = ()

    def setup(self, mods, fx: Fixtures) -> dict:
        streams = [fx.streams[n] for n in self.stream_names]
        return {"mods": mods, "streams": streams, **self.calibrate(mods, streams)}

    def calibrate(self, mods, streams) -> dict:
        calib = mods["sfqctrl.calib1q"]
        spec = mods["sfqctrl.transmon"].TransmonSpec
        cals = [calib.calibrate_qubit(spec(nominal_freq=GROUP_FREQ, drift=d * 1e6),
                                      streams, qubit_id=q, arch=self.arch)
                for q, d in enumerate(DRIFTS_MHZ)]
        return {"cals": cals, "called": set(), "returned": {}}

    def _check(self, state, rec, target, results) -> OpRecord:
        """Every returned decomposition must recompose to its own err."""
        recompose = state["mods"]["sfqctrl.calib1q"].recompose_error
        cal = state["cals"][rec.qubit]
        try:
            errs = [recompose(cal, d, target) for d in results]
        except Exception as exc:
            return _fail(rec, exc, "check:")
        dev = max((abs(e - d.err) for e, d in zip(errs, results)), default=0.0)
        best = results[0] if results else None
        rec.info.update(dev=dev, depth=best.depth if best else None,
                        flagged=bool(best.flagged) if best else None)
        ok = bool(results) and dev <= DEV_TOL
        rec.within_budget = bool(ok and not best.flagged and errs[0] <= ERR_BUDGET)
        if not ok:
            rec.error = "check:recompose"
            rec.message = f"|recompose_error - err| = {dev:.3e}" if results else "no result"
        return rec


class OptHaar(_Group):
    """Unique seeded Haar targets through decompose_opt (cache never hits).

    Every target needs the L=3 search: a Haar draw is kept only if no
    schedule of at most two pulses meets the budget on its qubit.  About
    10 ms L<=2 gates would otherwise mix with multi-second L=3 gates, and
    the median of a run's few gates would depend on that mix.
    """

    name = "opt_haar"
    arch = "opt"
    stream_names = ("ry_6212MHz",)

    def jobs(self, seed: int, state):
        """One gate per job, qubits in turn.

        The screen (``opt_level_errors`` up to L=2) runs on a calibration
        of its own, outside any timed call, so the timed group's engines
        and caches start as cold as before.
        """
        screen = self.calibrate(state["mods"], state["streams"])["cals"]
        level_errors = state["mods"]["sfqctrl.calib1q"].opt_level_errors
        rngs = [np.random.default_rng([seed, q]) for q in range(len(DRIFTS_MHZ))]
        while True:
            for q, rng in enumerate(rngs):
                target = haar_su2(rng)
                while level_errors(screen[q], target, lmax=2)[2] <= ERR_BUDGET:
                    target = haar_su2(rng)
                yield [(q, "haar", target)]

    def run_op(self, state, op, tracer=None) -> OpRecord:
        q, label, target = op
        first = q not in state["called"]
        state["called"].add(q)
        decompose = state["mods"]["sfqctrl.calib1q"].decompose_opt
        t0, dt, out, exc = timed(tracer, "op.opt", decompose, state["cals"][q], target)
        rec = OpRecord("opt", label, q, dt, t0, info={"first": first})
        if exc is not None:
            return _fail(rec, exc)
        rec.info["candidates"] = len(out)
        return self._check(state, rec, target, list(out))


class MinCircuit(_Group):
    """One seeded circuit per job: named gates (cached after first use) and Haar gates.

    Every circuit starts on freshly calibrated qubits, so its cache starts
    empty.  Each qubit's part opens with the six named gates in seeded
    order, then mixes MIN_REPEATS named gates with MIN_HAAR unique Haar
    targets in seeded positions; the circuit runs layer by layer.
    """

    name = "min_circuit"
    arch = "min"
    stream_names = ("min_ry_6212MHz", "min_idle_6212MHz")

    def jobs(self, seed: int, state):
        names = list(NAMED_GATES)
        for job in count():
            parts = []
            for q in range(len(DRIFTS_MHZ)):
                rng = np.random.default_rng([seed, job, q])
                rest = ["haar"] * MIN_HAAR + [names[i] for i in rng.integers(len(names),
                                                                              size=MIN_REPEATS)]
                labels = ([names[i] for i in rng.permutation(len(names))]
                          + [rest[i] for i in rng.permutation(len(rest))])
                parts.append([(q, lb, haar_su2(rng) if lb == "haar"
                               else NAMED_GATES[lb]) for lb in labels])
            yield [part[i] for i in range(len(parts[0])) for part in parts]

    def start_job(self, state) -> None:
        if state["called"]:
            state.update(self.calibrate(state["mods"], state["streams"]))

    def run_op(self, state, op, tracer=None) -> OpRecord:
        q, label, gate = op
        target = gate.copy()
        first = q not in state["called"]
        state["called"].add(q)
        decompose = state["mods"]["sfqctrl.calib1q"].decompose_min
        t0, dt, out, exc = timed(tracer, "op.min", decompose, state["cals"][q], target)
        rec = OpRecord("min", label, q, dt, t0, info={"first": first, "hit": False})
        if exc is not None:
            return _fail(rec, exc)
        if label != "haar":
            # a cache hit returns the very object the first request got
            prev = state["returned"].get((q, label))
            rec.info["hit"] = prev is out
            if prev is None:
                state["returned"][(q, label)] = out
        return self._check(state, rec, target, [out])


WORKLOADS = {w.name: w for w in (Design(), OptHaar(), MinCircuit())}
