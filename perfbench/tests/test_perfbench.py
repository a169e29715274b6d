"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import measure
import refsim
import workloads
import speed
from spans import Span, Tracer, layer_totals, percentile, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def mods():
    return workloads.import_program()


@pytest.fixture(scope="module")
def fixtures(mods):
    return workloads.load_fixtures(mods)


# --- reference simulator -----------------------------------------------------------

def test_kick_two_levels_is_ry():
    assert np.allclose(refsim.kick(0.3, levels=2), refsim.ry(0.3), atol=1e-14)


@pytest.mark.parametrize("name", ["ry_6212MHz", "ry_4142MHz", "min_ry_6212MHz"])
@pytest.mark.parametrize("drift", [0.0, 7e6])
def test_refsim_matches_bitstream_simulate(mods, fixtures, name, drift):
    e = fixtures.specs[name]
    spec = mods["sfqctrl.transmon"].TransmonSpec(nominal_freq=e["nominal_freq"], drift=drift)
    ours = refsim.stream_unitary(e["bits"], e["nominal_freq"] + drift, e["tip_angle"],
                                 e["clock_period"])
    assert np.abs(ours - fixtures.streams[name].simulate(spec)).max() < 1e-10


def test_frozen_streams_verify(fixtures):
    assert fixtures.ok
    assert set(fixtures.ref_err) == {"ry_6212MHz", "ry_4142MHz", "min_ry_6212MHz",
                                     "min_idle_6212MHz"}
    assert all(0.0 <= err <= workloads.ERR_BUDGET for err in fixtures.ref_err.values())
    assert fixtures.ref_err["min_idle_6212MHz"] < 1e-14


def test_corrupted_stream_fails_verification(mods, tmp_path):
    data = json.loads(workloads.FIXTURES.read_text())
    bits = data["streams"]["ry_6212MHz"]["bits"]
    data["streams"]["ry_6212MHz"]["bits"] = ("0" if bits[0] == "1" else "1") + bits[1:]
    path = tmp_path / "streams.json"
    path.write_text(json.dumps(data))
    assert not workloads.load_fixtures(mods, path).ok


# --- spans, self time, percentiles ---------------------------------------------------

def _tree():
    # root [0, 10] with A [1, 4] (child a [2, 3]) and B [5, 9]
    return [
        Span(2, 0, 1, "a", 2.0, 3.0),
        Span(1, 0, 0, "A", 1.0, 4.0),
        Span(3, 0, 0, "B", 5.0, 9.0),
        Span(0, 0, -1, "root", 0.0, 10.0),
    ]


def test_self_times_hand_built_tree():
    st = self_times(_tree())
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, 0, -1, "p", 0.0, 10.0),
             Span(1, 0, 0, "c", 1.0, 5.0), Span(2, 0, 0, "c", 3.0, 7.0),
             Span(3, 0, 0, "c", 8.0, 12.0)]  # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_layer_totals_sum_self_time_per_name():
    spans = _tree() + [Span(4, 4, -1, "A", 20.0, 21.5)]
    totals = layer_totals(spans)
    assert totals["A"] == (2, 3.5)
    assert totals["root"] == (1, 3.0)


def test_percentile_matches_numpy():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([7.0], 90) == 7.0
    assert np.isnan(percentile([], 50))
    xs = np.random.default_rng(0).exponential(size=37)
    for q in (0, 10, 50, 90, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_tracer_records_parent_and_root():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tr.span("inner", lambda: 7)

    assert tr.span("outer", inner) == 7
    tr.span("next", lambda: None)
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].root == by_name["outer"].id
    assert by_name["next"].parent == -1 and by_name["next"].root == by_name["next"].id
    assert by_name["outer"].start < by_name["inner"].start < by_name["inner"].end \
        < by_name["outer"].end


def test_tracer_records_span_when_call_raises():
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        tr.span("boom", lambda: 1 / 0)
    assert [s.name for s in tr.spans] == ["boom"]


def test_install_sees_calls_between_layers(mods, fixtures):
    tr = Tracer()
    tr.install(mods)
    try:
        spec = mods["sfqctrl.transmon"].TransmonSpec(nominal_freq=6.21286e9)
        mods["sfqctrl.calib1q"].calibrate_qubit(spec, [fixtures.streams["ry_6212MHz"]])
    finally:
        tr.uninstall()
    names = [s.name for s in tr.spans]
    assert names.count("calib1q.calibrate_qubit") == 1
    # Bitstream.simulate reaches transmon through bitstream's imported name
    assert names.count("transmon.pulse_train_unitary") == 1
    assert names.count("transmon.sfq_kick") == 1
    assert not hasattr(mods["sfqctrl.bitstream"].pulse_train_unitary, "__wrapped__")


# --- speed probe -------------------------------------------------------------------

def test_ref_seconds_removes_probes_and_scales_by_probe_speed():
    ref = speed.REF_PROBE_S
    # probes at twice the reference time; one of them ran inside [1, 3]
    probes = [(0.5, 2 * ref), (2.0, 2 * ref), (3.5, 2 * ref), (9.0, 8 * ref)]
    expect = (2.0 - 2 * ref) / 2
    assert speed.ref_seconds(probes, 1.0, 3.0, margin=1.0) == pytest.approx(expect)
    # a short interval takes its speed from the neighbours within the margin
    assert speed.ref_seconds(probes, 1.0, 1.1, margin=1.0) == pytest.approx(0.1 / 2)
    with pytest.raises(ValueError):
        speed.ref_seconds(probes, 5.0, 6.0, margin=1.0)


def test_speed_probe_samples_from_timer_and_restores_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(probe.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < probe.ref_seconds(t0, t1) < t1 - t0 + 1.0


# --- workloads and emitted metrics ---------------------------------------------------

def test_inputs_depend_only_on_seed(mods, fixtures):
    for w in workloads.WORKLOADS.values():
        state = w.setup(mods, fixtures)
        a, b = w.jobs(3, state), w.jobs(3, state)
        for _ in range(12):
            ua, ub = next(a), next(b)
            assert repr(ua) == repr(ub)
    opt = workloads.WORKLOADS["opt_haar"]
    state = opt.setup(mods, fixtures)
    first = [next(opt.jobs(s, state))[0][2] for s in (1, 2)]
    assert not np.allclose(first[0], first[1])


def test_opt_haar_targets_need_three_pulses(mods, fixtures):
    opt = workloads.WORKLOADS["opt_haar"]
    state = opt.setup(mods, fixtures)
    check = opt.calibrate(mods, state["streams"])["cals"]
    level_errors = mods["sfqctrl.calib1q"].opt_level_errors
    jobs = opt.jobs(7, state)
    for q in range(2 * len(workloads.DRIFTS_MHZ)):
        [(qubit, label, target)] = next(jobs)
        assert (qubit, label) == (q % len(workloads.DRIFTS_MHZ), "haar")
        assert level_errors(check[qubit], target, lmax=2)[2] > workloads.ERR_BUDGET


def test_min_circuit_layout():
    circuit = next(workloads.WORKLOADS["min_circuit"].jobs(5, None))
    n_q = len(workloads.DRIFTS_MHZ)
    assert [op[0] for op in circuit] == list(range(n_q)) * (len(circuit) // n_q)
    for q in range(n_q):
        labels = [op[1] for op in circuit if op[0] == q]
        assert sorted(labels[:6]) == sorted(workloads.NAMED_GATES)
        assert labels.count("haar") == workloads.MIN_HAAR
        assert len(labels) == 6 + workloads.MIN_HAAR + workloads.MIN_REPEATS


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(measure.PER_LAYER)

    rec = workloads.OpRecord("min", "H", 0, 0.01,
                             info={"first": True, "hit": False, "depth": 3, "dev": 0.0})
    e2e = measure.end_to_end([rec], [0.01], [0.1], ([0.02], [0.2]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in measure.END_TO_END:
        assert e2e[name]["unit"] == units[name]
    layer = measure.per_layer([], [rec])
    trace_only = {"trace.spans", "trace.overhead_s", "trace.overhead_share",
                  "trace.span_cost_us"}
    assert set(layer) | trace_only == set(measure.PER_LAYER)
    for name, m in layer.items():
        assert m["unit"] == units[name]


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
