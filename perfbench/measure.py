"""Timed loops, the traced pass and metric derivation."""

from __future__ import annotations

import statistics
import time
from collections import Counter

import workloads
from speed import SpeedProbe
from spans import Tracer, layer_totals, percentile, self_times
from workloads import MIN_MAX_DEPTH, PARKING

# Metrics on the last output line; BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "job_s_p50")
PER_LAYER = (
    *(f"transmon.{fn}.{k}" for fn in ("pulse_train_unitary", "sfq_kick", "projected_fidelity")
      for k in ("calls", "self_s")),
    *(f"bitstream.design.{pp}.{k}" for pp in PARKING
      for k in ("evals", "self_s", "n_pulses", "err", "golden_match")),
    "calib1q.calibrate_qubit.calls", "calib1q.calibrate_qubit.ms_p50",
    "calib1q.decompose_opt.calls", "calib1q.decompose_opt.s",
    "calib1q.decompose_opt.first_ms", "calib1q.decompose_opt.warm_ms_p50",
    "opt.L0_share", "opt.L1_share", "opt.L2_share", "opt.L3_share",
    "opt.candidates_mean", "opt.flagged_share", "opt.failed_share", "opt.recompose_dev_max",
    "calib1q.decompose_min.calls", "calib1q.decompose_min.s",
    "calib1q.decompose_min.first_ms_p50", "calib1q.decompose_min.warm_ms_p50",
    "calib1q.decompose_min.hit_ms_p50",
    "min.cache_hit_share", "min.depth_mean", "min.depth_max_share",
    "min.flagged_share", "min.recompose_dev_max",
    "trace.spans", "trace.overhead_s", "trace.overhead_share", "trace.span_cost_us",
)


def metric(value, unit: str) -> dict:
    """One metric; numpy scalars become plain Python numbers."""
    return {"value": value.item() if hasattr(value, "item") else value, "unit": unit}


def _ms_p50(seconds) -> float:
    """Median in ms; 0.0 when there is no sample (the call count says so)."""
    seconds = list(seconds)
    return 1000.0 * percentile(seconds, 50) if seconds else 0.0


def _share(n: int, base: int) -> float:
    return n / base if base else 0.0


def setup(workload, tracer: Tracer | None = None):
    """Import the program, load and verify the frozen streams, build the group."""
    mods = workloads.import_program()
    if tracer is not None:
        tracer.install(mods)
    fx = workloads.load_fixtures(mods)
    return fx, workload.setup(mods, fx)


def run_jobs(workload, state, jobs, seconds=None, n_jobs=None, tracer=None):
    """Run whole jobs until ``n_jobs`` are done or the next would overrun ``seconds``.

    The next job starts only if the elapsed time plus the last job's
    duration stays within ``seconds``; the first job always runs.
    Returns the call records and each job's records.
    """
    records, jobs_done, last = [], [], 0.0
    t0 = time.perf_counter()
    for job in jobs:
        if n_jobs is not None:
            if len(jobs_done) >= n_jobs:
                break
        elif jobs_done and time.perf_counter() - t0 + last > seconds:
            break
        u0 = time.perf_counter()
        workload.start_job(state)
        done = [workload.run_op(state, op, tracer) for op in job]
        last = time.perf_counter() - u0
        records.extend(done)
        jobs_done.append(done)
    return records, jobs_done


def wall_job_s(jobs) -> list[float]:
    """Each job's summed call latency in wall seconds."""
    return [sum(r.latency_s for r in job) for job in jobs]


def _failures(records) -> dict:
    out = {}
    for r in records:
        if r.error:
            info = out.setdefault(r.error, {"count": 0, "first": r.message})
            info["count"] += 1
    return out


def _summary(fx_ok: bool, records) -> dict:
    return {
        "correct": fx_ok and not any(r.error and r.error.startswith("check:") for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error),
        "failures": _failures(records),
        "ops": [[r.label, r.qubit, r.latency_s, r.error] for r in records],
    }


def end_to_end(records, job_s, setup_times, ref=None) -> dict:
    """Every end-to-end metric that applies to the workload's records.

    ``job_s`` and ``setup_times`` are wall seconds.  ``ref`` holds the
    same two lists in reference seconds (see speed.py); the bounded
    ``setup_s`` and ``job_s_p50`` are reported only when it is given.
    """
    lat = [r.latency_s for r in records]
    n = len(records)
    m = {}
    if ref is not None:
        ref_job_s, ref_setup_s = ref
        m["setup_s"] = metric(statistics.median(ref_setup_s), "s")
        m["job_s_p50"] = metric(statistics.median(ref_job_s), "s")
    m.update({
        "setup_wall_s": metric(statistics.median(setup_times), "s"),
        "job_wall_s_p50": metric(statistics.median(job_s), "s"),
        "job_n": metric(len(job_s), "count"),
        "gate_ms_p50": metric(_ms_p50(lat), "ms"),
        "gate_n": metric(n, "count"),
    })
    if n >= 100:  # highest percentile with at least ten samples beyond it
        q = 99.0 if n >= 1000 else 90.0
        m[f"gate_ms_p{q:g}"] = metric(1000.0 * percentile(lat, q), "ms")
    m["gates_per_s"] = metric(n / sum(lat), "1/s")
    m["within_budget_share"] = metric(_share(sum(r.within_budget for r in records), n), "share")
    m["failed_share"] = metric(_share(sum(1 for r in records if r.error), n), "share")
    designs = [r for r in records if r.kind == "design"]
    if designs:
        m["design_s"] = metric(sum(statistics.median(r.latency_s for r in designs
                                                     if r.label == pp)
                                   for pp in {r.label for r in designs}), "s")
        errs = [r.info["err"] for r in designs if "err" in r.info]
        if errs:
            m["design_err_max"] = metric(max(errs), "1")
    return m


def untraced_run(workload, seed: int, seconds: float, repeats: int) -> dict:
    """Timed phase between ``repeats`` set-ups, half before it and half after.

    Set-up takes tens of ms, so its median is spread over the run rather
    than taken from one moment of the machine's load.  A speed probe runs
    throughout, and every timing is also converted to reference seconds.
    """
    setups = []

    def timed_setup():
        t0 = time.perf_counter()
        out = setup(workload)
        setups.append((t0, time.perf_counter()))
        return out

    with SpeedProbe() as probe:
        for _ in range(repeats - repeats // 2):
            fx, state = timed_setup()
        records, jobs = run_jobs(workload, state, workload.jobs(seed, state), seconds=seconds)
        for _ in range(repeats // 2):
            timed_setup()
    job_s = wall_job_s(jobs)
    ref_job_s = [sum(probe.ref_seconds(r.start, r.start + r.latency_s) for r in job)
                 for job in jobs]
    ref_setup_s = [probe.ref_seconds(t0, t1) for t0, t1 in setups]
    m = end_to_end(records, job_s, [t1 - t0 for t0, t1 in setups], (ref_job_s, ref_setup_s))
    probe_s = [d for _, d in probe.probes]
    m["probe_ms_mean"] = metric(1000.0 * statistics.mean(probe_s), "ms")
    m["probe_n"] = metric(len(probe_s), "count")
    return {**_summary(fx.ok, records), "job_s": job_s, "ref_job_s": ref_job_s,
            "fixture_err": fx.ref_err, "metrics": m}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Untraced pass for half the window, then a traced pass over the same jobs.

    The traced pass reuses the untraced pass's inputs, so no input
    generation runs while the layer functions are wrapped.
    """
    t0 = time.perf_counter()
    fx, state = setup(workload)
    t1 = time.perf_counter()
    inputs = []

    def recorded(jobs):
        for job in jobs:
            inputs.append(job)
            yield job

    plain, plain_jobs = run_jobs(workload, state, recorded(workload.jobs(seed, state)),
                                 seconds=seconds / 2)
    job_s = wall_job_s(plain_jobs)
    tracer = Tracer()
    try:
        t2 = time.perf_counter()
        fx_t, state_t = tracer.span("setup", setup, workload, tracer)
        t3 = time.perf_counter()
        traced, traced_jobs = run_jobs(workload, state_t, inputs,
                                         n_jobs=len(job_s), tracer=tracer)
    finally:
        tracer.uninstall()
    m = per_layer(tracer.spans, traced)
    t_plain = sum(r.latency_s for r in plain)
    t_traced = sum(r.latency_s for r in traced)
    m["trace.spans"] = metric(len(tracer.spans), "count")
    m["trace.overhead_s"] = metric(t_traced - t_plain, "s")
    m["trace.overhead_share"] = metric(_share(t_traced - t_plain, t_plain), "share")
    m["trace.span_cost_us"] = metric(span_cost_us(), "us")
    summary = _summary(fx.ok and fx_t.ok, plain + traced)
    return {**summary, "job_s": job_s, "fixture_err": fx.ref_err, "metrics": m,
            "untraced": end_to_end(plain, job_s, [t1 - t0]),
            "traced": end_to_end(traced, wall_job_s(traced_jobs), [t3 - t2]),
            "tracer": tracer}


def span_cost_us(batch: int = 2000, repeats: int = 5) -> float:
    """Median cost of recording one span around a no-op call, in µs.

    The traced-minus-untraced difference is often smaller than the
    machine's drift between the two passes; spans times this cost bounds
    what tracing itself adds.
    """
    costs = []
    for _ in range(repeats):
        tracer, noop = Tracer(), (lambda: None)
        t0 = time.perf_counter()
        for _ in range(batch):
            tracer.span("noop", noop)
        costs.append((time.perf_counter() - t0) / batch)
    return 1e6 * statistics.median(costs)


def per_layer(spans, records) -> dict:
    totals = layer_totals(spans)
    st = self_times(spans)
    m = {}
    for fn in ("pulse_train_unitary", "sfq_kick", "projected_fidelity"):
        calls, self_s = totals.get(f"transmon.{fn}", (0, 0.0))
        m[f"transmon.{fn}.calls"] = metric(calls, "count")
        m[f"transmon.{fn}.self_s"] = metric(self_s, "s")

    # per parking point, averaged over the design calls of the pass
    root_name = {s.id: s.name for s in spans if s.parent < 0}
    for pp in PARKING:
        mine = [s for s in spans if root_name.get(s.root) == f"op.{pp}"]
        recs = [r for r in records if r.kind == "design" and r.label == pp]
        n = len(recs)
        evals = sum(s.name == "transmon.pulse_train_unitary" for s in mine)
        own = sum(st[s.id] for s in mine if s.name.startswith("bitstream."))
        info = next((r.info for r in reversed(recs) if r.info), {})
        m[f"bitstream.design.{pp}.evals"] = metric(evals / n if n else 0, "count")
        m[f"bitstream.design.{pp}.self_s"] = metric(own / n if n else 0.0, "s")
        m[f"bitstream.design.{pp}.n_pulses"] = metric(info.get("n_pulses", 0), "count")
        m[f"bitstream.design.{pp}.err"] = metric(info.get("err", 0.0), "1")
        m[f"bitstream.design.{pp}.golden_match"] = metric(int(info.get("golden_match", 0)),
                                                          "bool")

    def durations(name):
        return [s.duration for s in sorted(spans, key=lambda s: s.start) if s.name == name]

    cal = durations("calib1q.calibrate_qubit")
    m["calib1q.calibrate_qubit.calls"] = metric(len(cal), "count")
    m["calib1q.calibrate_qubit.ms_p50"] = metric(_ms_p50(cal), "ms")

    opt = durations("calib1q.decompose_opt")
    m["calib1q.decompose_opt.calls"] = metric(len(opt), "count")
    m["calib1q.decompose_opt.s"] = metric(sum(opt), "s")
    m["calib1q.decompose_opt.first_ms"] = metric(1000.0 * opt[0] if opt else 0.0, "ms")
    m["calib1q.decompose_opt.warm_ms_p50"] = metric(_ms_p50(opt[1:]), "ms")
    orecs = [r for r in records if r.kind == "opt"]
    n = len(orecs)
    depths = Counter(r.info.get("depth") for r in orecs)
    for k in range(4):
        m[f"opt.L{k}_share"] = metric(_share(depths.get(k, 0), n), "share")
    cands = [r.info["candidates"] for r in orecs if "candidates" in r.info]
    m["opt.candidates_mean"] = metric(sum(cands) / len(cands) if cands else 0.0, "count")
    m["opt.flagged_share"] = metric(_share(sum(bool(r.info.get("flagged")) for r in orecs), n),
                                    "share")
    m["opt.failed_share"] = metric(_share(sum(1 for r in orecs if r.error), n), "share")
    m["opt.recompose_dev_max"] = metric(max((r.info.get("dev", 0.0) for r in orecs),
                                            default=0.0), "1")

    mins = durations("calib1q.decompose_min")
    m["calib1q.decompose_min.calls"] = metric(len(mins), "count")
    m["calib1q.decompose_min.s"] = metric(sum(mins), "s")
    mrecs = [r for r in records if r.kind == "min"]
    n = len(mrecs)
    first = [r.latency_s for r in mrecs if r.info["first"]]
    hits = [r.latency_s for r in mrecs if r.info["hit"]]
    warm = [r.latency_s for r in mrecs if not r.info["first"] and not r.info["hit"]]
    m["calib1q.decompose_min.first_ms_p50"] = metric(_ms_p50(first), "ms")
    m["calib1q.decompose_min.warm_ms_p50"] = metric(_ms_p50(warm), "ms")
    m["calib1q.decompose_min.hit_ms_p50"] = metric(_ms_p50(hits), "ms")
    m["min.cache_hit_share"] = metric(_share(len(hits), n), "share")
    ret = [r for r in mrecs if r.info.get("depth") is not None]
    m["min.depth_mean"] = metric(sum(r.info["depth"] for r in ret) / len(ret) if ret else 0.0,
                                 "cycles")
    m["min.depth_max_share"] = metric(
        _share(sum(r.info["depth"] == MIN_MAX_DEPTH for r in ret), len(ret)), "share")
    m["min.flagged_share"] = metric(_share(sum(bool(r.info.get("flagged")) for r in mrecs), n),
                                    "share")
    m["min.recompose_dev_max"] = metric(max((r.info.get("dev", 0.0) for r in mrecs),
                                            default=0.0), "1")
    return m
