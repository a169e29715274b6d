"""sfqctrl benchmark: one workload per run, closed loop, single caller.

    python3 perfbench/run.py --workload {design,opt_haar,min_circuit} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics of a traced pass, plus the tracing
overhead against an untraced pass over the same inputs.  Lines before it
(prefixed ``#``) report every metric with its unit and the environment.
Full reports and span files go to ``perfbench/out/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 16

# one BLAS thread unless the caller says otherwise; set before numpy loads
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of ``root`` read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sfqctrl" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        report = measure.traced_run(workload, args.seed, args.seconds)
    else:
        report = measure.untraced_run(workload, args.seed, args.seconds, SETUP_REPEATS)
    report["env"] = environment(args)
    report["metrics"]["peak_rss_mb"] = measure.metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write_csv(OUT / f"{stem}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# perfbench {stem} at {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    print("# env " + json.dumps(report["env"]))
    for name, m in report["metrics"].items():
        print(f"# metric {name} = {m['value']!r} {m['unit']}")
    for kind, info in report["failures"].items():
        print(f"# failures {kind}: {info['count']} of {report['attempted']} ({info['first']})")
    names = measure.PER_LAYER if args.trace else measure.END_TO_END
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
