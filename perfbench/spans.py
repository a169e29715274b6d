"""In-memory span recording at the program's layer boundaries.

A :class:`Tracer` wraps public functions of the program's modules.  Each
call records a span (id, root, parent, name, start, end); spans opened
while another is open become its children, and every span carries the id
of the outermost span it belongs to, so the spans of one operation share
an identifier.  Spans stay in memory until :meth:`Tracer.write_csv`.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# (module, attribute) pairs wrapped by a traced run; the span name is
# "<module>.<attribute>" without the package prefix.
LAYER_FUNCTIONS = (
    ("sfqctrl.transmon", "pulse_train_unitary"),
    ("sfqctrl.transmon", "sfq_kick"),
    ("sfqctrl.transmon", "projected_fidelity"),
    ("sfqctrl.bitstream", "design_ry_bitstream"),
    ("sfqctrl.calib1q", "calibrate_qubit"),
    ("sfqctrl.calib1q", "decompose_opt"),
    ("sfqctrl.calib1q", "decompose_min"),
)


@dataclass(frozen=True)
class Span:
    id: int
    root: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._root = -1
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        root = self._root if self._stack else sid
        if not self._stack:
            self._root = sid
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, root, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a module binds it.

        ``modules`` maps module names to loaded modules.  A function
        imported by name into another module (``from sfqctrl.transmon
        import pulse_train_unitary``) is replaced there too, so calls
        between layers are seen.  Missing functions are skipped.
        """
        for mod_name, attr in LAYER_FUNCTIONS:
            orig = getattr(modules.get(mod_name), attr, None)
            if orig is None:
                continue
            traced = self.wrap(f"{mod_name.rsplit('.', 1)[-1]}.{attr}", orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,root,parent,name,start,end\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(f"{s.id},{s.root},{s.parent},{s.name},{s.start!r},{s.end!r}\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_totals(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds)."""
    st = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        out[s.name][0] += 1
        out[s.name][1] += st[s.id]
    return {k: (v[0], v[1]) for k, v in out.items()}


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default); nan if empty."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
