"""Regenerate ``fixtures/streams.json`` from the program's own designers.

    PYTHONPATH=src python3 perfbench/make_fixtures.py

Designs the shared Ry(pi/2) streams for both parking points and the BS=2
min-architecture streams at 6.21286 GHz (about a minute on one core).
The committed file was made from the first benchmarked commit; the
``design`` workload compares fresh designs against it bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from sfqctrl.bitstream import SFQ_CLOCK_PERIOD, design_ry_bitstream
from sfqctrl.calib1q import design_min_bitstreams
from sfqctrl.transmon import TransmonSpec

OUT = Path(__file__).resolve().parent / "fixtures" / "streams.json"


def entry(freq, bs, target):
    return {"nominal_freq": freq, "clock_period": SFQ_CLOCK_PERIOD,
            "tip_angle": bs.tip_angle, "target": target, "bits": bs.to_string()}


def main() -> None:
    streams = {}
    for label, freq in (("6212MHz", 6.21286e9), ("4142MHz", 4.14238e9)):
        streams[f"ry_{label}"] = entry(freq, design_ry_bitstream(TransmonSpec(freq, levels=6)),
                                       "ry90")
    ry, idle = design_min_bitstreams(TransmonSpec(6.21286e9, levels=6), bs=2)
    streams["min_ry_6212MHz"] = entry(6.21286e9, ry, "min_basis_0")
    streams["min_idle_6212MHz"] = entry(6.21286e9, idle, "identity")
    OUT.write_text(json.dumps({"streams": streams}, indent=1) + "\n")


if __name__ == "__main__":
    main()
