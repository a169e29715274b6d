"""SIMD SFQ quantum-controller toolkit.

Simulates transmon qubits driven by single-flux-quantum pulse trains,
designs the shared bitstreams of a qubit group, calibrates each drifted
qubit against them in software, and decomposes single-qubit gates into
delay-shifted stream applications (opt) or words over a few stored
streams (min).
"""

from sfqctrl.transmon import (
    TransmonSpec,
    FidelityReport,
    sfq_kick,
    projected_fidelity,
)

__all__ = [
    "TransmonSpec",
    "FidelityReport",
    "sfq_kick",
    "projected_fidelity",
]

__version__ = "0.1.0"
