"""Plain six-level reference simulator for SFQ bitstreams.

Independent of ``sfqctrl.transmon``: the kick is built by
``scipy.linalg.expm`` of (theta/2)(a^dag - a), free evolution is applied
one clock cycle at a time as a diagonal, and the anchored frame
correction exp(+i*H0*T) is applied at the end of the window.  The
projected average-gate-fidelity error uses the two-level formula
(Tr(E E^dag) + |Tr(V^dag E)|^2) / 6 on the computational block.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

ANHARMONICITY = 250e6
LEVELS = 6


def kick(tip_angle: float, levels: int = LEVELS) -> np.ndarray:
    """exp((tip_angle/2) * (a^dag - a)) by scipy's Pade expm."""
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    return scipy.linalg.expm(0.5 * tip_angle * (a.T - a)).astype(complex)


def energies(freq: float, anharmonicity: float = ANHARMONICITY,
             levels: int = LEVELS) -> np.ndarray:
    """Duffing level energies in rad/s: 2*pi*(f*n - (alpha/2)*n*(n-1))."""
    n = np.arange(levels, dtype=float)
    return 2.0 * np.pi * (freq * n - 0.5 * anharmonicity * n * (n - 1.0))


def stream_unitary(bits: str, freq: float, tip_angle: float, clock_period: float,
                   anharmonicity: float = ANHARMONICITY,
                   levels: int = LEVELS) -> np.ndarray:
    """Anchored unitary of a bit string, simulated cycle by cycle."""
    e = energies(freq, anharmonicity, levels)
    k = kick(tip_angle, levels)
    step = np.exp(-1j * e * clock_period)
    u = np.eye(levels, dtype=complex)
    for b in bits:
        if b == "1":
            u = k @ u
        u = step[:, None] * u
    return np.exp(1j * e * len(bits) * clock_period)[:, None] * u


def projected_error(u: np.ndarray, target: np.ndarray) -> float:
    """1 - average gate fidelity of the computational block of ``u``."""
    e = u[:2, :2]
    f = (np.sum(np.abs(e) ** 2) + abs(np.trace(target.conj().T @ e)) ** 2) / 6.0
    return float(1.0 - f)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
