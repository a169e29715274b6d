import pytest

import opt_oracle

from sfqctrl.transmon import TransmonSpec
from sfqctrl.bitstream import design_ry_bitstream

PARK_HI = 6.21286e9
PARK_LO = 4.14238e9


@pytest.fixture(scope="session")
def spec_hi():
    return TransmonSpec(nominal_freq=PARK_HI, levels=6)


@pytest.fixture(scope="session")
def spec_lo():
    return TransmonSpec(nominal_freq=PARK_LO, levels=6)


@pytest.fixture(scope="session")
def ry_bitstream_hi(spec_hi):
    """Designed shared Ry(pi/2) bitstream for the 6.21286 GHz group (slow, reused)."""
    return design_ry_bitstream(spec_hi)


@pytest.fixture(scope="session")
def ry_bitstream_lo(spec_lo):
    return design_ry_bitstream(spec_lo)


@pytest.fixture(scope="session")
def haar_su2():
    """Sampler of Haar-random SU(2) matrices: haar_su2(rng) -> 2x2 array."""
    return opt_oracle.haar_su2
