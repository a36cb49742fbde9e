"""Unit conversions and physical constants.

Conversions between dB/dBm/degrees and linear/watt/radian happen only at
I/O boundaries (configs, CSV output); everything internal is linear SI.
"""

from __future__ import annotations

import numpy as np

# Free-space propagation speed. The round number keeps range bins and range
# resolution exact for decade bandwidths (c / 2B = 1.5 m at B = 100 MHz).
C_LIGHT = 3.0e8


def linear_to_db(x):
    """Linear power ratio -> dB; 0 gives -inf, with no warning."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def dbm_to_watt(x_dbm):
    """dBm -> watt."""
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)
