"""Beam-peak detection for the beampattern gates, with scipy's find_peaks.

It lives with the tests, the only code that calls it, so that the package
runs on numpy alone.
"""

import numpy as np
from scipy.signal import find_peaks


def find_beam_peaks(angles_deg: np.ndarray, pattern_db: np.ndarray,
                    rel_threshold_db: float = 16.0,
                    min_separation_deg: float = 6.0) -> np.ndarray:
    """Mainlobe directions of a pattern in dB.

    Local maxima above (global max - rel_threshold_db), strongest first, with
    weaker peaks suppressed inside min_separation_deg of a kept one. The
    defaults keep beams over a 13 dB dynamic range while rejecting first
    sidelobes (-13.3 dB, within ~5.5 deg of an oblique mainlobe for a 64
    element half-wavelength array) of a dominant lobe.
    """
    idx, _ = find_peaks(pattern_db)
    idx = idx[pattern_db[idx] >= pattern_db.max() - rel_threshold_db]
    kept = []
    for i in idx[np.argsort(pattern_db[idx])[::-1]]:
        if all(abs(angles_deg[i] - angles_deg[j]) >= min_separation_deg for j in kept):
            kept.append(i)
    return np.sort(angles_deg[np.asarray(kept, dtype=int)]) if kept else np.array([])
