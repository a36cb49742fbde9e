"""Delay-Doppler matched-filter processing of the aligned-waveform echo.

The per-block echo is correlated against unit-norm templates built from the
known transmit block: a spatial projection onto the probe direction, a probe
delay shift, and a probe Doppler ramp. Because the per-path delay schedule is
pairwise distinct, the aligned streams decorrelate away from the true delay
and the peak carries the full block integration gain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ScenarioConfig, _shift_zero_prefix, steering_vector
from .units import C_LIGHT
from .waveform import DamBeamformer, SymbolBlock, delayed_symbol_matrix


@dataclass
class SensingGrid:
    """Probe grid for the delay-Doppler map.

    delay_bins are integer symbol delays; doppler_bins_hz must stay within
    the unambiguous interval (-1/(2 T_s), 1/(2 T_s)]. The stated resolutions
    are one symbol period in delay and 1/(N T_s) in Doppler; a grid may be
    coarser (survey) or centered on a coarse estimate (refinement).
    """

    delay_bins: np.ndarray
    doppler_bins_hz: np.ndarray
    symbol_duration_s: float
    block_length: int            # N, the retained samples per block

    def __post_init__(self):
        self.delay_bins = np.asarray(self.delay_bins, dtype=int)
        self.doppler_bins_hz = np.asarray(self.doppler_bins_hz, dtype=float)
        if self.delay_bins.ndim != 1 or self.doppler_bins_hz.ndim != 1:
            raise ValueError("grid axes must be 1-D")
        if np.any(self.delay_bins < 0):
            raise ValueError("delay bins must be non-negative")
        if self.block_length < 1 or self.symbol_duration_s <= 0:
            raise ValueError("block_length and symbol_duration_s must be positive")
        half = 0.5 / self.symbol_duration_s
        if np.any(self.doppler_bins_hz <= -half - 1e-9 * half) or \
           np.any(self.doppler_bins_hz > half + 1e-9 * half):
            raise ValueError("Doppler bins must lie within (-1/(2 T_s), 1/(2 T_s)]")

    @property
    def delay_resolution_s(self) -> float:
        return self.symbol_duration_s

    @property
    def doppler_resolution_hz(self) -> float:
        return 1.0 / (self.block_length * self.symbol_duration_s)

    @property
    def shape(self):
        return (self.delay_bins.size, self.doppler_bins_hz.size)

    @classmethod
    def survey(cls, guard_length: int, block_length: int, symbol_duration_s: float,
               num_doppler_bins: int = 129) -> "SensingGrid":
        """All delays in [0, guard] and a coarse Doppler sweep of the full
        unambiguous interval."""
        half = 0.5 / symbol_duration_s
        return cls(np.arange(guard_length + 1),
                   np.linspace(-half, half, num_doppler_bins),
                   symbol_duration_s, block_length)

    @classmethod
    def refine(cls, delay_center: int, doppler_center_hz: float, block_length: int,
               symbol_duration_s: float, delay_half_width: int = 8,
               doppler_half_width_bins: int = 8) -> "SensingGrid":
        """Resolution-spaced window around a coarse (delay, Doppler) estimate,
        clipped to the delays inside the block and to (-1/(2 T_s), 1/(2 T_s)]."""
        lo = max(0, delay_center - delay_half_width)
        delays = np.arange(lo, min(delay_center + delay_half_width + 1, block_length))
        step = 1.0 / (block_length * symbol_duration_s)
        dops = doppler_center_hz + step * np.arange(-doppler_half_width_bins,
                                                    doppler_half_width_bins + 1)
        half = 0.5 / symbol_duration_s
        dops = dops[(dops > -half) & (dops <= half)]
        return cls(delays, dops, symbol_duration_s, block_length)


@dataclass
class DelayDopplerMap:
    """Matched-filter outputs r over a SensingGrid (complex, delay-major)."""

    values: np.ndarray
    grid: SensingGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError("map values do not match grid shape")

    def power(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _projected_waveform(bf: DamBeamformer, block: SymbolBlock, theta: float) -> np.ndarray:
    """a^H(theta) x[n]: the transmit block seen from direction theta.

    Projects the L per-path beams first, (a^H F) S, so no M x N block is built.
    """
    a = steering_vector(theta, bf.num_antennas)
    return (np.conj(a) @ bf.beam_matrix) @ delayed_symbol_matrix(block.symbols,
                                                                 bf.delay_schedule)


def matched_filter_template(bf: DamBeamformer, block: SymbolBlock, theta: float,
                            delay_bin: int, doppler_hz: float,
                            symbol_duration_s: float) -> np.ndarray:
    """Unit-norm template for one (direction, delay, Doppler) probe cell."""
    if delay_bin < 0:
        raise ValueError("delay_bin must be >= 0")
    base = _shift_zero_prefix(_projected_waveform(bf, block, theta), int(delay_bin))
    n = base.size
    ramp = np.exp(2j * np.pi * doppler_hz * symbol_duration_s * np.arange(n))
    t = base * ramp
    norm = np.linalg.norm(t)
    if norm == 0:
        raise ValueError("zero template: probe delay pushes the waveform out of the block")
    return t / norm


_MAP_BLOCK = 4096   # samples n per matrix product in delay_doppler_map


def delay_doppler_map(echo: np.ndarray, bf: DamBeamformer, block: SymbolBlock,
                      theta: float, grid: SensingGrid) -> DelayDopplerMap:
    """Correlate an echo against templates over the whole grid.

    Cell (p, q) holds r = <template(p, q), echo>; with the template unit-norm
    the noise in every cell keeps the per-sample variance sigma^2.

    The sum over n runs in blocks of B = _MAP_BLOCK samples, one P x B by
    B x Q matrix product each, for O(P Q N) work in O((P + Q) B) memory.
    """
    echo = np.asarray(echo, dtype=complex)
    n = grid.block_length
    if echo.shape != (n,):
        raise ValueError(f"echo must be 1-D of length {n}, got {echo.shape}")
    base = _projected_waveform(bf, block, theta)
    if base.size != n:
        raise ValueError("grid block_length does not match the symbol block")
    delays = grid.delay_bins
    norms = np.array([np.linalg.norm(base[:max(n - p, 0)]) for p in delays])
    if np.any(norms == 0):
        raise ValueError("zero template: probe delay pushes the waveform out of the block")
    # r(p, q) = sum_n conj(base[n-p]) e^{-j2 pi f_q Ts n} echo[n]. With n = s + k
    # the phase splits into e^{-j2 pi f_q Ts s} per block start s and a B x Q
    # kernel over k < B shared by every block.
    b = min(_MAP_BLOCK, n)
    padded_len = -(-n // b) * b
    lead = delays.max(initial=0)
    cycles = grid.doppler_bins_hz * grid.symbol_duration_s
    # kernel[k, q] = e^{-j2 pi f_q Ts k} as the product of its factors at
    # 64 (k // 64) and k % 64: 2 b/64 rows of exponentials instead of b
    fine = np.exp(-2j * np.pi * np.outer(np.arange(64), cycles))
    coarse = np.exp(-2j * np.pi * np.outer(np.arange(0, b, 64), cycles))
    kernel = (coarse[:, None, :] * fine).reshape(coarse.shape[0] * 64, cycles.size)[:b]
    # conj(base[m]) sits at m + lead, zeros elsewhere; every delay row of a
    # block is one window of it
    conj_base = np.zeros(lead + padded_len, dtype=complex)
    conj_base[lead:lead + n] = np.conj(base)
    windows = np.lib.stride_tricks.sliding_window_view(conj_base, b)
    echo_pad = np.zeros(padded_len, dtype=complex)
    echo_pad[:n] = echo
    values = np.zeros(grid.shape, dtype=complex)
    for s in range(0, n, b):
        rows = windows[s + lead - delays]
        rows *= echo_pad[s:s + b]
        values += (rows @ kernel) * np.exp(-2j * np.pi * cycles * s)
    values /= norms[:, None]
    return DelayDopplerMap(values, grid)


def correlation_matrix(block: SymbolBlock, kappa, probe_delay: int,
                       true_delay: int) -> np.ndarray:
    """Cross-correlation of the delayed-stream matrices at two block delays.

    Entry (i, j) is the inner product of stream i delayed by true_delay with
    stream j delayed by probe_delay; it concentrates near the block length N
    when kappa_i + true_delay = kappa_j + probe_delay and near zero otherwise.
    """
    s_true = delayed_symbol_matrix(block.symbols, kappa, int(true_delay))
    s_probe = delayed_symbol_matrix(block.symbols, kappa, int(probe_delay))
    return s_true @ np.conj(s_probe.T)


def sensing_snr(beam_matrix: np.ndarray, theta: float, gain: complex,
                block_length: int, noise_power: float) -> float:
    """Matched-filter output SNR |alpha|^2 N a^H F F^H a / sigma^2."""
    beam_matrix = np.asarray(beam_matrix, dtype=complex)
    a = steering_vector(theta, beam_matrix.shape[0])
    agg = np.sum(np.abs(np.conj(a) @ beam_matrix) ** 2)
    return float(np.abs(gain) ** 2 * block_length * agg / noise_power)


def max_sensing_snr(num_antennas: int, block_length: int, power: float,
                    gain: complex, noise_power: float) -> float:
    """Sensing SNR ceiling |alpha|^2 N M P / sigma^2 (all power on the target
    direction, reached by f_l = sqrt(P/(M L)) a(theta))."""
    return float(np.abs(gain) ** 2 * block_length * num_antennas * power / noise_power)


def estimate_delay_doppler(ddmap: DelayDopplerMap):
    """Peak pick: returns (delay_bin, doppler_hz, peak_power).

    Ties resolve to the smallest delay, then the smallest |Doppler|.
    """
    p = ddmap.power()
    best = p.max()
    cand = np.argwhere(p >= best * (1.0 - 1e-12))
    delays = ddmap.grid.delay_bins[cand[:, 0]]
    dmin = delays.min()
    cand = cand[delays == dmin]
    dops = np.abs(ddmap.grid.doppler_bins_hz[cand[:, 1]])
    row, col = cand[np.argmin(dops)]
    return (int(ddmap.grid.delay_bins[row]),
            float(ddmap.grid.doppler_bins_hz[col]),
            float(p[row, col]))


@dataclass(frozen=True)
class AmbiguityLimits:
    """Unambiguous extents and resolutions of a sensing scheme."""

    max_delay_symbols: int
    max_doppler_hz: float
    max_range_m: float
    max_velocity_m_s: float
    range_resolution_m: float
    velocity_resolution_m_s: float
    doppler_resolution_hz: float


def _ambiguity_limits(guard_length: int, bandwidth_hz: float, wavelength_m: float,
                      max_doppler_hz: float, integration_length: int) -> AmbiguityLimits:
    """Limits of a scheme whose delays reach the guard and whose Doppler span
    and integration length (samples) are its own: range c tau/2 and c/2B,
    velocity lambda f/2, Doppler resolution 1/(n T_s)."""
    t_s = 1.0 / bandwidth_hz
    doppler_res = 1.0 / (integration_length * t_s)
    return AmbiguityLimits(
        max_delay_symbols=guard_length,
        max_doppler_hz=max_doppler_hz,
        max_range_m=C_LIGHT * guard_length * t_s / 2.0,
        max_velocity_m_s=max_doppler_hz * wavelength_m / 2.0,
        range_resolution_m=C_LIGHT / (2.0 * bandwidth_hz),
        velocity_resolution_m_s=doppler_res * wavelength_m / 2.0,
        doppler_resolution_hz=doppler_res)


def dam_ambiguity_limits(scenario: ScenarioConfig) -> AmbiguityLimits:
    """Aligned-waveform limits: delays up to the guard, Doppler up to half the
    symbol rate, Doppler resolution 1/(N T_s)."""
    return _ambiguity_limits(scenario.guard_length, scenario.bandwidth_hz,
                             scenario.wavelength_m, 0.5 / scenario.symbol_duration_s,
                             scenario.data_length)


def export_map_csv(path, ddmap: DelayDopplerMap, comments=()) -> None:
    """Write a map as CSV: Doppler frequencies across the header row, delay
    bins down the first column, cells as |r|^2 in dB."""
    p_db = 10.0 * np.log10(np.maximum(ddmap.power(), 1e-300))
    with open(Path(path), "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["delay_bin"] + [repr(float(f))
                                         for f in ddmap.grid.doppler_bins_hz])
        for i, d in enumerate(ddmap.grid.delay_bins):
            writer.writerow([int(d)] + [repr(float(v)) for v in p_db[i]])
