"""Delay-Doppler matched-filter processing of the aligned-waveform echo.

The per-block echo is correlated against unit-norm templates built from the
known transmit block: a spatial projection onto the probe direction, a probe
delay shift, and a probe Doppler ramp. Because the per-path delay schedule is
pairwise distinct, the aligned streams decorrelate away from the true delay
and the peak carries the full block integration gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ScenarioConfig, _shift_zero_prefix, steering_vector
from .units import C_LIGHT
from .waveform import DamBeamformer, SymbolBlock, projected_dam_block


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
        # written so that a NaN bin fails too
        if not np.all((self.doppler_bins_hz > -half - 1e-9 * half) &
                      (self.doppler_bins_hz <= half + 1e-9 * half)):
            raise ValueError("Doppler bins must lie within (-1/(2 T_s), 1/(2 T_s)]")

    @property
    def doppler_resolution_hz(self) -> float:
        return 1.0 / (self.block_length * self.symbol_duration_s)

    @property
    def shape(self):
        return (self.delay_bins.size, self.doppler_bins_hz.size)

    @classmethod
    def survey(cls, guard_length: int, block_length: int,
               symbol_duration_s: float) -> "SensingGrid":
        """All delays in [0, guard] and a coarse Doppler sweep of the full
        unambiguous interval. Its 129 bins are 1/(128 T_s) apart, so their
        offsets from the first bin are whole cycles over every 128 samples,
        and delay_doppler_map folds the map at the least multiple of 128
        samples that holds the guard + 1 delays (256 at the default guard of
        200) instead of running it in blocks."""
        half = 0.5 / symbol_duration_s
        return cls(np.arange(guard_length + 1),
                   np.linspace(-half, half, 129),
                   symbol_duration_s, block_length)

    @classmethod
    def refine(cls, delay_center: int, doppler_center_hz: float, block_length: int,
               symbol_duration_s: float, delay_half_width: int = 8) -> "SensingGrid":
        """Resolution-spaced window around a coarse (delay, Doppler) estimate:
        the delays within delay_half_width and the 8 Doppler bins of 1/(N T_s)
        each side, clipped to the delays inside the block and to
        (-1/(2 T_s), 1/(2 T_s)]."""
        lo = max(0, delay_center - delay_half_width)
        delays = np.arange(lo, min(delay_center + delay_half_width + 1, block_length))
        step = 1.0 / (block_length * symbol_duration_s)
        dops = doppler_center_hz + step * np.arange(-8, 9)
        half = 0.5 / symbol_duration_s
        dops = dops[(dops > -half) & (dops <= half)]
        return cls(delays, dops, symbol_duration_s, block_length)


@dataclass
class DelayDopplerMap:
    """Matched-filter outputs r over a SensingGrid (complex, delay-major).

    values is one (P, Q) map, or a (..., P, Q) stack of maps, 16 P Q bytes
    each, that estimate_delay_doppler picks one by one.
    """

    values: np.ndarray
    grid: SensingGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[-2:] != self.grid.shape:
            raise ValueError("map values do not match grid shape")

    def power(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def matched_filter_template(bf: DamBeamformer, block: SymbolBlock, theta: float,
                            delay_bin: int, doppler_hz: float,
                            symbol_duration_s: float) -> np.ndarray:
    """Unit-norm template for one (direction, delay, Doppler) probe cell."""
    if delay_bin < 0:
        raise ValueError("delay_bin must be >= 0")
    base = _shift_zero_prefix(projected_dam_block(block, bf, theta), int(delay_bin))
    n = base.size
    ramp = np.exp(2j * np.pi * doppler_hz * symbol_duration_s * np.arange(n))
    t = base * ramp
    # numpy's pairwise sum, not np.linalg.norm: BLAS splits a long dot product
    # over its threads, so its rounding would depend on the thread count
    norm = np.sqrt(np.sum(t.real ** 2 + t.imag ** 2))
    if norm == 0:
        raise ValueError("zero template: probe delay pushes the waveform out of the block")
    return t / norm


_MAP_BLOCK = 4096   # samples n per matrix product of the blocked delay_doppler_map
# _FOLD_TOL is per sample. An offset c_q - c_0 between two Doppler cycle
# values (|c| <= 1/2 cycle per sample) carries at most 1.5 eps of rounding,
# and scaling it to a period of D_0 samples 0.5 eps D_0 more. So
# (c_q - c_0) D_0 counts as whole within _FOLD_TOL D_0 = 4 eps D_0 cycles,
# twice that bound; a survey grid is off by at most 1 eps D_0. A grid 1e-9
# cycles per 4 096 samples off period is 2.4e-13 = 1100 eps per sample off,
# and does not fold.
_FOLD_TOL = 4 * np.finfo(float).eps


def _denominator(x: float, n: int) -> int | None:
    """The least q <= n with x q within _FOLD_TOL q of a whole number p, or
    None. For q below 1/sqrt(8 eps) = 2.4e7 such a p/q is within 1/(2 q^2) of
    x, so it is a convergent of x's continued fraction (Legendre), and the
    convergents are tried in turn."""
    p0, q0, p1, q1, r = 0, 1, 1, 0, x
    while True:
        a = math.floor(r)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > n:
            return None
        if abs(x * q1 - p1) <= _FOLD_TOL * q1:
            return q1
        if r == a:
            return None
        r = 1.0 / (r - a)


def _fold_size(grid: SensingGrid) -> int | None:
    """The fold size D of delay_doppler_map for this grid, or None when the
    map runs in blocks.

    The period D_0 is the least number of samples over which every offset
    c_q - c_0 (cycles per sample) is a whole number of cycles, within
    _FOLD_TOL D_0: the lcm of each offset's least such count. D is the least
    multiple of D_0 that is at least the delay span. The grid folds when the
    echo holds J >= 2 periods of D samples and the D x span folded sums are
    no larger than the P x B rows the blocked map fills, B = min(_MAP_BLOCK, N).
    """
    n, delays = grid.block_length, grid.delay_bins
    if delays.size == 0 or grid.doppler_bins_hz.size == 0:
        return None
    # c_q - c_0 in the map's arithmetic, f_q T_s - f_0 T_s
    ts, bins = grid.symbol_duration_s, grid.doppler_bins_hz.tolist()
    period = 1
    for f in bins:
        q = _denominator(f * ts - bins[0] * ts, n)
        if q is None:
            return None
        period = math.lcm(period, q)
        if period >= n:
            return None
    span = int(delays.max() - delays.min()) + 1
    d = -(-span // period) * period
    if d >= n or d * span > delays.size * min(_MAP_BLOCK, n):
        return None
    return d


def delay_doppler_map(echo: np.ndarray, bf: DamBeamformer, block: SymbolBlock,
                      theta: float, grid: SensingGrid) -> DelayDopplerMap:
    """Correlate an (N,) echo against templates over the grid.

    Cell (p, q) holds r = <template(p, q), echo>; with the template unit-norm
    the noise in every cell keeps the per-sample variance sigma^2. The norms
    come from one running sum of |base|^2 in either branch below. Beside the
    echo, one N-length copy of the waveform enters either branch: base is
    dropped once its energies are summed and its zero-led conjugate, which
    both read, is written.

    With c_q = f_q T_s, a grid whose offsets c_q - c_0 are whole numbers of
    cycles over D_0 samples, as the survey's are over 128, folds at its fold
    size D (see _fold_size). With n = j D + k, r(p, q) = sum_k
    e^{-j2 pi c_q k} sum_j conj(base[j D + k - p]) e^{-j2 pi c_0 j D} echo[n].
    One batched matrix product takes the inner sums for every residue k < D
    and delay p, each residue's span x J windows read in place, and one
    P x D by D x Q product the outer ones: O(N span + P D Q) work and
    O(N + D span + D Q) memory beside O(P Q) for the values. Its
    reductions run in BLAS, so their rounding may depend on the BLAS thread
    count; no CLI CSV uses a folded grid (the experiments' windows are
    1/(N T_s) apart, so D_0 = N).

    Every other grid runs in blocks of B = _MAP_BLOCK samples: each block
    takes one P x B by B x Q matrix product and its phase row
    e^{-j2 pi f_q T_s s} at its start s, for O(P N Q) work. The B x Q kernel
    is built once per call and one P x B work buffer serves every block, so
    the memory is O((P + Q) B) beside O(N + span) for the waveform and
    O(P Q) for the values.
    """
    echo = np.asarray(echo, dtype=complex)
    n = grid.block_length
    if echo.shape != (n,):
        raise ValueError(f"echo must have shape ({n},), got {echo.shape}")
    base = projected_dam_block(block, bf, theta)
    if base.size != n:
        raise ValueError("grid block_length does not match the symbol block")
    delays = grid.delay_bins
    norms = _template_norms(base, delays)
    fold = _fold_size(grid)
    # conj(base[m]) sits at m + hi, zeros before it. A delay p >= lo meets the
    # echo only through base[:n - lo]; the zeros after it run to the last
    # sample a window reads, n + hi - lo, or the folded map's periods of d.
    lo, hi = int(delays.min(initial=n)), int(delays.max(initial=0))   # n, 0 with no delays
    length = n if fold is None else -(-n // fold) * fold
    conj_base = np.zeros(length + hi - lo, dtype=complex)
    np.conjugate(base[:n - lo], out=conj_base[hi:hi + n - lo])
    del base
    cycles = grid.doppler_bins_hz * grid.symbol_duration_s
    if fold is None:
        values = _blocked_map(echo, conj_base, delays, cycles)
    else:
        values = _folded_map(echo, conj_base, delays, cycles, fold)
    values /= norms[:, None]
    return DelayDopplerMap(values, grid)


def _template_norms(base, delays):
    """||base[:N - p]|| of each delay's template, from one running sum of
    |base|^2; a template with no energy raises."""
    n = base.size
    energy = np.zeros(n + 1)
    np.cumsum(base.real ** 2 + base.imag ** 2, out=energy[1:])
    norms = np.sqrt(energy[np.maximum(n - delays, 0)])
    if np.any(norms == 0):
        raise ValueError("zero template: probe delay pushes the waveform out of the block")
    return norms


def template_gram(seen: np.ndarray, grid: SensingGrid) -> np.ndarray:
    """G = T^H T, the (P Q, P Q) Gram matrix of delay_doppler_map's unit-norm
    templates T over a grid whose Doppler bins are f_0 + q / (N T_s), q < Q,
    in its delay-major cell order, for seen = projected_dam_block(block, bf,
    theta).

    For p >= p', d = p - p' and c = (q - q') / N, entry (p q, p' q') is
    e^{-j2 pi c p'} (R_d(c) - tail) / (||seen[:N - p]|| ||seen[:N - p']||),
    where R_d(c) = sum_{m=d}^{N-lo-1} conj(seen[m - d]) seen[m] e^{-j2 pi c m},
    lo is the least delay, and the tail is R_d's terms at m >= N - p', at most
    hi - lo of them. One lag product, the blocked map of seen[:N - lo] at lags
    0..hi - lo, gives every R_d(c), and one table e^{j2 pi c t}, t = lo..hi,
    the tails' phases and the factors e^{-j2 pi c p'}. The p < p' entries are
    conjugate transposes, so G is exactly Hermitian.
    """
    seen = np.asarray(seen, dtype=complex)
    n, delays, (num_p, num_q) = grid.block_length, grid.delay_bins, grid.shape
    if seen.shape != (n,):
        raise ValueError(f"seen must have shape ({n},), got {seen.shape}")
    steps = (grid.doppler_bins_hz - grid.doppler_bins_hz[:1]) / grid.doppler_resolution_hz
    if np.any(np.abs(steps - np.arange(num_q)) > 1e-6):
        raise ValueError("template_gram needs the Doppler bins f_0 + q / (N T_s), q = 0..Q-1")
    norms = _template_norms(seen, delays)
    lo, hi = int(delays.min()), int(delays.max())
    span, k = hi - lo, np.arange(1 - num_q, num_q)
    conj_seen = np.zeros(n - lo + span, dtype=complex)   # zero-led as the map's
    np.conjugate(seen[:n - lo], out=conj_seen[span:])
    lags = _blocked_map(seen[:n - lo], conj_seen, np.arange(span + 1), k / n)
    # table[t - lo, k] = e^{j2 pi k t / N}, its argument reduced mod N in integers
    table = np.exp(2j * np.pi * (np.outer(np.arange(lo, hi + 1), k) % n) / n)
    # R_d's terms at m = N - lo - 1 - r, r < span, from the end of the block
    # back, each with its phase e^{-j2 pi c m} = table[1 + r]; tails[d, r]
    # sums the last r of them, the tail of p' = lo + r
    m = np.arange(n - lo - 1, n - hi - 1, -1)
    terms = conj_seen[span + m - np.arange(span + 1)[:, None]] * seen[m]
    tails = np.zeros((span + 1, span + 1, k.size), dtype=complex)
    np.cumsum(terms[:, :, None] * table[1:], axis=1, out=tails[:, 1:])
    i, j = np.nonzero(delays[:, None] >= delays)
    d, t = delays[i] - delays[j], delays[j] - lo
    sums = (lags[d] - tails[d, t]) * np.conj(table[t]) / (norms[i] * norms[j])[:, None]
    blocks = sums[:, np.subtract.outer(np.arange(num_q), np.arange(num_q)) + num_q - 1]
    gram = np.empty((num_p, num_q, num_p, num_q), dtype=complex)
    gram[j, :, i] = np.conj(blocks.transpose(0, 2, 1))
    gram[i, :, j] = blocks
    # the lower triangle, its conjugate transpose and the real diagonal
    gram = gram.reshape(num_p * num_q, -1)
    low = np.tril(gram, -1)
    return low + low.conj().T + np.diag(gram.diagonal().real)


def _folded_map(echo, conj_base, delays, cycles, d):
    """The (P, Q) sums of delay_doppler_map at fold size d, from its
    zero-led conjugate waveform."""
    n = echo.size
    hi = int(delays.max())
    span, periods = hi - int(delays.min()) + 1, -(-n // d)
    # Window row s, entry i is conj(base[s + i - hi]): delay hi - i at sample
    # s. As (d, periods, span) each residue's rows are d apart, and d >= span
    # lets BLAS read them in place.
    windows = sliding_window_view(conj_base, span).reshape(periods, d, span).transpose(1, 0, 2)
    # for n = j d + k, e^{-j2 pi c_q n} = e^{-j2 pi c_0 j d} e^{-j2 pi c_q k}, as
    # (c_q - c_0) j d is whole: the first factor, its argument reduced mod 1,
    # scales period j of the echo (zero-padded and laid out as (periods, d)),
    # the second is the d x Q kernel
    shifted = np.zeros((periods, d), dtype=complex)
    shifted.reshape(-1)[:n] = echo
    shifted *= np.exp(-2j * np.pi * (cycles[0] * np.arange(0, periods * d, d) % 1.0))[:, None]
    # one 1 x periods by periods x span product per residue
    sums = np.matmul(shifted.T[:, None], windows)[:, 0]
    del shifted, windows
    rows = np.take(sums, hi - delays, axis=1)
    del sums
    kernel = np.exp(-2j * np.pi * (np.outer(np.arange(d), cycles) % 1.0))
    return rows.T @ kernel


def _blocked_map(echo, conj_base, delays, cycles):
    """The (P, Q) sums of delay_doppler_map in blocks of _MAP_BLOCK
    samples, from its zero-led conjugate waveform."""
    n = echo.size
    # r(p, q) = sum_n conj(base[n-p]) e^{-j2 pi f_q Ts n} echo[n]. With n = s + k
    # the phase splits into e^{-j2 pi f_q Ts s} per block start s and a B x Q
    # kernel over k < B shared by every block.
    b = min(_MAP_BLOCK, n)
    lead = delays.max(initial=0)
    # kernel[k, q] = e^{-j2 pi f_q Ts k} as the product of its factors at
    # 64 (k // 64) and k % 64: 2 b/64 rows of exponentials instead of b
    fine = np.exp(-2j * np.pi * np.outer(np.arange(64), cycles))
    coarse = np.exp(-2j * np.pi * np.outer(np.arange(0, b, 64), cycles))
    kernel = (coarse[:, None, :] * fine).reshape(coarse.shape[0] * 64, cycles.size)[:b]
    work = np.empty((delays.size, b), dtype=complex)
    values = np.zeros((delays.size, cycles.size), dtype=complex)
    for s in range(0, n, b):
        w = min(b, n - s)
        if w < b:                       # the last block, zero-padded to B
            work[:, w:] = 0
        # one product per delay into its row of the buffer, the row of delay
        # p in the block at s starting at s + lead - p: indexing or
        # broadcasting the windows would build a second P x B array
        for i, start in enumerate(s + lead - delays):
            np.multiply(conj_base[start:start + w], echo[s:s + w], out=work[i, :w])
        values += (work @ kernel) * np.exp(-2j * np.pi * cycles * s)
    return values


def sensing_snr(beam_matrix: np.ndarray, theta: float, gain: complex,
                block_length: int, noise_power: float):
    """Matched-filter output SNR |alpha|^2 N a^H F F^H a / sigma^2.

    A float for one beam matrix F (M, L); an array (B,) for a stack (B, M, L).
    It serves OFDM too: its (M, K) beamformers integrate over its I symbols,
    with noise sigma^2 / K per cell, so N = I and noise_power = sigma^2 / K.
    """
    beam_matrix = np.asarray(beam_matrix, dtype=complex)
    a = steering_vector(theta, beam_matrix.shape[-2])
    agg = np.sum(np.abs(np.conj(a) @ beam_matrix) ** 2, axis=-1)
    snr = np.abs(gain) ** 2 * block_length * agg / noise_power
    return float(snr) if snr.ndim == 0 else snr


def estimate_delay_doppler(ddmap: DelayDopplerMap):
    """Peak pick: returns (delay_bin, doppler_hz, peak_power).

    Ties, cells within 1e-12 relative of the peak, resolve to the smallest
    delay, then the smallest |Doppler|, then the first cell in delay-major
    order. An int and two floats for one map; for a stack of maps, three
    arrays of the stack's shape, each map picked alone by the same rule, in
    O(P Q) memory per map.
    """
    grid = ddmap.grid
    p = ddmap.power()
    cells = p.reshape(-1, p.shape[-2] * p.shape[-1])
    # the cells in tie order; lexsort is stable, so equal keys keep their
    # delay-major order
    order = np.lexsort((np.tile(np.abs(grid.doppler_bins_hz), grid.shape[0]),
                        np.repeat(grid.delay_bins, grid.shape[1])))
    ties = cells >= cells.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    cell = order[np.argmax(ties[:, order], axis=1)]
    row, col = np.divmod(cell, grid.shape[1])
    stack = p.shape[:-2]
    delay = grid.delay_bins[row].reshape(stack)
    doppler = grid.doppler_bins_hz[col].reshape(stack)
    peak = cells[np.arange(cells.shape[0]), cell].reshape(stack)
    if not stack:
        return int(delay), float(doppler), float(peak)
    return delay, doppler, peak


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
