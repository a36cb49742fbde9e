"""Multipath communication and radar round-trip channel models.

Discrete-time baseband models for a MISO link with an M-element uniform
linear array: a frequency-selective multipath channel with per-path integer
symbol delays, and a single-target radar round-trip channel with delay,
Doppler and a radar-equation gain. Delays are kept on the symbol-rate grid
(one bin per 1/B), and samples before the start of a block are zero
(zero-prefix convention).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError
from .units import C_LIGHT


def complex_normal(rng: np.random.Generator, shape=(), variance: float = 1.0):
    """Circularly symmetric complex Gaussian samples CN(0, variance).

    The real parts are drawn first, then the imaginary parts, straight into
    the one complex array, so the draw holds one real part at a time.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return _scaled(z, variance)[()]     # a complex scalar for shape ()


def _scaled(z: np.ndarray, variance) -> np.ndarray:
    """z, with standard normal real and imaginary parts, scaled in place to
    CN(0, variance): each part times sqrt(variance / 2). The complex product
    by the real scale gives each part's real product, up to the sign of a
    zero."""
    z *= np.sqrt(variance / 2.0)
    return z


def steering_vector(theta, num_antennas: int) -> np.ndarray:
    """Transmit steering vector of a half-wavelength uniform linear array.

    Element m carries phase exp(j*2*pi*(d/lambda)*m*sin(theta)) with
    d/lambda = 0.5, m = 0..M-1, so the squared norm is exactly M.

    Args:
        theta: Angle of departure in radians, measured from broadside, or
            an array of them.
        num_antennas: Number of array elements M.

    Returns:
        Complex array of shape (M,), with one row per angle, theta.shape + (M,),
        for an array of angles.
    """
    if not np.isfinite(theta).all():
        raise ValueError("steering angle must be finite")
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    m = np.arange(num_antennas)
    exponent = 2j * np.pi * 0.5 * m * np.sin(theta)[..., None]
    return np.exp(exponent, out=exponent)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical-layer scenario: array size, timing and power budget.

    Timing is symbol-rate based: the symbol period is 1/bandwidth, one
    transmission block spans the channel coherence time (N_c symbols), and
    the first guard_length symbols of each block absorb the maximum channel
    delay spread, leaving N = N_c - guard_length data symbols.
    """

    num_antennas: int
    bandwidth_hz: float
    carrier_frequency_hz: float
    coherence_time_s: float
    guard_length: int            # N_p, in symbols
    transmit_power_w: float
    noise_power_w: float

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ConfigError("scenario.num_antennas must be >= 1")
        for name in ("bandwidth_hz", "carrier_frequency_hz", "coherence_time_s",
                     "transmit_power_w", "noise_power_w"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"scenario.{name} must be positive and finite")
        if self.guard_length < 0:
            raise ConfigError("scenario.guard_length must be >= 0")
        # anything but a whole number of symbol periods (to 1e-6 relative) is
        # rejected rather than silently rounded
        n_c = self.coherence_time_s * self.bandwidth_hz
        if not np.isfinite(n_c) or abs(n_c - round(n_c)) > 1e-6 * max(1.0, n_c):
            raise ConfigError("scenario.coherence_time_s is not an integer number of "
                              "symbol periods")
        if self.data_length < 1:
            raise ConfigError("scenario.guard_length leaves no data symbols in the block")

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def block_length(self) -> int:
        """Total symbols per coherence block, N_c."""
        return int(round(self.coherence_time_s * self.bandwidth_hz))

    @property
    def data_length(self) -> int:
        """Per-block data symbols N = N_c - N_p."""
        return self.block_length - self.guard_length

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.carrier_frequency_hz

    @classmethod
    def mmwave_default(cls, **overrides) -> "ScenarioConfig":
        """Default 28 GHz / 100 MHz scenario.

        64 antennas, 1 ms coherence blocks, 2 us guard (200 symbols),
        30 dBm transmit power, -169 dBm/Hz noise density integrated over
        the bandwidth.
        """
        base = dict(num_antennas=64, bandwidth_hz=100e6,
                    carrier_frequency_hz=28e9, coherence_time_s=1e-3,
                    guard_length=200, transmit_power_w=1.0,
                    noise_power_w=10 ** ((-169.0 - 30.0) / 10.0) * 100e6)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class ChannelGenConfig:
    """Random multipath generation parameters.

    Each path is a cluster of up to max_subpaths plane waves with angles of
    departure drawn uniformly from aod_sector (radians).
    """

    num_paths: int = 5
    max_subpaths: int = 3
    aod_sector: tuple = (-np.pi / 3.0, np.pi / 3.0)

    def __post_init__(self):
        if self.num_paths < 1:
            raise ConfigError("channel.num_paths must be >= 1")
        if self.max_subpaths < 1:
            raise ConfigError("channel.max_subpaths must be >= 1")
        lo, hi = self.aod_sector
        if not (-np.pi / 2 <= lo < hi <= np.pi / 2):
            raise ConfigError("channel.aod_sector_deg must be an increasing pair within "
                              "[-90, 90] (aod_sector: [-pi/2, pi/2] rad)")


def _distinct(values: np.ndarray) -> bool:
    """Whether each row (the last axis) of an integer array has pairwise
    distinct entries: each equals only itself. Not numpy's unique(), whose
    first call in numpy 2.4 imports numpy.ma (16-19 ms, about 1 MB), nor a
    sort, whose first call pages in 0.3 MB of code in ofdm-compare."""
    return np.count_nonzero(values[..., :, None] == values[..., None, :]) == values.size


@dataclass
class MultipathChannel:
    """Frequency-selective MISO channel: L path vectors with integer delays,
    or a stack of B such channels.

    path_vectors has shape (L, M), row l the spatial response h_l of the path
    delayed by path_delays[l] symbols; a stack has (B, L, M) vectors and
    (B, L) delays, validated once, and stack[b] is its channel b. Each
    channel's delays are distinct and non-negative: merge paths of equal
    binned delay by summing their vectors.
    """

    path_vectors: np.ndarray
    path_delays: np.ndarray

    def __post_init__(self):
        self.path_vectors = np.ascontiguousarray(self.path_vectors, dtype=complex)
        self.path_delays = np.asarray(self.path_delays, dtype=int)
        if self.path_vectors.ndim not in (2, 3):
            raise ValueError("path_vectors must be a 2-D (L, M) or 3-D (B, L, M) array")
        if self.path_delays.shape != self.path_vectors.shape[:-1]:
            raise ValueError("path_delays must have one entry per path vector")
        if self.path_vectors.shape[-2] < 1:
            raise ValueError("at least one path is required")
        if np.any(self.path_delays < 0):
            raise ValueError("path delays must be non-negative")
        if not _distinct(self.path_delays):
            raise ValueError("path delays must be pairwise distinct (merge equal-delay paths)")

    def __len__(self) -> int:
        if self.path_vectors.ndim == 2:
            raise TypeError("a single channel is not a stack of channels")
        return self.path_vectors.shape[0]

    def __getitem__(self, b) -> "MultipathChannel":
        len(self)                       # a single channel raises TypeError
        return MultipathChannel(self.path_vectors[b], self.path_delays[b])

    @property
    def num_paths(self) -> int:
        return self.path_vectors.shape[-2]

    @property
    def num_antennas(self) -> int:
        return self.path_vectors.shape[-1]

    @classmethod
    def from_directions(cls, directions, delays, num_antennas: int) -> "MultipathChannel":
        """Deterministic channel with one unit plane wave per path, for
        fixed-geometry studies."""
        return cls(steering_vector(np.atleast_1d(directions), num_antennas), delays)


def generate_multipath_channels(scenario: ScenarioConfig, gen: ChannelGenConfig,
                                rngs: Sequence[np.random.Generator]) -> MultipathChannel:
    """Draw one random clustered multipath channel from each generator, as one
    stack of B = len(rngs) channels, validated once: (B, L, M) C-contiguous
    vectors and (B, L) delays, stack[b] the channel of generator b.

    Path l is h_l = beta_l * sum_i nu_li * a(theta_li) with mu_l sub-paths,
    mu_l uniform on {1..max_subpaths}, AoDs uniform on the configured sector,
    nu_li ~ CN(0, 1/mu_l) and beta_l ~ CN(0, 1/L), so sum_l E||h_l||^2 = M
    for any L. Delays are distinct integers uniform on [0, guard_length], the
    first 0. A channel is fully determined by its generator's state.

    Each stream is drawn in full before the next, in its seeded order: the
    delays, then path by path mu_l, its angles and one standard normal draw
    of 2 mu_l + 2 values (nu_l's real parts, their imaginary parts, beta_l's
    real and imaginary part), each scaled by sqrt(variance / 2) as
    `complex_normal` would; a generator listed twice gives its next channel.
    The scaling, the steering vectors and the sub-path sums wait for the
    whole stack: sub-path i is added to the paths that drew it, one sub-path
    at a time, in the order a loop rounds it, so beside the O(B L
    max_subpaths) draws, in two flat buffers, and the stack it returns, the
    sum holds two (B, L, M) arrays at most: one sub-path's steering vectors,
    scaled in place, and the rows of the stack that drew it.
    """
    num_paths, num_subpaths, m = gen.num_paths, gen.max_subpaths, scenario.num_antennas
    if num_paths > scenario.guard_length + 1:
        raise ConfigError(f"scenario.guard_length={scenario.guard_length}: num_paths="
                          f"{num_paths} distinct delays do not fit in [0, guard_length]")
    lo, hi = gen.aod_sector
    delays = np.zeros((len(rngs), num_paths), dtype=int)
    # the stack's B L paths in a row, each drawn straight after the one before:
    # path p's sub-paths are theta[first[p]:][:mu[p]], its normals
    # z[2 first[p] + 2 p:][:2 mu[p] + 2]
    mus, theta = [], np.empty(len(rngs) * num_paths * num_subpaths)
    z, k, j = np.empty(len(rngs) * num_paths * (2 * num_subpaths + 2)), 0, 0
    for b, rng in enumerate(rngs):
        if num_paths > 1:
            delays[b, 1:] = np.sort(rng.choice(np.arange(1, scenario.guard_length + 1),
                                               size=num_paths - 1, replace=False))
        for _ in range(num_paths):
            mu = int(rng.integers(1, num_subpaths + 1))
            mus.append(mu)
            theta[k:k + mu] = rng.uniform(lo, hi, size=mu)
            rng.standard_normal(out=z[j:j + 2 * mu + 2])
            k, j = k + mu, j + 2 * mu + 2
    mu, theta = np.array(mus, dtype=int), theta[:k]
    first, path = np.cumsum(mu) - mu, np.arange(mu.size)
    nu_re = np.arange(theta.size) + np.repeat(first + 2 * path, mu)
    nu = _scaled(z[nu_re] + 1j * z[nu_re + np.repeat(mu, mu)], np.repeat(1.0 / mu, mu))
    beta_re = 2 * (first + mu + path)
    beta = _scaled(z[beta_re] + 1j * z[beta_re + 1], 1.0 / num_paths)
    vectors = steering_vector(theta[first], m)
    np.multiply(nu[first, None], vectors, out=vectors)
    for i in range(1, num_subpaths):
        drew = np.flatnonzero(mu > i)
        at = first[drew] + i
        term = steering_vector(theta[at], m)
        vectors[drew] += np.multiply(nu[at, None], term, out=term)
    np.multiply(beta[:, None], vectors, out=vectors)
    return MultipathChannel(vectors.reshape(len(rngs), num_paths, m), delays)


@dataclass
class RadarTarget:
    """Point target for the round-trip channel.

    gain is the complex round-trip amplitude alpha (radar equation magnitude,
    uniform phase when drawn from geometry), direction the angle in radians,
    delay_symbols the round-trip delay on the symbol grid, doppler_hz the
    Doppler shift 2*v/lambda.
    """

    gain: complex
    direction: float
    delay_symbols: int
    doppler_hz: float

    def __post_init__(self):
        if self.delay_symbols < 0:
            raise ValueError("delay_symbols must be >= 0")

    @classmethod
    def from_geometry(cls, scenario: ScenarioConfig, range_m: float, rcs_m2: float,
                      direction: float, radial_velocity_m_s: float,
                      rng: Optional[np.random.Generator] = None) -> "RadarTarget":
        """Target from range/RCS/velocity; phase drawn uniform if rng given."""
        if range_m <= 0 or rcs_m2 <= 0:
            raise ValueError("range_m and rcs_m2 must be positive")
        lam = scenario.wavelength_m
        tau = 2.0 * range_m / C_LIGHT
        magnitude = np.sqrt(radar_round_trip_gain(range_m, lam, rcs_m2))
        phase = rng.uniform(0.0, 2.0 * np.pi) if rng is not None else 0.0
        return cls(gain=magnitude * np.exp(1j * phase),
                   direction=direction,
                   delay_symbols=int(round(tau * scenario.bandwidth_hz)),
                   doppler_hz=2.0 * radial_velocity_m_s / lam)


def _check_guard(delay_symbols: int, guard_length: int, strict: bool,
                 prefix: str = "") -> None:
    """The guard rule: a target delay beyond the guard raises (strict) or warns."""
    if delay_symbols > guard_length:
        msg = (f"{prefix}target delay {delay_symbols} exceeds guard length "
               f"{guard_length}: echo spills into the next block")
        if strict:
            raise InfeasibleError(msg)
        warnings.warn(msg, stacklevel=3)


def radar_round_trip_gain(range_m: float, wavelength_m: float, rcs_m2: float) -> float:
    """Round-trip power gain |alpha|^2 = lambda^2 * rcs / ((4 pi)^3 R^4)."""
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    return wavelength_m ** 2 * rcs_m2 / ((4.0 * np.pi) ** 3 * range_m ** 4)


def _shift_zero_prefix(x: np.ndarray, k: int) -> np.ndarray:
    """Delay a sequence by k >= 0 samples, filling the front with zeros."""
    out = np.zeros_like(x)
    out[..., k:] = x[..., :max(x.shape[-1] - k, 0)]
    return out


def apply_comm_channel(channel: MultipathChannel, tx_block: np.ndarray,
                       noise_power: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Propagate a transmit block through the multipath channel.

    Output sample n is sum_l h_l^H x[n - n_l] + z[n], with the zero-prefix
    convention for samples before the block start.

    Args:
        channel: One channel, not a stack, bound to the same array size.
        tx_block: (M, N) transmit matrix, one column per symbol instant.
        noise_power: AWGN variance per sample; 0 disables noise.
        rng: Required when noise_power > 0.

    Returns:
        Complex received sequence of length N.
    """
    if channel.path_vectors.ndim != 2:
        raise ValueError("apply_comm_channel takes one channel, not a stack")
    tx_block = np.asarray(tx_block)
    if tx_block.ndim != 2 or tx_block.shape[0] != channel.num_antennas:
        raise ValueError(
            f"tx_block must be ({channel.num_antennas}, N), got {tx_block.shape}")
    n = tx_block.shape[1]
    y = np.zeros(n, dtype=complex)
    for h, d in zip(channel.path_vectors, channel.path_delays):
        y += _shift_zero_prefix(np.conj(h) @ tx_block, int(d))
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        y += complex_normal(rng, (n,), variance=noise_power)
    return y


def apply_radar_channel(target: RadarTarget, tx_block: np.ndarray,
                        symbol_duration_s: float, noise_power: float = 0.0,
                        rng: Optional[np.random.Generator] = None,
                        guard_length: Optional[int] = None,
                        strict: bool = True) -> np.ndarray:
    """Round-trip echo of a transmit block from a single point target.

    Sample n is alpha * a^H(theta) x[n - n_s] * exp(j*2*pi*f_d*n*T_s) + z[n].
    The Doppler phase ramp is referenced to the first retained sample; the
    absolute phase offset is part of the target gain.

    Args:
        target: Point target (gain, direction, delay, Doppler).
        tx_block: (M, N) transmit matrix, or the (N,) sequence a^H(theta) x[n]
            the target sees (waveform.projected_dam_block), which gives the
            same echo from O(N) work and memory instead of O(M N).
        symbol_duration_s: Sample period T_s of the block.
        noise_power: AWGN variance per sample.
        rng: Required when noise_power > 0.
        guard_length: When given, a target delay beyond it raises (strict)
            or warns (sweep mode) to flag inter-block leakage.
        strict: Selects raise vs. warn for the guard check.

    Returns:
        Complex echo sequence of length N.
    """
    tx_block = np.asarray(tx_block)
    if tx_block.ndim not in (1, 2):
        raise ValueError("tx_block must be (M, N), or the (N,) sequence the target sees")
    if guard_length is not None:
        _check_guard(target.delay_symbols, guard_length, strict)
    seen = tx_block
    if tx_block.ndim == 2:
        seen = np.conj(steering_vector(target.direction, tx_block.shape[0])) @ tx_block
    return _round_trip(target, seen, symbol_duration_s, noise_power, rng)


def _round_trip(target: RadarTarget, seen: np.ndarray, symbol_duration_s: float,
                noise_power: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The echo of the (N,) sequence a^H(theta) x[n] the target sees: its
    delay, Doppler ramp and gain, plus the noise (see apply_radar_channel)."""
    n = seen.shape[-1]
    # gain * delayed * ramp, scaled in place in that operand order: a complex
    # product is not commutative in its last bit under FMA
    y = _shift_zero_prefix(seen, target.delay_symbols)
    ramp = np.arange(n, dtype=complex)
    np.multiply(2j * np.pi * target.doppler_hz * symbol_duration_s, ramp, out=ramp)
    np.exp(ramp, out=ramp)
    np.multiply(target.gain, y, out=y)
    np.multiply(y, ramp, out=y)
    del ramp
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        y += complex_normal(rng, (n,), variance=noise_power)
    return y
