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
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError
from .units import C_LIGHT


def complex_normal(rng: np.random.Generator, shape=(), variance: float = 1.0):
    """Circularly symmetric complex Gaussian samples CN(0, variance).

    The real parts are drawn first, then the imaginary parts, straight into
    the one complex array, which is scaled in place.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(variance / 2.0)
    return z[()]                        # a complex scalar for shape ()


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
    return np.exp(2j * np.pi * 0.5 * m * np.sin(theta)[..., None])


def _whole_symbols(name: str, duration_s: float, bandwidth_hz: float) -> int:
    """A duration as a count of symbol periods; anything but a whole number of
    them (to 1e-6 relative) is rejected rather than silently rounded."""
    n = duration_s * bandwidth_hz
    if not np.isfinite(n) or abs(n - round(n)) > 1e-6 * max(1.0, n):
        raise ConfigError(f"{name} is not an integer number of symbol periods")
    return int(round(n))


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
        n_c = _whole_symbols("scenario.coherence_time_s", self.coherence_time_s,
                             self.bandwidth_hz)
        if n_c - self.guard_length < 1:
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

    @property
    def guard_time_s(self) -> float:
        return self.guard_length * self.symbol_duration_s

    @classmethod
    def from_timing(cls, bandwidth_hz: float, carrier_frequency_hz: float,
                    coherence_time_s: float, guard_time_s: float,
                    num_antennas: int, transmit_power_w: float,
                    noise_power_w: float) -> "ScenarioConfig":
        """Build a scenario with the guard given as a whole number of symbol
        periods' duration."""
        guard_length = _whole_symbols("scenario.guard_time_s", guard_time_s, bandwidth_hz)
        return cls(num_antennas, bandwidth_hz, carrier_frequency_hz, coherence_time_s,
                   guard_length, transmit_power_w, noise_power_w)

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
    """Whether the entries of a 1-D integer array are pairwise distinct.

    A set over the Python ints, not numpy's unique(): in numpy 2.4 that calls
    numpy.ma.is_masked, so its first call imports numpy.ma (16-19 ms and about
    1 MB in a fresh process), which nothing else in a run needs.
    """
    items = values.tolist()
    return len(set(items)) == len(items)


@dataclass
class MultipathChannel:
    """Frequency-selective MISO channel: L path vectors with integer delays.

    path_vectors has shape (L, M) with row l the spatial response h_l of the
    path delayed by path_delays[l] symbols. Delays are pairwise distinct and
    non-negative; paths generated with equal binned delay must be merged by
    summing their vectors before construction.
    """

    path_vectors: np.ndarray
    path_delays: np.ndarray

    def __post_init__(self):
        self.path_vectors = np.asarray(self.path_vectors, dtype=complex)
        self.path_delays = np.asarray(self.path_delays, dtype=int)
        if self.path_vectors.ndim != 2:
            raise ValueError("path_vectors must be a 2-D (L, M) array")
        if self.path_delays.shape != (self.path_vectors.shape[0],):
            raise ValueError("path_delays length must match the number of path vectors")
        if self.path_vectors.shape[0] < 1:
            raise ValueError("at least one path is required")
        if np.any(self.path_delays < 0):
            raise ValueError("path delays must be non-negative")
        if not _distinct(self.path_delays):
            raise ValueError("path delays must be pairwise distinct (merge equal-delay paths)")

    @property
    def num_paths(self) -> int:
        return self.path_vectors.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.path_vectors.shape[1]

    @property
    def max_delay(self) -> int:
        return int(self.path_delays.max())

    @classmethod
    def from_directions(cls, directions, delays, num_antennas: int,
                        coefficients=None) -> "MultipathChannel":
        """Deterministic channel with one plane wave per path.

        Used for fixed-geometry studies; coefficients default to 1.
        """
        directions = np.atleast_1d(np.asarray(directions, dtype=float))
        if coefficients is None:
            coefficients = np.ones(directions.shape[0], dtype=complex)
        vecs = np.asarray(coefficients)[:, None] * steering_vector(directions, num_antennas)
        return cls(vecs, np.asarray(delays, dtype=int))


def generate_multipath_channel(scenario: ScenarioConfig, gen: ChannelGenConfig,
                               rng: np.random.Generator) -> MultipathChannel:
    """Draw a random clustered multipath channel.

    Path l is h_l = beta_l * sum_i nu_li * a(theta_li) with mu_l sub-paths,
    mu_l uniform on {1..max_subpaths}, AoDs uniform on the configured sector,
    nu_li ~ CN(0, 1/mu_l) and beta_l ~ CN(0, 1/L), so the expected total
    channel energy sum_l E||h_l||^2 = M regardless of L. Delays are distinct
    integers uniform on [0, guard_length], always including 0 for the first
    arrival. This is the one-stream case of `generate_multipath_channels`.

    Args:
        scenario: Array size and guard length.
        gen: Path/sub-path counts and AoD sector.
        rng: Random generator; the draw is fully determined by its state.

    Returns:
        MultipathChannel.
    """
    return generate_multipath_channels(scenario, gen, [rng])[0]


def generate_multipath_channels(scenario: ScenarioConfig, gen: ChannelGenConfig,
                                rngs: Sequence[np.random.Generator]) -> List[MultipathChannel]:
    """One `generate_multipath_channel` draw from each generator, as a stack.

    Each stream is drawn in full before the next, in its seeded order: the
    delays, then path by path mu_l, its angles, nu_l and beta_l; a generator
    listed twice gives its next channel. Only the steering vectors and the
    sub-path sums wait for the whole stack: nu is zero-padded to max_subpaths
    and added one sub-path at a time, in the order a loop rounds it, so
    beside the O(B L max_subpaths) draws the sum holds O(B L M) values at
    once. The channels are views of one (B, L, M) array.
    """
    num_paths, num_subpaths = gen.num_paths, gen.max_subpaths
    if num_paths > scenario.guard_length + 1:
        raise ConfigError(f"scenario.guard_length={scenario.guard_length}: num_paths="
                          f"{num_paths} distinct delays do not fit in [0, guard_length]")
    lo, hi = gen.aod_sector
    delays = np.zeros((len(rngs), num_paths), dtype=int)
    angles = np.zeros((len(rngs), num_paths, num_subpaths))
    nu = np.zeros((len(rngs), num_paths, num_subpaths), dtype=complex)
    beta = np.empty((len(rngs), num_paths), dtype=complex)
    for b, rng in enumerate(rngs):
        if num_paths > 1:
            delays[b, 1:] = np.sort(rng.choice(np.arange(1, scenario.guard_length + 1),
                                               size=num_paths - 1, replace=False))
        for l in range(num_paths):
            mu = int(rng.integers(1, num_subpaths + 1))
            angles[b, l, :mu] = rng.uniform(lo, hi, size=mu)
            nu[b, l, :mu] = complex_normal(rng, (mu,), variance=1.0 / mu)
            beta[b, l] = complex_normal(rng, (), variance=1.0 / num_paths)
    vectors = np.zeros((len(rngs), num_paths, scenario.num_antennas), dtype=complex)
    for i in range(num_subpaths):
        vectors += nu[..., i, None] * steering_vector(angles[..., i], scenario.num_antennas)
    return [MultipathChannel(v, d) for v, d in zip(beta[..., None] * vectors, delays)]


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
    """Delay a sequence by k samples, filling the front with zeros."""
    if k == 0:
        return x.copy()
    out = np.zeros_like(x)
    if k < x.shape[-1]:
        out[..., k:] = x[..., :x.shape[-1] - k]
    return out


def apply_comm_channel(channel: MultipathChannel, tx_block: np.ndarray,
                       noise_power: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Propagate a transmit block through the multipath channel.

    Output sample n is sum_l h_l^H x[n - n_l] + z[n], with the zero-prefix
    convention for samples before the block start.

    Args:
        channel: Multipath channel bound to the same array size.
        tx_block: (M, N) transmit matrix, one column per symbol instant.
        noise_power: AWGN variance per sample; 0 disables noise.
        rng: Required when noise_power > 0.

    Returns:
        Complex received sequence of length N.
    """
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
