"""OFDM radar baseline for head-to-head comparison with the aligned waveform.

Per-subcarrier/per-symbol echo model, FFT-based delay-Doppler estimation,
output-SNR accounting, ambiguity limits, and the peak-power-constrained
comparison where each scheme's power amplifier backoff is set by its own
peak-to-average ratio (K subcarriers vs. L delayed streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import RadarTarget, ScenarioConfig, complex_normal, steering_vector
from .sensing import AmbiguityLimits
from .units import C_LIGHT
from .waveform import generate_symbols, papr_empirical


# Doppler shift, as a fraction of the subcarrier spacing, up to which the
# per-subcarrier echo model holds (no inter-carrier interference)
_DOPPLER_TOLERANCE_FRACTION = 0.1


@dataclass
class OfdmConfig:
    """OFDM radar configuration bound to a scenario.

    K subcarriers spaced bandwidth/K apart, cyclic prefix of guard_length
    samples, I = floor(N_c / (K + N_p)) whole symbols per coherence block.
    beamformers holds w_k as column k (M, K); subcarrier k's power is ||w_k||^2.
    """

    bandwidth_hz: float
    guard_length: int
    block_length: int                 # N_c, coherence block in samples
    beamformers: np.ndarray

    def __post_init__(self):
        self.beamformers = np.asarray(self.beamformers, dtype=complex)
        if self.beamformers.ndim != 2 or self.num_subcarriers < 1 or self.guard_length < 0:
            raise ValueError("need (M, K) beamformers, K >= 1 and guard_length >= 0")
        if self.symbols_per_block < 1:
            raise ValueError("coherence block too short for a single OFDM symbol")

    @property
    def num_antennas(self) -> int:
        return self.beamformers.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.beamformers.shape[1]

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.num_subcarriers

    @property
    def symbol_duration_s(self) -> float:
        """Core symbol duration K * T_s = 1 / subcarrier spacing."""
        return self.num_subcarriers / self.bandwidth_hz

    @property
    def sample_duration_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def total_symbol_duration_s(self) -> float:
        """Symbol plus cyclic prefix, (K + N_p) * T_s."""
        return (self.num_subcarriers + self.guard_length) / self.bandwidth_hz

    @property
    def symbols_per_block(self) -> int:
        return self.block_length // (self.num_subcarriers + self.guard_length)

    @classmethod
    def steered(cls, scenario: ScenarioConfig, num_subcarriers: int, theta: float,
                total_power: Optional[float] = None) -> "OfdmConfig":
        """Equal power split with every subcarrier beamformed at theta,
        w_k = sqrt(P_k / M) a(theta) — the sensing-optimal configuration."""
        p = scenario.transmit_power_w if total_power is None else total_power
        k, m = num_subcarriers, scenario.num_antennas
        w = np.sqrt(p / k / m) * steering_vector(theta, m)
        return cls(bandwidth_hz=scenario.bandwidth_hz, guard_length=scenario.guard_length,
                   block_length=scenario.block_length,
                   beamformers=np.tile(w[:, None], (1, k)))


@dataclass
class OfdmEcho:
    """Demodulated echo symbols (K, I) plus model-validity flags."""

    symbols_rx: np.ndarray
    doppler_valid: bool
    delay_valid: bool


def ofdm_radar_rx(cfg: OfdmConfig, target: RadarTarget, tx_symbols: np.ndarray,
                  noise_power: float = 0.0,
                  rng: Optional[np.random.Generator] = None) -> OfdmEcho:
    """Echo symbol (k, i): alpha a^H w_k x_{k,i} e^{j2 pi i T_o f_d} e^{-j2 pi k df tau}.

    Subcarrier and symbol indices are zero-based; the corresponding absolute
    phase offsets are absorbed into the target gain. The additive noise has
    variance sigma^2 / K per demodulated symbol — the per-sample noise power
    sigma^2 after the averaging DFT across the K-sample symbol. Validity
    limits (Doppler within a fraction of the subcarrier spacing, delay within
    the cyclic prefix) are evaluated and flagged, never enforced, so
    degradation outside them can be demonstrated.
    """
    tx_symbols = np.asarray(tx_symbols, dtype=complex)
    k, i = cfg.num_subcarriers, cfg.symbols_per_block
    if tx_symbols.shape != (k, i):
        raise ValueError(f"tx_symbols must be ({k}, {i}), got {tx_symbols.shape}")
    a = steering_vector(target.direction, cfg.num_antennas)
    gains = np.conj(a) @ cfg.beamformers                       # a^H w_k, (K,)
    tau = target.delay_symbols * cfg.sample_duration_s if target.delay_s is None \
        else target.delay_s
    delay_phase = np.exp(-2j * np.pi * cfg.subcarrier_spacing_hz * tau * np.arange(k))
    doppler_phase = np.exp(2j * np.pi * cfg.total_symbol_duration_s *
                           target.doppler_hz * np.arange(i))
    rx = target.gain * gains[:, None] * tx_symbols * \
        delay_phase[:, None] * doppler_phase[None, :]
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        rx = rx + complex_normal(rng, (k, i), variance=noise_power / k)
    return OfdmEcho(symbols_rx=rx,
                    doppler_valid=bool(abs(target.doppler_hz) <=
                                       _DOPPLER_TOLERANCE_FRACTION *
                                       cfg.subcarrier_spacing_hz),
                    delay_valid=bool(0 <= tau <= cfg.guard_length *
                                     cfg.sample_duration_s))


def ofdm_delay_doppler_estimate(echo: OfdmEcho, cfg: OfdmConfig,
                                tx_symbols: np.ndarray):
    """Classic FFT processing: divide out the known symbols, inverse DFT
    across subcarriers for delay, DFT across symbols for Doppler.

    Returns (tau_hat, doppler_hat_hz, peak_power). The Doppler axis is only
    unambiguous within +-1/(2 T_o); anything faster aliases.
    """
    tx_symbols = np.asarray(tx_symbols, dtype=complex)
    if tx_symbols.shape != echo.symbols_rx.shape:
        raise ValueError("tx_symbols shape does not match the echo")
    if np.any(np.abs(tx_symbols) < 1e-12):
        raise ValueError("zero symbols cannot be divided out; use PSK pilots")
    z = echo.symbols_rx / tx_symbols
    profile = np.fft.fft(np.fft.ifft(z, axis=0), axis=1)
    power = np.abs(profile) ** 2
    row, col = np.unravel_index(int(np.argmax(power)), power.shape)
    tau_hat = row * cfg.sample_duration_s
    doppler_hat = float(np.fft.fftfreq(cfg.symbols_per_block,
                                       d=cfg.total_symbol_duration_s)[col])
    return float(tau_hat), doppler_hat, float(power[row, col])


def ofdm_output_snr(cfg: OfdmConfig, theta: float, gain: complex,
                    noise_power: float) -> float:
    """Post-processing SNR |alpha|^2 I sum_k |a^H w_k|^2 / (sigma^2 / K)."""
    a = steering_vector(theta, cfg.num_antennas)
    agg = np.sum(np.abs(np.conj(a) @ cfg.beamformers) ** 2)
    return float(np.abs(gain) ** 2 * cfg.symbols_per_block * agg /
                 (noise_power / cfg.num_subcarriers))


def max_ofdm_output_snr(num_antennas: int, symbols_per_block: int,
                        num_subcarriers: int, total_power: float,
                        gain: complex, noise_power: float) -> float:
    """SNR ceiling |alpha|^2 M I K P / sigma^2, met by steering every
    subcarrier at the target."""
    return float(np.abs(gain) ** 2 * num_antennas * symbols_per_block *
                 num_subcarriers * total_power / noise_power)


def ofdm_ambiguity_limits(cfg: OfdmConfig, wavelength_m: float) -> AmbiguityLimits:
    """OFDM limits: range capped by the cyclic prefix, Doppler (and so
    velocity) by _DOPPLER_TOLERANCE_FRACTION of the subcarrier spacing;
    resolutions c/2B and (lambda/2)/(N_c T_s)."""
    t_s = cfg.sample_duration_s
    max_doppler = _DOPPLER_TOLERANCE_FRACTION * cfg.subcarrier_spacing_hz
    doppler_res = 1.0 / (cfg.block_length * t_s)
    return AmbiguityLimits(
        max_delay_symbols=cfg.guard_length,
        max_doppler_hz=max_doppler,
        max_range_m=C_LIGHT * cfg.guard_length * t_s / 2.0,
        max_velocity_m_s=max_doppler * wavelength_m / 2.0,
        range_resolution_m=C_LIGHT / (2.0 * cfg.bandwidth_hz),
        velocity_resolution_m_s=wavelength_m / (2.0 * cfg.block_length * t_s),
        doppler_resolution_hz=doppler_res)


@dataclass(frozen=True)
class PeakPowerComparison:
    """Output SNRs when each scheme derates average power by its own PAPR."""

    gamma_dam: float
    gamma_ofdm: float
    ratio: float                     # = N / (L * I)
    papr_dam: float                  # = L
    papr_ofdm: float                 # = K


def peak_power_constrained_snr_comparison(cfg: OfdmConfig, dam_block_length: int,
                                          dam_num_paths: int, gain: complex,
                                          noise_power: float,
                                          peak_power: float) -> PeakPowerComparison:
    """Compare SNR ceilings under a common peak-power limit.

    The aligned waveform superposes L delayed streams (PAPR L), OFDM
    superposes K subcarriers (PAPR K), so the usable average powers are
    P_max/L and P_max/K. The SNR ratio collapses to N / (L I): the aligned
    waveform integrates N samples in one block where OFDM integrates I
    symbols of K subcarriers with a K-fold worse backoff.
    """
    if dam_num_paths < 1 or dam_block_length < 1:
        raise ValueError("dam_num_paths and dam_block_length must be >= 1")
    m = cfg.num_antennas
    g2 = np.abs(gain) ** 2
    gamma_dam = g2 * m * dam_block_length * peak_power / (dam_num_paths * noise_power)
    gamma_ofdm = g2 * m * cfg.symbols_per_block * peak_power / noise_power
    return PeakPowerComparison(
        gamma_dam=float(gamma_dam), gamma_ofdm=float(gamma_ofdm),
        ratio=dam_block_length / (dam_num_paths * cfg.symbols_per_block),
        papr_dam=float(dam_num_paths), papr_ofdm=float(cfg.num_subcarriers))


def ofdm_time_domain(freq_symbols: np.ndarray, cp_length: int,
                     include_cp: bool = True) -> np.ndarray:
    """Unit-average-power baseband stream from (K, I) frequency symbols.

    Unitary scaling (per-symbol mean power equals the mean frequency-domain
    symbol power exactly); the cyclic prefix repeats each symbol's tail.
    """
    freq_symbols = np.asarray(freq_symbols, dtype=complex)
    if freq_symbols.ndim != 2:
        raise ValueError("freq_symbols must be (K, I)")
    k = freq_symbols.shape[0]
    time = np.fft.ifft(freq_symbols, axis=0) * np.sqrt(k)
    if include_cp and cp_length > 0:
        time = np.vstack([time[-cp_length:, :], time])
    return time.T.ravel()


def ofdm_papr_empirical(rng: np.random.Generator, num_subcarriers: int,
                        num_symbols: int, modulation: str = "qpsk",
                        cp_length: int = 0) -> float:
    """Measured PAPR of a random PSK OFDM stream (bounded by K)."""
    sym = generate_symbols(rng, num_subcarriers * num_symbols, modulation)
    freq = sym.symbols.reshape(num_subcarriers, num_symbols, order="F")
    return papr_empirical(ofdm_time_domain(freq, cp_length))
