"""OFDM radar baseline for head-to-head comparison with the aligned waveform.

The beamformed transmit with its cyclic prefixes, built one symbol at a time,
and its receiver: drop each prefix, then a K-point DFT. The echo goes through
the aligned waveform's target channel (channel.apply_radar_channel), either
from the M-row stream or from the one-row stream of the beamformer a^H W that
the target sees. FFT delay-Doppler estimation and ambiguity limits; the
analytic output SNR is sensing.sensing_snr with (I, sigma^2 / K). The
transmit's peak-to-average ratio (up to K subcarriers, against L delayed
streams; waveform.papr_empirical) sets the power amplifier backoff under a
peak-power limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, steering_vector
from .sensing import AmbiguityLimits, _ambiguity_limits


# Doppler shift, as a fraction of the subcarrier spacing, up to which the FFT
# estimator's assumption of no inter-carrier interference holds
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
    def steered(cls, scenario: ScenarioConfig, num_subcarriers: int,
                theta: float) -> "OfdmConfig":
        """The scenario's transmit power P split equally over the K subcarriers,
        each beamformed at theta, w_k = sqrt(P / (K M)) a(theta) — the
        sensing-optimal configuration."""
        k, m = num_subcarriers, scenario.num_antennas
        w = np.sqrt(scenario.transmit_power_w / k / m) * steering_vector(theta, m)
        return cls(bandwidth_hz=scenario.bandwidth_hz, guard_length=scenario.guard_length,
                   block_length=scenario.block_length,
                   beamformers=np.tile(w[:, None], (1, k)))


def ofdm_delay_doppler_estimate(symbols_rx: np.ndarray, cfg: OfdmConfig,
                                tx_symbols: np.ndarray):
    """Classic FFT processing of the (K, I) echo symbols: divide out the known
    symbols, inverse DFT across subcarriers for delay, DFT across symbols for
    Doppler.

    Returns (tau_hat, doppler_hat_hz, peak_power). The Doppler axis is only
    unambiguous within +-1/(2 T_o); anything faster aliases.
    """
    tx_symbols = np.asarray(tx_symbols, dtype=complex)
    if tx_symbols.shape != np.shape(symbols_rx):
        raise ValueError("tx_symbols shape does not match the echo")
    if np.any(np.abs(tx_symbols) < 1e-12):
        raise ValueError("zero symbols cannot be divided out; use PSK pilots")
    z = symbols_rx / tx_symbols
    power = np.abs(np.fft.fft(np.fft.ifft(z, axis=0), axis=1)) ** 2
    row, col = np.unravel_index(int(np.argmax(power)), power.shape)
    doppler_hat = np.fft.fftfreq(cfg.symbols_per_block, d=cfg.total_symbol_duration_s)[col]
    return float(row * cfg.sample_duration_s), float(doppler_hat), float(power[row, col])


def ofdm_ambiguity_limits(cfg: OfdmConfig, wavelength_m: float) -> AmbiguityLimits:
    """OFDM limits, where the FFT estimator's assumptions hold: delays up to
    the cyclic prefix (no inter-symbol interference), Doppler up to
    _DOPPLER_TOLERANCE_FRACTION of the subcarrier spacing (no inter-carrier
    interference), Doppler resolution 1/(N_c T_s). The echo itself is exact
    everywhere; past these limits it carries the interference."""
    return _ambiguity_limits(cfg.guard_length, cfg.bandwidth_hz, wavelength_m,
                             _DOPPLER_TOLERANCE_FRACTION * cfg.subcarrier_spacing_hz,
                             cfg.block_length)


def ofdm_time_domain(cfg: OfdmConfig, freq_symbols: np.ndarray) -> np.ndarray:
    """Beamformed transmit (M, I (K + N_p)) of the (K, I) frequency symbols.

    Symbol i is x[n] = sum_k w_k X_{k,i} e^{j2 pi k n / K}, K times the inverse
    DFT, so a sample carries sum_k ||w_k||^2 = P on average for unit-power
    symbols. Each symbol is sent from n = -N_p, so its cyclic prefix repeats
    the body's last N_p samples, cyclically when N_p > K. A config whose
    beamformers are the one row a^H(theta) W gives the (1, I (K + N_p))
    stream a^H(theta) x[n] that a target at theta sees.
    """
    freq_symbols = np.asarray(freq_symbols, dtype=complex)
    k, i = cfg.num_subcarriers, cfg.symbols_per_block
    if freq_symbols.shape != (k, i):
        raise ValueError(f"freq_symbols must be ({k}, {i}), got {freq_symbols.shape}")
    order = np.arange(-cfg.guard_length, k) % k
    stream = np.empty((cfg.num_antennas, i, k + cfg.guard_length), dtype=complex)
    # symbol by symbol: an (M, I, K) product and its transform would each be
    # as large as the stream
    for s in range(i):
        body = np.fft.ifft(cfg.beamformers * freq_symbols[:, s], axis=1, norm="forward")
        stream[:, s] = body[:, order]
    return stream.reshape(cfg.num_antennas, -1)


def ofdm_demodulate(cfg: OfdmConfig, echo: np.ndarray) -> np.ndarray:
    """(K, I) cells of a received stream of I (K + N_p) samples: each symbol's
    cyclic prefix dropped, then the DFT / K of the K samples after it."""
    echo = np.asarray(echo, dtype=complex)
    k, n_p, i = cfg.num_subcarriers, cfg.guard_length, cfg.symbols_per_block
    if echo.shape != (i * (k + n_p),):
        raise ValueError(f"echo must have {i * (k + n_p)} samples, got shape {echo.shape}")
    return np.fft.fft(echo.reshape(i, k + n_p)[:, n_p:], axis=1, norm="forward").T
