"""Multicarrier radar baseline tests: echo model oracle, FFT estimator,
output-SNR accounting, ambiguity limits, and the peak-power comparison."""

import numpy as np
import pytest

from damisac import (
    OfdmConfig,
    RadarTarget,
    ScenarioConfig,
    complex_normal,
    dam_ambiguity_limits,
    generate_symbols,
    max_ofdm_output_snr,
    ofdm_ambiguity_limits,
    ofdm_delay_doppler_estimate,
    ofdm_output_snr,
    ofdm_papr_empirical,
    ofdm_radar_rx,
    ofdm_time_domain,
    peak_power_constrained_snr_comparison,
    steering_vector,
)
from damisac import ofdm
from damisac.units import C_LIGHT


def small_scenario(**over):
    base = dict(bandwidth_hz=1e8, carrier_frequency_hz=28e9,
                coherence_time_s=1280e-8, guard_time_s=8e-8,
                num_antennas=4, transmit_power_w=1.0, noise_power_w=1.0)
    base.update(over)
    return ScenarioConfig.from_timing(**base)


def qpsk_grid(rng, cfg):
    sym = generate_symbols(rng, cfg.num_subcarriers * cfg.symbols_per_block,
                           "qpsk")
    return sym.symbols.reshape(cfg.num_subcarriers, cfg.symbols_per_block)


def ofdm_rx_loop_oracle(cfg, target, tx_symbols):
    k, i = cfg.num_subcarriers, cfg.symbols_per_block
    a = steering_vector(target.direction, cfg.num_antennas)
    tau = target.delay_symbols * cfg.sample_duration_s
    out = np.zeros((k, i), dtype=complex)
    for kk in range(k):
        g = np.vdot(a, cfg.beamformers[:, kk])
        for ii in range(i):
            out[kk, ii] = (target.gain * g * tx_symbols[kk, ii]
                           * np.exp(-2j * np.pi * kk * cfg.subcarrier_spacing_hz * tau)
                           * np.exp(2j * np.pi * ii * cfg.total_symbol_duration_s
                                    * target.doppler_hz))
    return out


# ----------------------------------------------------------------- echo model

def test_rx_matches_loop_oracle():
    rng = np.random.default_rng(0)
    scen = small_scenario()
    w = complex_normal(rng, (4, 16)) * 0.05
    cfg = OfdmConfig(bandwidth_hz=1e8, guard_length=8, block_length=1280, beamformers=w)
    assert scen.guard_length == 8
    target = RadarTarget(gain=0.3 - 0.7j, direction=0.5, delay_symbols=5,
                         doppler_hz=7e3)
    tx = qpsk_grid(rng, cfg)
    echo = ofdm_radar_rx(cfg, target, tx)
    assert np.allclose(echo.symbols_rx, ofdm_rx_loop_oracle(cfg, target, tx),
                       atol=1e-12)


def test_rx_static_target_has_no_ramps():
    rng = np.random.default_rng(1)
    cfg = OfdmConfig.steered(small_scenario(), 16, theta=0.2)
    target = RadarTarget(gain=1.2, direction=0.2, delay_symbols=0,
                         doppler_hz=0.0)
    tx = qpsk_grid(rng, cfg)
    echo = ofdm_radar_rx(cfg, target, tx)
    a = steering_vector(0.2, 4)
    gains = np.conj(a) @ cfg.beamformers
    assert np.allclose(echo.symbols_rx, 1.2 * gains[:, None] * tx, atol=1e-12)
    assert echo.doppler_valid and echo.delay_valid


def test_rx_validity_flags():
    rng = np.random.default_rng(2)
    cfg = OfdmConfig.steered(small_scenario(), 16, theta=0.0)
    tx = qpsk_grid(rng, cfg)
    fast = RadarTarget(gain=1.0, direction=0.0, delay_symbols=2,
                       doppler_hz=2 * cfg.subcarrier_spacing_hz)
    assert not ofdm_radar_rx(cfg, fast, tx).doppler_valid
    far = RadarTarget(gain=1.0, direction=0.0, delay_symbols=30, doppler_hz=0.0)
    assert not ofdm_radar_rx(cfg, far, tx).delay_valid


def test_rx_noise_variance():
    rng = np.random.default_rng(3)
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.0)
    tx = qpsk_grid(rng, cfg)
    target = RadarTarget(gain=0.0, direction=0.0, delay_symbols=0, doppler_hz=0.0)
    sigma2 = 2.0
    cells = []
    for _ in range(40):
        echo = ofdm_radar_rx(cfg, target, tx, noise_power=sigma2, rng=rng)
        cells.append(np.abs(echo.symbols_rx) ** 2)
    mean = np.mean(cells)
    count = 40 * tx.size
    assert mean == pytest.approx(sigma2 / 32, rel=4.0 / np.sqrt(count))
    with pytest.raises(ValueError):
        ofdm_radar_rx(cfg, target, tx, noise_power=1.0)


def test_rx_shape_validation():
    rng = np.random.default_rng(4)
    cfg = OfdmConfig.steered(small_scenario(), 16, theta=0.0)
    target = RadarTarget(gain=1.0, direction=0.0, delay_symbols=0, doppler_hz=0.0)
    with pytest.raises(ValueError):
        ofdm_radar_rx(cfg, target, complex_normal(rng, (16, 3)))


# --------------------------------------------------------------------- config

def test_config_accounting():
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.1)
    assert (cfg.num_antennas, cfg.num_subcarriers) == (4, 32)
    assert cfg.subcarrier_spacing_hz * cfg.symbol_duration_s == pytest.approx(1.0)
    assert cfg.symbols_per_block == 1280 // (32 + 8)
    # the budget splits equally: subcarrier k carries ||w_k||^2 = P / K
    norms = np.sum(np.abs(cfg.beamformers) ** 2, axis=0)
    assert np.allclose(norms, 1.0 / 32, rtol=1e-12, atol=0)


def test_config_rejects_beams_without_subcarriers():
    for beams in (np.ones(4), np.ones((4, 0))):
        with pytest.raises(ValueError):
            OfdmConfig(bandwidth_hz=1e8, guard_length=4, block_length=512, beamformers=beams)


def test_config_rejects_short_block():
    with pytest.raises(ValueError):
        OfdmConfig.steered(small_scenario(coherence_time_s=30e-8,
                                          guard_time_s=8e-8), 64, theta=0.0)


# ------------------------------------------------------------------ estimator

def test_estimate_on_grid_noiseless_exact():
    rng = np.random.default_rng(6)
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.3)
    i = cfg.symbols_per_block
    doppler = 3.0 / (i * cfg.total_symbol_duration_s)   # on the FFT grid
    target = RadarTarget(gain=0.9, direction=0.3, delay_symbols=5,
                         doppler_hz=doppler)
    tx = qpsk_grid(rng, cfg)
    echo = ofdm_radar_rx(cfg, target, tx)
    tau_hat, f_hat, peak = ofdm_delay_doppler_estimate(echo, cfg, tx)
    assert tau_hat == pytest.approx(5 * cfg.sample_duration_s, rel=1e-12)
    assert f_hat == pytest.approx(doppler, rel=1e-9)
    assert peak > 0


def test_estimate_slow_target_within_one_bin():
    rng = np.random.default_rng(7)
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.0)
    doppler = cfg.subcarrier_spacing_hz / 20.0          # inside the limit
    target = RadarTarget(gain=1.0, direction=0.0, delay_symbols=3,
                         doppler_hz=doppler)
    sigma2 = ofdm_output_snr(cfg, 0.0, 1.0, 1.0) / 316.0   # ~25 dB output SNR
    bin_hz = 1.0 / (cfg.symbols_per_block * cfg.total_symbol_duration_s)
    hits = 0
    for _ in range(100):
        tx = qpsk_grid(rng, cfg)
        echo = ofdm_radar_rx(cfg, target, tx, noise_power=sigma2, rng=rng)
        tau_hat, f_hat, _ = ofdm_delay_doppler_estimate(echo, cfg, tx)
        ok = tau_hat == pytest.approx(3 * cfg.sample_duration_s, rel=1e-9)
        hits += ok and abs(f_hat - doppler) <= bin_hz * (1 + 1e-9)
    assert hits >= 95


def test_estimate_fast_target_aliases():
    rng = np.random.default_rng(8)
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.0)
    doppler = 2.0 * cfg.subcarrier_spacing_hz
    target = RadarTarget(gain=1.0, direction=0.0, delay_symbols=3,
                         doppler_hz=doppler)
    tx = qpsk_grid(rng, cfg)
    echo = ofdm_radar_rx(cfg, target, tx)
    assert not echo.doppler_valid
    _, f_hat, _ = ofdm_delay_doppler_estimate(echo, cfg, tx)
    assert abs(f_hat - doppler) > cfg.subcarrier_spacing_hz


def test_estimate_rejects_zero_symbols():
    rng = np.random.default_rng(9)
    cfg = OfdmConfig.steered(small_scenario(), 16, theta=0.0)
    tx = qpsk_grid(rng, cfg)
    target = RadarTarget(gain=1.0, direction=0.0, delay_symbols=0, doppler_hz=0.0)
    echo = ofdm_radar_rx(cfg, target, tx)
    bad = tx.copy()
    bad[0, 0] = 0.0
    with pytest.raises(ValueError):
        ofdm_delay_doppler_estimate(echo, cfg, bad)
    with pytest.raises(ValueError):
        ofdm_delay_doppler_estimate(echo, cfg, tx[:, :-1])


# ----------------------------------------------------------------- output SNR

def test_output_snr_steered_hits_ceiling():
    cfg = OfdmConfig.steered(small_scenario(), 64, theta=0.4, total_power=2.0)
    gain = 0.5 + 0.2j
    got = ofdm_output_snr(cfg, 0.4, gain, 0.7)
    want = max_ofdm_output_snr(4, cfg.symbols_per_block, 64, 2.0, gain, 0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_output_snr_zero_beams():
    cfg = OfdmConfig(bandwidth_hz=1e8, guard_length=4, block_length=512,
                     beamformers=np.zeros((4, 8)))
    assert ofdm_output_snr(cfg, 0.0, 1.0, 1.0) == 0.0


def test_output_snr_matches_monte_carlo():
    # peak cell power over per-cell noise variance, measured cell-wise
    rng = np.random.default_rng(10)
    cfg = OfdmConfig.steered(small_scenario(), 32, theta=0.3)
    i = cfg.symbols_per_block
    gain, sigma2 = 0.8 - 0.1j, 0.4
    doppler = 2.0 / (i * cfg.total_symbol_duration_s)
    target = RadarTarget(gain=gain, direction=0.3, delay_symbols=4,
                         doppler_hz=doppler)
    tx = qpsk_grid(rng, cfg)
    clean = ofdm_radar_rx(cfg, target, tx).symbols_rx / tx
    clean_profile = np.fft.fft(np.fft.ifft(clean, axis=0), axis=1)
    peak = np.max(np.abs(clean_profile) ** 2)
    noise_cells = []
    for _ in range(20):
        echo = ofdm_radar_rx(cfg, target, tx, noise_power=sigma2, rng=rng)
        profile = np.fft.fft(np.fft.ifft(echo.symbols_rx / tx, axis=0), axis=1)
        noise_cells.append(np.abs(profile - clean_profile) ** 2)
    measured = peak / np.mean(noise_cells)
    analytic = ofdm_output_snr(cfg, 0.3, gain, sigma2)
    assert abs(10 * np.log10(measured / analytic)) < 0.5


# ------------------------------------------------------------------ limits

def test_ambiguity_limits_values(monkeypatch):
    scen = ScenarioConfig.mmwave_default()
    cfg = OfdmConfig.steered(scen, 1024, theta=0.0)
    lim = ofdm_ambiguity_limits(cfg, scen.wavelength_m)
    assert lim.max_delay_symbols == 200
    assert lim.max_range_m == pytest.approx(300.0)
    assert lim.range_resolution_m == pytest.approx(C_LIGHT / 2e8)
    assert lim.max_doppler_hz == pytest.approx(0.1 * cfg.subcarrier_spacing_hz)
    assert lim.max_velocity_m_s == pytest.approx(
        scen.wavelength_m / (20 * 1024 * cfg.sample_duration_s))
    assert lim.velocity_resolution_m_s == pytest.approx(
        scen.wavelength_m / (2 * scen.block_length * cfg.sample_duration_s))
    # the velocity limit follows the Doppler tolerance, not a fixed tenth
    monkeypatch.setattr(ofdm, "_DOPPLER_TOLERANCE_FRACTION", 0.2)
    wide = ofdm_ambiguity_limits(cfg, scen.wavelength_m)
    assert wide.max_doppler_hz == pytest.approx(19_531.25)
    assert wide.max_velocity_m_s == pytest.approx(104.63169642857143)


def test_aligned_waveform_keeps_more_samples():
    scen = ScenarioConfig.mmwave_default()
    for k in (16, 64, 256, 1024, 4096):
        cfg = OfdmConfig.steered(scen, k, theta=0.0)
        assert scen.data_length > cfg.symbols_per_block * k


def test_doppler_coverage_ordering():
    scen = ScenarioConfig.mmwave_default()
    dam_lim = dam_ambiguity_limits(scen)
    for k in (16, 256, 4096):
        cfg = OfdmConfig.steered(scen, k, theta=0.0)
        lim = ofdm_ambiguity_limits(cfg, scen.wavelength_m)
        assert dam_lim.max_doppler_hz > lim.max_doppler_hz
        assert lim.max_delay_symbols == dam_lim.max_delay_symbols
        assert lim.max_range_m == pytest.approx(dam_lim.max_range_m)


# ------------------------------------------------------------ peak comparison

def test_peak_comparison_ratio():
    scen = ScenarioConfig.mmwave_default()
    cfg = OfdmConfig.steered(scen, 1024, theta=0.0)
    l = 5
    comp = peak_power_constrained_snr_comparison(
        cfg, scen.data_length, l, gain=0.3, noise_power=1e-9, peak_power=1.0)
    i = cfg.symbols_per_block
    assert comp.ratio == scen.data_length / (l * i)
    assert comp.gamma_dam / comp.gamma_ofdm == pytest.approx(comp.ratio, rel=1e-12)
    assert comp.papr_dam == l and comp.papr_ofdm == 1024


def test_peak_comparison_break_even():
    # L = K with the block exactly filled makes both schemes equal
    cfg = OfdmConfig(bandwidth_hz=1e6, guard_length=0, block_length=64,
                     beamformers=np.zeros((2, 8)))
    comp = peak_power_constrained_snr_comparison(cfg, 64, 8, 1.0, 1.0, 1.0)
    assert comp.ratio == pytest.approx(1.0)
    with pytest.raises(ValueError):
        peak_power_constrained_snr_comparison(cfg, 0, 8, 1.0, 1.0, 1.0)


# ----------------------------------------------------------------- time domain

def test_time_domain_power_and_prefix():
    rng = np.random.default_rng(11)
    k, i, cp = 16, 10, 4
    freq = generate_symbols(rng, k * i, "qpsk").symbols.reshape(k, i, order="F")
    stream = ofdm_time_domain(freq, cp)
    assert stream.size == i * (k + cp)
    per = stream.reshape(i, k + cp)
    assert np.allclose(per[:, :cp], per[:, -cp:], atol=1e-12)
    core = ofdm_time_domain(freq, 0, include_cp=False)
    assert np.mean(np.abs(core) ** 2) == pytest.approx(1.0, rel=1e-9)


def test_papr_bounded_by_subcarriers():
    rng = np.random.default_rng(12)
    papr = ofdm_papr_empirical(rng, 64, 200)
    assert 4.0 < papr <= 64.0


def test_papr_adversarial_hits_bound():
    freq = np.ones((32, 4), dtype=complex)
    stream = ofdm_time_domain(freq, 0, include_cp=False)
    inst = np.abs(stream) ** 2
    assert inst.max() / inst.mean() == pytest.approx(32.0, rel=1e-9)