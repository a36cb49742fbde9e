"""Aligned single-carrier sensing vs an OFDM radar of the same bandwidth.

Two structural differences drive the comparison. First, under a shared
peak-power limit each scheme backs off by its own PAPR (L superposed streams
vs K subcarriers), which leaves the aligned waveform an SNR ratio of
N / (L * I). Second, the OFDM estimator holds only for a Doppler well below
the subcarrier spacing, and its Doppler axis spans only +-1/(2 T_o). Both
waveforms go through the same target channel: at twice the subcarrier spacing
each OFDM subcarrier's echo lands two subcarriers over, and the estimate is
lost, while the symbol-rate matched filter tracks the target.
"""

from dataclasses import replace

import numpy as np

from damisac.channel import (
    RadarTarget,
    ScenarioConfig,
    apply_radar_channel,
    radar_round_trip_gain,
)
from damisac.ofdm import (
    OfdmConfig,
    ofdm_ambiguity_limits,
    ofdm_delay_doppler_estimate,
    ofdm_demodulate,
    ofdm_time_domain,
)
from damisac.sensing import (
    SensingGrid,
    dam_ambiguity_limits,
    delay_doppler_map,
    estimate_delay_doppler,
    sensing_snr,
)
from damisac.waveform import (
    DamBeamformer,
    build_dam_block,
    generate_symbols,
    papr_empirical,
)

SEED = 11
NUM_PATHS = 5


def main() -> None:
    sc = ScenarioConfig.mmwave_default()
    rng = np.random.default_rng(SEED)
    alpha = np.sqrt(radar_round_trip_gain(200.0, sc.wavelength_m, 1.0))

    print("peak-power-constrained output SNR, full-length blocks (N = "
          f"{sc.data_length}, L = {NUM_PATHS}):")
    print("    K  |   I  |  1/(2 T_o)  | SNR ratio DAM/OFDM")
    # each scheme derates its average power by its PAPR bound: P/L, P/K; the
    # DAM SNR is the ceiling |alpha|^2 N M (P/L) / sigma^2, all power on the target
    gamma_dam = (alpha ** 2 * sc.data_length * sc.num_antennas
                 * (sc.transmit_power_w / NUM_PATHS) / sc.noise_power_w)
    for k in (256, 1024, 4096):
        cfg = OfdmConfig.steered(replace(sc, transmit_power_w=sc.transmit_power_w / k), k,
                                 np.pi / 6)
        # OFDM integrates its I symbols, with noise sigma^2 / K per cell
        gamma_ofdm = sensing_snr(cfg.beamformers, np.pi / 6, alpha, cfg.symbols_per_block,
                                 sc.noise_power_w / k)
        half = 0.5 / cfg.total_symbol_duration_s
        print(f"  {k:4d} | {cfg.symbols_per_block:4d} | {half / 1e3:8.2f} kHz "
              f"| {10 * np.log10(gamma_dam / gamma_ofdm):6.2f} dB")

    print("\nmeasured PAPR (8192-sample QPSK streams):")
    for paths in (2, 5, 8):
        bf = DamBeamformer.steered(0.4, sc.num_antennas, sc.transmit_power_w,
                                   np.arange(paths) * 3)
        tx = build_dam_block(generate_symbols(rng, 8192, "qpsk"), bf)
        inst = np.sum(np.abs(tx) ** 2, axis=0)
        # peak over the power budget obeys the hard L-fold bound; max/mean
        # can sit slightly above it because the schedule ramp-in lowers the
        # block mean
        peak_ratio = inst.max() / np.sum(np.abs(bf.beam_matrix) ** 2)   # sum_l ||f_l||^2
        print(f"  aligned, L = {paths}: peak/budget {peak_ratio:5.2f} "
              f"(bound {paths}), max/mean {papr_empirical(tx):5.2f}")
    # the OFDM transmit without its prefixes, steered like the aligned streams
    sc_papr = ScenarioConfig.mmwave_default(coherence_time_s=8192e-8, guard_length=0)
    for k in (64, 256, 1024):
        freq = generate_symbols(rng, 8192, "qpsk").symbols.reshape(k, 8192 // k, order="F")
        cfg = OfdmConfig.steered(sc_papr, k, 0.4)
        papr = papr_empirical(ofdm_time_domain(cfg, freq))
        print(f"  OFDM,  K = {k:4d}: max/mean {papr:6.2f} (bound {k})")

    # fast-target trial at twice the subcarrier spacing, reduced block
    n = 4096
    sc_fast = ScenarioConfig.mmwave_default(coherence_time_s=n * 1e-8)
    k = 256
    cfg = OfdmConfig.steered(sc_fast, k, np.pi / 6)
    f_fast = 2.0 * cfg.subcarrier_spacing_hz
    gain = np.sqrt(radar_round_trip_gain(200.0, sc_fast.wavelength_m, 20.0))
    target = RadarTarget(gain=gain, direction=np.pi / 6, delay_symbols=133,
                         doppler_hz=f_fast)
    lim_dam = dam_ambiguity_limits(sc_fast)
    lim_ofdm = ofdm_ambiguity_limits(cfg, sc_fast.wavelength_m)
    print(f"\nfast target: f_d = {f_fast / 1e3:.1f} kHz "
          f"(aligned-waveform limit {lim_dam.max_doppler_hz / 1e6:.1f} MHz, "
          f"OFDM tolerance {lim_ofdm.max_doppler_hz / 1e3:.1f} kHz)")

    bf = DamBeamformer.steered(np.pi / 6, sc_fast.num_antennas, sc_fast.transmit_power_w,
                               np.array([0, 3, 7, 12, 20]))
    block = generate_symbols(rng, n, "qpsk")
    tx = build_dam_block(block, bf)
    echo = apply_radar_channel(target, tx, 1e-8, sc_fast.noise_power_w, rng)
    res_hz = 1.0 / (n * 1e-8)
    center = round(f_fast / res_hz)
    grid = SensingGrid(np.arange(127, 140),
                       (center + np.arange(-8, 9)) * res_hz, 1e-8, n)
    ddmap = delay_doppler_map(echo, bf, block, np.pi / 6, grid)
    d_hat, f_hat, _ = estimate_delay_doppler(ddmap)
    print(f"  aligned estimate: delay {d_hat}, "
          f"Doppler {f_hat / 1e3:.2f} kHz  (truth {f_fast / 1e3:.2f} kHz)")

    i = cfg.symbols_per_block
    tx_sym = generate_symbols(rng, k * i, "qpsk").symbols.reshape(k, i)
    # the same target channel, then each cyclic prefix dropped and a K-point DFT
    echo_o = ofdm_demodulate(cfg, apply_radar_channel(target, ofdm_time_domain(cfg, tx_sym),
                                                      1e-8, sc_fast.noise_power_w, rng))
    tau_hat, f_hat_o, _ = ofdm_delay_doppler_estimate(echo_o, cfg, tx_sym)
    inside = abs(f_fast) <= lim_ofdm.max_doppler_hz
    print(f"  OFDM estimate:    delay {round(tau_hat / 1e-8)}, "
          f"Doppler {f_hat_o / 1e3:.2f} kHz  (the target is "
          f"{'inside' if inside else 'outside'} the OFDM Doppler tolerance)")


if __name__ == "__main__":
    main()
