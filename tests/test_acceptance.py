"""End-to-end acceptance gate for the aligned-waveform ISAC library.

Nine system-level checks, each a quantitative claim about the integrated
pipeline at a stated tolerance. Every check prints one summary line

    ACCEPTANCE <k> (<name>): PASS|FAIL

so a log scrape of a full run shows the gate outcome at a glance. The
checks favor independent oracles (Monte Carlo measurements, brute-force
searches, a dual bound computed on the full matrices) over re-derivations of
library formulas.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from damisac.beamforming import IsacProblem, solve_batch
from damisac.channel import (
    ChannelGenConfig,
    MultipathChannel,
    RadarTarget,
    ScenarioConfig,
    apply_radar_channel,
    complex_normal,
    generate_multipath_channels,
    radar_round_trip_gain,
    steering_vector,
)
from damisac.experiments import load_config, run_beampattern
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
    matched_filter_template,
    sensing_snr,
)
from damisac.waveform import (
    DamBeamformer,
    build_dam_block,
    generate_symbols,
    papr_empirical,
)

from beam_peaks import find_beam_peaks
from dam_oracle import correlation_matrix, max_sensing_snr
from zf_oracle import nullspace_projector


class _gate:
    """Prints the one-line verdict for an acceptance check."""

    def __init__(self, number: int, name: str):
        self.number, self.name = number, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status}")
        return False


# ---------------------------------------------------------------------------
# 1. Timing-chain constants of the default scenario.
# ---------------------------------------------------------------------------

def test_01_scenario_constants_chain():
    with _gate(1, "default scenario timing chain"):
        sc = ScenarioConfig.mmwave_default()
        assert sc.bandwidth_hz == 100e6
        assert sc.symbol_duration_s == 1e-8
        assert sc.block_length == 100_000
        assert sc.guard_length == 200
        assert sc.data_length == 99_800
        assert sc.guard_length * sc.symbol_duration_s == 2e-6

        lim = dam_ambiguity_limits(sc)
        assert lim.range_resolution_m == pytest.approx(1.5, rel=1e-12)
        assert lim.max_range_m == pytest.approx(300.0, rel=1e-12)
        assert lim.max_delay_symbols == 200


# ---------------------------------------------------------------------------
# 2. Aligned-stream correlation: off-diagonal decay with block length.
# ---------------------------------------------------------------------------

def test_02_stream_correlation_decay():
    with _gate(2, "aligned-stream correlation decay"):
        kappa = DamBeamformer.aligned(np.ones((1, 5)),
                                      np.array([0, 3, 7, 12, 20])).delay_schedule
        mask = ~np.eye(kappa.size, dtype=bool)

        def averaged_peak_offdiag(n: int) -> float:
            vals = []
            for seed in range(100):
                rng = np.random.default_rng(seed)
                block = generate_symbols(rng, n, "qpsk")
                lam = correlation_matrix(block, kappa, 0, 0)
                vals.append(np.abs(lam[mask]).max() / n)
            return float(np.mean(vals))

        at_4096 = averaged_peak_offdiag(4096)
        assert at_4096 <= 4.0 / np.sqrt(4096)

        curve = [averaged_peak_offdiag(n) for n in (256, 1024, 4096, 16384)]
        assert all(a > b for a, b in zip(curve, curve[1:]))


# ---------------------------------------------------------------------------
# 3. Matched-filter output SNR against a Monte-Carlo measurement.
# ---------------------------------------------------------------------------

def test_03_sensing_snr_monte_carlo():
    with _gate(3, "matched-filter SNR vs closed form"):
        n, m, power, sigma2, t_s = 4096, 16, 1.0, 1.0, 1e-8
        theta = 0.6
        alpha = 0.8 * np.exp(0.3j)
        delays = np.array([0, 2, 5])
        rng = np.random.default_rng(20260819)
        channel = MultipathChannel(complex_normal(rng, (3, m), 1.0 / 3.0), delays)
        block = generate_symbols(rng, n, "qpsk")
        target = RadarTarget(gain=alpha, direction=theta, delay_symbols=2,
                             doppler_hz=0.0)

        def measured_peak_snr(bf: DamBeamformer) -> float:
            tx = build_dam_block(block, bf)
            clean = apply_radar_channel(target, tx, t_s)
            tmpl = matched_filter_template(bf, block, theta,
                                           target.delay_symbols,
                                           target.doppler_hz, t_s)
            signal = np.abs(np.vdot(tmpl, clean)) ** 2
            draws = complex_normal(rng, (500, n), sigma2)
            noise = np.mean(np.abs(draws @ np.conj(tmpl)) ** 2)
            return float(signal / noise)

        bf = IsacProblem(channel, theta, alpha, n, power, sigma2).solve(0.0).beamformer
        predicted = sensing_snr(bf.beam_matrix, theta, alpha, n, sigma2)
        gap_db = 10.0 * np.log10(measured_peak_snr(bf) / predicted)
        assert abs(gap_db) < 0.5

        bf_steered = DamBeamformer.steered(theta, m, power, delays)
        ceiling = max_sensing_snr(m, n, power, alpha, sigma2)
        gap_db = 10.0 * np.log10(measured_peak_snr(bf_steered) / ceiling)
        assert abs(gap_db) < 0.5


# ---------------------------------------------------------------------------
# 4. Inter-path leakage of every returned beamformer.
# ---------------------------------------------------------------------------

def test_04_zero_forcing_residuals():
    with _gate(4, "inter-path leakage of returned beamformers"):
        sc = ScenarioConfig.mmwave_default()
        theta = np.pi / 6
        for num_paths in (5, 10):
            gen = ChannelGenConfig(num_paths=num_paths)
            off = ~np.eye(num_paths, dtype=bool)
            for seed in range(100):
                rng = np.random.default_rng(seed)
                channel = generate_multipath_channels(sc, gen, [rng])[0]
                problem = IsacProblem(channel, theta, 1.0, sc.data_length,
                                      sc.transmit_power_w, 1.0)
                sol = problem.solve(0.5 * problem.gamma_zf_max)
                designs = [problem.solve(g).beamformer
                           for g in (0.0, problem.gamma_zf_max)] + [sol.beamformer]
                h = channel.path_vectors
                h_norms = np.linalg.norm(h, axis=1)
                for bf in designs:
                    f = bf.beam_matrix
                    f_norms = np.linalg.norm(f, axis=0)
                    cross = np.abs(np.conj(h) @ f)
                    limit = 1e-6 * np.outer(h_norms, f_norms)
                    assert np.all(cross[off] <= limit[off])


# ---------------------------------------------------------------------------
# 5. Trade-off solver: closed-form anchor, dual bound, random-search oracle.
# ---------------------------------------------------------------------------

def _problem_matrices(channel, theta):
    """Stacked projected channel h and A = blkdiag(g_l g_l^H), g_l = Q_l a,
    built on the full ML x ML space from the nullspace projectors."""
    num_paths, m = channel.num_paths, channel.num_antennas
    a = steering_vector(theta, m)
    qs = [nullspace_projector(channel, l) for l in range(num_paths)]
    h = np.concatenate([q @ v for q, v in zip(qs, channel.path_vectors)])
    big_a = np.zeros((num_paths * m, num_paths * m), dtype=complex)
    for l, q in enumerate(qs):
        g = q @ a
        big_a[l * m:(l + 1) * m, l * m:(l + 1) * m] = np.outer(g, np.conj(g))
    return h, big_a, qs


def _dual_bound(channel, theta, gain, n_block, gamma_th, power, noise) -> float:
    """min over lambda >= 0 of P lambda_max(h h^H + lambda A) - lambda gamma~,
    in SNR units: by weak duality no feasible design beats it."""
    h, big_a, _ = _problem_matrices(channel, theta)
    gamma_tilde = gamma_th * noise / (np.abs(gain) ** 2 * n_block)
    hh = np.outer(h, np.conj(h))

    def dual(lam):
        lam_max = np.linalg.eigvalsh(hh + lam * big_a)[-1]
        return power * lam_max - lam * gamma_tilde

    hi = 1.0
    while dual(2.0 * hi) < dual(hi) and hi < 1e12:
        hi *= 2.0
    res = minimize_scalar(dual, bounds=(0.0, 2.0 * hi), method="bounded",
                          options={"xatol": 1e-12 * hi})
    return min(res.fun, dual(0.0)) / noise


def _random_search_gamma_c(channel, theta, gain, n_block, gamma_th, power,
                           noise, rng) -> float:
    """Best communication SNR among random feasible leakage-free designs.

    Candidates are power-sphere points in the leakage-free subspace, blended
    toward the sensing-only design so the feasible boundary is covered.
    """
    h, big_a, qs = _problem_matrices(channel, theta)
    num_paths, m = channel.num_paths, channel.num_antennas
    dim = num_paths * m
    problem = IsacProblem(channel, theta, gain, n_block, power, noise)
    bf_sens = problem.solve(problem.gamma_zf_max).beamformer
    u_sens = bf_sens.beam_matrix.T.ravel() / np.sqrt(power)

    draws = complex_normal(rng, (20_000, dim), 1.0).reshape(-1, num_paths, m)
    proj = np.empty_like(draws)
    for l in range(num_paths):
        proj[:, l, :] = draws[:, l, :] @ qs[l].T
    cand = proj.reshape(-1, dim)
    norms = np.linalg.norm(cand, axis=1, keepdims=True)
    cand /= np.maximum(norms, 1e-300)
    t = rng.uniform(0.0, 1.0, size=(cand.shape[0], 1))
    cand = (1.0 - t) * cand + t * u_sens[None, :]
    norms = np.linalg.norm(cand, axis=1, keepdims=True)
    cand *= np.sqrt(power) / np.maximum(norms, 1e-300)

    squad = np.einsum("ni,ij,nj->n", np.conj(cand), big_a, cand).real
    objective = np.abs(cand @ np.conj(h)) ** 2
    gamma_tilde = gamma_th * noise / (np.abs(gain) ** 2 * n_block)
    objective[squad < gamma_tilde] = -np.inf
    return objective.max() / noise


def test_05_trade_off_solver_quality():
    with _gate(5, "trade-off solver vs oracles"):
        m, num_paths, power, noise = 4, 2, 1.0, 0.5
        n_block, gain, theta = 1024, 0.9 - 0.4j, 0.7
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            channel = MultipathChannel(
                complex_normal(rng, (num_paths, m), 1.0 / num_paths),
                np.array([0, 4]))
            problem = IsacProblem(channel, theta, gain, n_block, power, noise)

            # zero floor reproduces the interference-free closed form
            # P sum_l ||Q_l h_l||^2 / sigma^2, from the nullspace projectors
            sol0 = problem.solve(0.0)
            closed = power * np.linalg.norm(_problem_matrices(channel, theta)[0]) ** 2 / noise
            assert sol0.gamma_c == pytest.approx(closed, rel=1e-12)

            # mid floor: within 1e-8 of an independently computed dual
            # bound, and no random feasible design does better
            gamma_th = 0.5 * problem.gamma_zf_max
            sol = problem.solve(gamma_th)
            assert sol.gamma_p >= gamma_th * (1 - 1e-12)
            bound = _dual_bound(channel, theta, gain, n_block, gamma_th,
                                power, noise)
            assert (bound - sol.gamma_c) / bound <= 1e-8
            assert abs(sol.dual_bound - bound) <= 1e-8 * bound
            oracle = _random_search_gamma_c(channel, theta, gain, n_block,
                                            gamma_th, power, noise, rng)
            assert 0.0 < oracle <= sol.gamma_c * (1 + 1e-9)


# ---------------------------------------------------------------------------
# 6. Peak structure of the three transmit beampatterns.
# ---------------------------------------------------------------------------

def test_06_beampattern_structure():
    with _gate(6, "beampattern peak structure"):
        cfg = load_config(None)
        res = run_beampattern(cfg)
        target_deg = np.rad2deg(cfg.target.direction_rad)
        aods = np.sort(np.asarray(cfg.beampattern_aods_deg, dtype=float))

        comm_peaks = find_beam_peaks(res.angles_deg, res.comm_db)
        assert comm_peaks.size == 5
        assert np.all(np.abs(comm_peaks - aods) <= 1.0)
        # no communication lobe at the target direction: nothing within the
        # detector's dynamic range forms a local maximum near it
        idx, _ = find_peaks(res.comm_db, height=res.comm_db.max() - 16.0)
        assert not np.any(np.abs(res.angles_deg[idx] - target_deg) <= 3.0)

        sens_peaks = find_beam_peaks(res.angles_deg, res.sensing_db)
        assert sens_peaks.size == 1
        assert abs(sens_peaks[0] - target_deg) <= 1.0

        isac_peaks = find_beam_peaks(res.angles_deg, res.isac_db)
        assert isac_peaks.size == 6
        truth = np.sort(np.append(aods, target_deg))
        assert np.all(np.abs(isac_peaks - truth) <= 1.0)


# ---------------------------------------------------------------------------
# 7. Mean spectral efficiency: monotone in the floor, ordered in path count.
# ---------------------------------------------------------------------------

@pytest.mark.blas
def test_07_spectral_efficiency_trend():
    with _gate(7, "mean SE trend over the sensing floor"):
        sc = ScenarioConfig.mmwave_default()
        theta = np.pi / 6
        target = RadarTarget.from_geometry(sc, 200.0, 1.0, theta, 15.0)
        grid = 10.0 ** (np.arange(0.0, 20.0 + 1e-9, 2.0) / 10.0)
        trials = 100

        ch10 = generate_multipath_channels(
            sc, ChannelGenConfig(num_paths=10),
            [np.random.default_rng(31_000 + trial) for trial in range(trials)])
        # paired 5-path channels: the first five paths, per-path gain variance
        # rescaled from 1/10 to 1/5 so both draws match their own L
        ch5 = MultipathChannel(ch10.path_vectors[:, :5] * np.sqrt(2.0), ch10.path_delays[:, :5])
        channels = {5: ch5, 10: ch10}

        se, feasible = {}, {}
        for num_paths in (5, 10):
            # every (trial, floor) row of a path count in one stacked solve
            sol = solve_batch(channels[num_paths], theta, target.gain, sc.data_length,
                              sc.transmit_power_w, sc.noise_power_w, grid)
            feasible[num_paths] = sol.feasible
            gap = sol.dual_bound - sol.gamma_c
            assert np.all(gap[sol.feasible] <= 1e-8 * sol.dual_bound[sol.feasible])
            se[num_paths] = np.where(sol.feasible, np.log2(1.0 + sol.gamma_c), 0.0)

        means = {}
        for num_paths in (5, 10):
            cols = feasible[num_paths].all(axis=0)
            assert cols.any()
            vals = se[num_paths].mean(axis=0)[cols]
            # nonincreasing up to solver noise
            assert np.all(np.diff(vals) <= 1e-4 * vals.max())
            means[num_paths] = se[num_paths].mean(axis=0)

        common = feasible[5].all(axis=0) & feasible[10].all(axis=0)
        assert common.any()
        assert np.all(means[10][common] < means[5][common])


# ---------------------------------------------------------------------------
# 8. Aligned waveform vs OFDM: peak-power SNR ratio, aliasing, PAPR.
# ---------------------------------------------------------------------------

def _measured_ofdm_snr(cfg: OfdmConfig, target: RadarTarget,
                       tx_symbols: np.ndarray, noise_power: float,
                       rng: np.random.Generator, num_draws: int) -> float:
    # the echo and the noise both go through the prefix-dropping DFT receiver
    tx = ofdm_time_domain(cfg, tx_symbols)
    clean = ofdm_demodulate(cfg, apply_radar_channel(target, tx, cfg.sample_duration_s))
    _, _, peak = ofdm_delay_doppler_estimate(clean, cfg, tx_symbols)
    acc = 0.0
    for _ in range(num_draws):
        z = ofdm_demodulate(cfg, complex_normal(rng, (tx.shape[1],), noise_power)) / tx_symbols
        profile = np.fft.fft(np.fft.ifft(z, axis=0), axis=1)
        acc += float(np.mean(np.abs(profile) ** 2))
    return peak / (acc / num_draws)


def test_08_aligned_vs_ofdm():
    with _gate(8, "aligned waveform vs OFDM radar"):
        # (a) peak-power-constrained SNR ratio: exact analytic value, then an
        # empirical measurement at reduced block length within 1 dB
        sc_small = ScenarioConfig.mmwave_default(coherence_time_s=2.048e-5,
                                                 num_antennas=16)
        n, num_paths, k, theta = 2048, 5, 256, 0.5
        peak_power, sigma2, alpha = 1.0, 1.0, 1.0 + 0.0j
        # each scheme's average power derated by its PAPR bound, L or K
        cfg = OfdmConfig.steered(replace(sc_small, transmit_power_w=peak_power / k), k, theta)
        i = cfg.symbols_per_block
        assert i == 2048 // (256 + 200)
        ratio = n / (num_paths * i)
        m = sc_small.num_antennas
        gamma_dam = max_sensing_snr(m, n, peak_power / num_paths, alpha, sigma2)
        # OFDM integrates its I symbols, with noise sigma^2 / K per cell
        gamma_ofdm = sensing_snr(cfg.beamformers, theta, alpha, i, sigma2 / k)
        assert gamma_dam / gamma_ofdm == pytest.approx(ratio, rel=1e-12)

        rng = np.random.default_rng(880)
        delays = np.array([0, 3, 7, 12, 20])
        bf = DamBeamformer.steered(theta, m, peak_power / num_paths, delays)
        block = generate_symbols(rng, n, "qpsk")
        tx = build_dam_block(block, bf)
        target = RadarTarget(gain=alpha, direction=theta, delay_symbols=12,
                             doppler_hz=0.0)
        clean = apply_radar_channel(target, tx, 1e-8)
        tmpl = matched_filter_template(bf, block, theta, 12, 0.0, 1e-8)
        signal = np.abs(np.vdot(tmpl, clean)) ** 2
        noise_draws = complex_normal(rng, (400, n), sigma2)
        gamma_dam_hat = signal / np.mean(np.abs(noise_draws @ np.conj(tmpl)) ** 2)

        tx_ofdm = generate_symbols(rng, k * i, "qpsk").symbols.reshape(k, i)
        gamma_ofdm_hat = _measured_ofdm_snr(
            cfg, target, tx_ofdm, sigma2, rng, num_draws=40)
        gap_db = 10.0 * np.log10(gamma_dam_hat / gamma_ofdm_hat)
        expected_db = 10.0 * np.log10(ratio)
        assert abs(gap_db - expected_db) < 1.0

        # (b) paired trials at twice the subcarrier spacing: the aligned
        # receiver recovers the Doppler, the OFDM receiver aliases
        sc8 = ScenarioConfig.mmwave_default(coherence_time_s=4.096e-5)
        n8, m8 = 4096, sc8.num_antennas
        cfg8 = OfdmConfig.steered(sc8, k, np.pi / 6)
        f_fast = 2.0 * cfg8.subcarrier_spacing_hz
        res_hz = 1.0 / (n8 * 1e-8)
        gain = np.sqrt(radar_round_trip_gain(200.0, sc8.wavelength_m, 20.0))
        target8 = RadarTarget(gain=gain, direction=np.pi / 6,
                              delay_symbols=133, doppler_hz=f_fast)
        bf8 = DamBeamformer.steered(np.pi / 6, m8, sc8.transmit_power_w, delays)
        gamma_p = sensing_snr(bf8.beam_matrix, np.pi / 6, gain, n8,
                              sc8.noise_power_w)
        assert gamma_p >= 100.0  # at least 20 dB at the probe cell
        center = int(round(f_fast / res_hz))
        grid8 = SensingGrid(np.arange(127, 140),
                            (center + np.arange(-8, 9)) * res_hz, 1e-8, n8)
        i8 = cfg8.symbols_per_block
        assert f_fast > ofdm_ambiguity_limits(cfg8, sc8.wavelength_m).max_doppler_hz
        joint_hits = 0
        for trial in range(100):
            rng_t = np.random.default_rng(42_000 + trial)
            block8 = generate_symbols(rng_t, n8, "qpsk")
            tx8 = build_dam_block(block8, bf8)
            echo = apply_radar_channel(target8, tx8, 1e-8, sc8.noise_power_w,
                                       rng_t)
            ddmap = delay_doppler_map(echo, bf8, block8, np.pi / 6, grid8)
            _, f_hat, _ = estimate_delay_doppler(ddmap)
            dam_hit = abs(f_hat - f_fast) <= res_hz * (1.0 + 1e-9)

            tx_sym = generate_symbols(rng_t, k * i8, "qpsk").symbols.reshape(k, i8)
            echo_o = ofdm_demodulate(cfg8, apply_radar_channel(
                target8, ofdm_time_domain(cfg8, tx_sym), 1e-8, sc8.noise_power_w, rng_t))
            _, f_hat_o, _ = ofdm_delay_doppler_estimate(echo_o, cfg8, tx_sym)
            ofdm_missed = abs(f_hat_o - f_fast) > cfg8.subcarrier_spacing_hz
            joint_hits += int(dam_hit and ofdm_missed)
        assert joint_hits >= 95

        # (c) measured PAPR ordering, and the L-fold peak bound always holds
        rng_c = np.random.default_rng(990)
        for num_paths_c in (2, 5, 8):
            ch = MultipathChannel(
                complex_normal(rng_c, (num_paths_c, 64), 1.0 / num_paths_c),
                np.arange(num_paths_c) * 3)
            bf_c = IsacProblem(ch, 0.3, 1.0, 8192, 1.0, 1.0).solve(0.0).beamformer
            tx_c = build_dam_block(generate_symbols(rng_c, 8192, "qpsk"), bf_c)
            papr_dam = papr_empirical(tx_c)
            peak_inst = np.max(np.sum(np.abs(tx_c) ** 2, axis=0))
            budget = np.sum(np.abs(bf_c.beam_matrix) ** 2)       # sum_l ||f_l||^2
            assert peak_inst <= num_paths_c * budget * (1 + 1e-12)
            for k_c in (64, 256, 1024):
                i_c = max(8, 8192 // k_c)
                grid_c = generate_symbols(rng_c, k_c * i_c, "qpsk").symbols.reshape(
                    k_c, i_c, order="F")
                sc_c = ScenarioConfig.mmwave_default(coherence_time_s=k_c * i_c * 1e-8,
                                                     guard_length=0)
                cfg_c = OfdmConfig.steered(sc_c, k_c, 0.3)
                papr_ofdm = papr_empirical(ofdm_time_domain(cfg_c, grid_c))
                assert papr_ofdm > papr_dam
        # adversarial identical-beam design still respects the peak bound
        bf_adv = DamBeamformer.steered(0.3, 16, 1.0, np.arange(5))
        tx_adv = build_dam_block(generate_symbols(rng_c, 8192, "qpsk"), bf_adv)
        peak_adv = np.max(np.sum(np.abs(tx_adv) ** 2, axis=0))
        assert peak_adv <= 5 * np.sum(np.abs(bf_adv.beam_matrix) ** 2) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# 9. Projector identities and sensing ceiling ordering.
# ---------------------------------------------------------------------------

def test_09_projector_and_bound_suite():
    with _gate(9, "projector identities and sensing ceiling"):
        # idempotent, Hermitian, and annihilating the other paths
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m, num_paths = 16, 4
            ch = MultipathChannel(complex_normal(rng, (num_paths, m), 1.0),
                                  np.arange(num_paths))
            for l in range(num_paths):
                q = nullspace_projector(ch, l)
                assert np.max(np.abs(q @ q - q)) < 1e-10
                assert np.max(np.abs(q - q.conj().T)) < 1e-10
                others = np.delete(ch.path_vectors, l, axis=0)
                scale = max(1.0, float(np.abs(others).max()))
                assert np.max(np.abs(np.conj(others) @ q)) < 1e-10 * scale

        # leakage-free ceiling never exceeds the unconstrained one; a single
        # path leaves nothing to null and the two coincide
        power, gain, n_block, noise = 1.0, 0.7 + 0.2j, 2048, 0.8
        ceiling = max_sensing_snr(16, n_block, power, gain, noise)
        for seed in range(100):
            rng = np.random.default_rng(5000 + seed)
            ch = MultipathChannel(complex_normal(rng, (4, 16), 0.25),
                                  np.array([0, 2, 5, 9]))
            theta = rng.uniform(-1.0, 1.0)
            gamma_zf = IsacProblem(ch, theta, gain, n_block, power,
                                   noise).gamma_zf_max
            assert gamma_zf <= ceiling * (1 + 1e-9)
        rng = np.random.default_rng(123)
        ch1 = MultipathChannel(complex_normal(rng, (1, 16), 1.0),
                               np.array([0]))
        gamma_zf1 = IsacProblem(ch1, 0.3, gain, n_block, power,
                                noise).gamma_zf_max
        assert gamma_zf1 == pytest.approx(ceiling, rel=1e-9)
