"""Channel model tests: steering geometry, generator statistics, propagation
oracles, and the round-trip radar gain."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from damisac import (
    ChannelGenConfig,
    ConfigError,
    InfeasibleError,
    MultipathChannel,
    RadarTarget,
    ScenarioConfig,
    apply_comm_channel,
    apply_radar_channel,
    complex_normal,
    generate_multipath_channel,
    generate_multipath_channels,
    radar_round_trip_gain,
    steering_vector,
)
from damisac.units import C_LIGHT


# ---------------------------------------------------------------- oracles

def steering_loop_oracle(theta, m, spacing_ratio=0.5):
    out = np.empty(m, dtype=complex)
    for idx in range(m):
        out[idx] = np.exp(1j * 2.0 * np.pi * spacing_ratio * idx * np.sin(theta))
    return out


def comm_channel_loop_oracle(channel, tx_block):
    m, n = tx_block.shape
    y = np.zeros(n, dtype=complex)
    for l in range(channel.num_paths):
        h = channel.path_vectors[l]
        d = int(channel.path_delays[l])
        for t in range(n):
            if t - d >= 0:
                y[t] += np.vdot(h, tx_block[:, t - d])
    return y


def radar_channel_loop_oracle(target, tx_block, t_s):
    m, n = tx_block.shape
    a = steering_loop_oracle(target.direction, m)
    y = np.zeros(n, dtype=complex)
    for t in range(n):
        if t - target.delay_symbols >= 0:
            y[t] = (target.gain * np.vdot(a, tx_block[:, t - target.delay_symbols])
                    * np.exp(1j * 2.0 * np.pi * target.doppler_hz * t * t_s))
    return y


# ----------------------------------------------------------- steering vector

def test_steering_boresight_is_all_ones():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))


def test_steering_endfire_two_elements():
    # sin(pi/2) = 1 with half-wavelength spacing puts elements in antiphase
    assert np.allclose(steering_vector(np.pi / 2, 2), [1.0, -1.0])


def test_steering_matches_element_loop():
    theta = np.deg2rad(30.0)
    a = steering_vector(theta, 64)
    assert np.allclose(a, steering_loop_oracle(theta, 64), atol=1e-14)
    assert np.linalg.norm(a) ** 2 == pytest.approx(64.0)
    phase_step = np.angle(a[1] / a[0])
    assert phase_step == pytest.approx(2.0 * np.pi * 0.25)


@given(st.floats(-np.pi / 2, np.pi / 2), st.integers(1, 32))
def test_steering_unit_norm_property(theta, m):
    a = steering_vector(theta, m)
    assert np.abs(a) == pytest.approx(np.ones(m))
    assert np.linalg.norm(a) ** 2 == pytest.approx(m)


def test_steering_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        steering_vector(np.nan, 4)
    with pytest.raises(ValueError):
        steering_vector(np.inf, 4)
    with pytest.raises(ValueError):
        steering_vector([0.1, np.nan], 4)


def test_steering_rows_for_an_array_of_angles():
    # one row per angle, each bit for bit the single-angle vector
    angles = np.array([[-1.2, 0.0, 0.4], [0.7, np.pi / 2, -0.3]])
    rows = steering_vector(angles, 8)
    assert rows.shape == (2, 3, 8)
    for idx in np.ndindex(angles.shape):
        assert np.array_equal(rows[idx], steering_vector(angles[idx], 8))


# ------------------------------------------------------------ scenario config

def test_default_scenario_block_accounting():
    s = ScenarioConfig.mmwave_default()
    assert s.symbol_duration_s == pytest.approx(10e-9)
    assert s.block_length == 100_000
    assert s.guard_length == 200
    assert s.data_length == 99_800
    assert s.guard_time_s == pytest.approx(2e-6)


def test_from_timing_rejects_fractional_guard():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_timing(bandwidth_hz=100e6, carrier_frequency_hz=28e9,
                                   coherence_time_s=1e-3, guard_time_s=2.5e-8,
                                   num_antennas=4, transmit_power_w=1.0,
                                   noise_power_w=1e-12)


def test_scenario_rejects_nonpositive_power():
    with pytest.raises(ConfigError):
        ScenarioConfig.mmwave_default(transmit_power_w=0.0)


# ------------------------------------------------------------- channel model

def test_single_boresight_path_is_all_ones():
    ch = MultipathChannel.from_directions([0.0], [0], num_antennas=6)
    assert np.allclose(ch.path_vectors[0], np.ones(6))


def test_duplicate_delays_rejected():
    # adjacent, unsorted and non-adjacent repeats
    for delays in ([3, 3], [5, 2, 5], [0, 3, 7, 3]):
        with pytest.raises(ValueError, match="pairwise distinct"):
            MultipathChannel.from_directions(np.zeros(len(delays)), delays, num_antennas=4)
    one = MultipathChannel.from_directions([0.1], [4], num_antennas=4)
    assert one.num_paths == 1 and one.max_delay == 4


def test_generator_contract_fixed_seed():
    # replays the generator's draws: the delays, then path by path mu_l, its
    # angles, nu_l and beta_l, and sums each cluster sub-path by sub-path
    s = ScenarioConfig.mmwave_default()
    gen = ChannelGenConfig(num_paths=5, max_subpaths=3)
    rng, replay = np.random.default_rng(123), np.random.default_rng(123)
    for _ in range(20):
        ch = generate_multipath_channel(s, gen, rng)
        assert ch.num_paths == 5
        assert ch.path_delays[0] == 0
        assert ch.max_delay <= s.guard_length
        assert len(np.unique(ch.path_delays)) == 5
        rest = replay.choice(np.arange(1, s.guard_length + 1), size=4, replace=False)
        assert np.array_equal(ch.path_delays, np.concatenate([[0], np.sort(rest)]))
        for h in ch.path_vectors:
            mu = int(replay.integers(1, 4))
            angles = replay.uniform(-np.pi / 3, np.pi / 3, size=mu)
            nu = complex_normal(replay, (mu,), variance=1.0 / mu)
            beta = complex_normal(replay, (), variance=1.0 / 5)
            assert 1 <= mu <= gen.max_subpaths
            assert np.all(np.abs(angles) <= np.pi / 3)
            want = beta * sum(n * steering_vector(th, s.num_antennas)
                              for n, th in zip(nu, angles))
            assert np.allclose(h, want, rtol=0, atol=1e-12)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_generator_rejects_too_many_paths():
    s = ScenarioConfig.mmwave_default(guard_length=3, coherence_time_s=1e-6)
    with pytest.raises(ValueError):
        generate_multipath_channel(s, ChannelGenConfig(num_paths=9),
                                   np.random.default_rng(0))


def test_stacked_draw_matches_one_stream_draws():
    # bit for bit, vectors and delays, for distinct streams and for one
    # generator listed again and again, which gives its channels in turn
    s = ScenarioConfig.mmwave_default()
    for num_paths in (1, 5, 10):
        for max_subpaths in (1, 3):
            gen = ChannelGenConfig(num_paths=num_paths, max_subpaths=max_subpaths)
            rng, replay = np.random.default_rng(99), np.random.default_rng(99)
            for rngs, replays in (([np.random.default_rng(seed) for seed in range(12)],
                                   [np.random.default_rng(seed) for seed in range(12)]),
                                  ([rng] * 6, [replay] * 6)):
                stack = generate_multipath_channels(s, gen, rngs)
                assert len(stack) == len(rngs)
                for ch, one_rng in zip(stack, replays):
                    one = generate_multipath_channel(s, gen, one_rng)
                    assert np.array_equal(ch.path_vectors, one.path_vectors)
                    assert np.array_equal(ch.path_delays, one.path_delays)
            assert rng.bit_generator.state == replay.bit_generator.state


def test_channel_energy_moment():
    # E ||h_l||^2 = M / L, so the total over paths averages to M.
    s = ScenarioConfig.mmwave_default(num_antennas=8)
    gen = ChannelGenConfig(num_paths=4, max_subpaths=3)
    rng = np.random.default_rng(7)
    draws = 10_000
    total = 0.0
    for ch in generate_multipath_channels(s, gen, [rng] * draws):
        total += np.sum(np.abs(ch.path_vectors) ** 2)
    assert total / draws == pytest.approx(8.0, rel=0.05)


def test_channel_determinism():
    s = ScenarioConfig.mmwave_default()
    gen = ChannelGenConfig(num_paths=3)
    a = generate_multipath_channel(s, gen, np.random.default_rng(42))
    b = generate_multipath_channel(s, gen, np.random.default_rng(42))
    assert np.array_equal(a.path_vectors, b.path_vectors)
    assert np.array_equal(a.path_delays, b.path_delays)


# ------------------------------------------------------------ comm propagation

def test_comm_identity_tap():
    ch = MultipathChannel(np.array([[1.0 + 0j, 0.0, 0.0]]), np.array([0]))
    tx = np.arange(12, dtype=complex).reshape(3, 4)
    assert np.allclose(apply_comm_channel(ch, tx), tx[0])


def test_comm_two_tap_superposition():
    rng = np.random.default_rng(0)
    h = complex_normal(rng, (2, 2))
    ch = MultipathChannel(h, np.array([0, 2]))
    x = complex_normal(rng, (2, 1))
    tx = np.concatenate([x, np.zeros((2, 5))], axis=1)
    y = apply_comm_channel(ch, tx)
    assert y[0] == pytest.approx(np.vdot(h[0], x[:, 0]))
    assert y[2] == pytest.approx(np.vdot(h[1], x[:, 0]))
    assert np.allclose(y[[1, 3, 4, 5]], 0.0)


def test_comm_matches_loop_oracle():
    rng = np.random.default_rng(5)
    ch = MultipathChannel(complex_normal(rng, (3, 4)), np.array([0, 2, 5]))
    tx = complex_normal(rng, (4, 40))
    assert np.allclose(apply_comm_channel(ch, tx),
                       comm_channel_loop_oracle(ch, tx), atol=1e-12)


def test_comm_linearity():
    rng = np.random.default_rng(9)
    ch = MultipathChannel(complex_normal(rng, (2, 3)), np.array([0, 4]))
    x = complex_normal(rng, (3, 30))
    y = complex_normal(rng, (3, 30))
    a, b = 1.7 - 0.3j, -0.2 + 2.1j
    lhs = apply_comm_channel(ch, a * x + b * y)
    rhs = a * apply_comm_channel(ch, x) + b * apply_comm_channel(ch, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_comm_dimension_mismatch():
    ch = MultipathChannel(np.ones((1, 3), dtype=complex), np.array([0]))
    with pytest.raises(ValueError):
        apply_comm_channel(ch, np.ones((2, 10)))


def test_comm_noise_variance():
    ch = MultipathChannel(np.zeros((1, 2), dtype=complex), np.array([0]))
    sigma2 = 0.37
    y = apply_comm_channel(ch, np.zeros((2, 20_000)), sigma2,
                           np.random.default_rng(3))
    # |z|^2 is exponential: std err of the mean is sigma2 / sqrt(n)
    assert abs(np.mean(np.abs(y) ** 2) - sigma2) <= 3 * sigma2 / np.sqrt(y.size)


# ------------------------------------------------------------ radar echo

def test_radar_zero_doppler_zero_delay():
    rng = np.random.default_rng(1)
    tx = complex_normal(rng, (3, 16))
    tgt = RadarTarget(gain=0.5 - 0.1j, direction=0.3, delay_symbols=0,
                      doppler_hz=0.0)
    a = steering_vector(0.3, 3)
    assert np.allclose(apply_radar_channel(tgt, tx, 1e-8),
                       tgt.gain * (np.conj(a) @ tx), atol=1e-12)


def test_radar_absent_target_noise_variance():
    tgt = RadarTarget(gain=0.0, direction=0.0, delay_symbols=3, doppler_hz=0.0)
    sigma2 = 2.5
    y = apply_radar_channel(tgt, np.ones((2, 30_000)), 1e-8, sigma2,
                            np.random.default_rng(11))
    assert abs(np.mean(np.abs(y) ** 2) - sigma2) <= 3 * sigma2 / np.sqrt(y.size)


def test_radar_matches_sample_loop():
    rng = np.random.default_rng(2)
    n = 64
    t_s = 1e-8
    tx = complex_normal(rng, (2, n))
    tgt = RadarTarget(gain=1.3 + 0.4j, direction=-0.7, delay_symbols=5,
                      doppler_hz=1.0 / (4 * n * t_s))
    assert np.allclose(apply_radar_channel(tgt, tx, t_s),
                       radar_channel_loop_oracle(tgt, tx, t_s), atol=1e-12)


@pytest.mark.parametrize("noise_power", [0.0, 0.7])
def test_radar_projected_sequence_matches_the_array_block(noise_power):
    # the (N,) sequence a^H x the target sees gives the echo of the (M, N)
    # block, noise included: both paths draw it from the rng the same way
    rng = np.random.default_rng(3)
    t_s, n = 1e-8, 500
    tx = complex_normal(rng, (6, n))
    tgt = RadarTarget(gain=0.8 - 1.1j, direction=0.45, delay_symbols=17,
                      doppler_hz=1.0 / (7 * n * t_s))
    seen = np.conj(steering_vector(tgt.direction, 6)) @ tx
    full = apply_radar_channel(tgt, tx, t_s, noise_power, np.random.default_rng(4))
    projected = apply_radar_channel(tgt, seen, t_s, noise_power, np.random.default_rng(4))
    assert projected.shape == (n,)
    assert np.linalg.norm(projected - full) <= 1e-12 * np.linalg.norm(full)


def test_radar_echo_of_a_sequence_holds_at_most_three_sequences():
    # the delayed copy, scaled in place, holds the echo (16 N bytes) beside the
    # Doppler ramp (16 N); the ramp is dropped before the noise, whose draw
    # holds one complex array (16 N) and one real part at a time (8 N). So the
    # peak is 40 N bytes plus small objects, within 3 x 16 N.
    n = 99_800
    rng = np.random.default_rng(12)
    seen = complex_normal(rng, (n,))
    tgt = RadarTarget(gain=0.8 - 1.1j, direction=0.45, delay_symbols=17,
                      doppler_hz=1.0 / (7 * n * 1e-8))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        apply_radar_channel(tgt, seen, 1e-8, 0.7, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * n


def test_radar_rejects_a_three_dimensional_block():
    tgt = RadarTarget(gain=1.0, direction=0.0, delay_symbols=0, doppler_hz=0.0)
    with pytest.raises(ValueError):
        apply_radar_channel(tgt, np.ones((2, 3, 16)), 1e-8)
    with pytest.raises(ValueError):
        apply_radar_channel(tgt, np.complex128(1.0), 1e-8)


def test_radar_guard_violation_strict_and_sweep():
    tgt = RadarTarget(gain=1.0, direction=0.0, delay_symbols=7, doppler_hz=0.0)
    tx = np.ones((2, 16))
    with pytest.raises(InfeasibleError):
        apply_radar_channel(tgt, tx, 1e-8, guard_length=5, strict=True)
    with pytest.warns(UserWarning):
        y = apply_radar_channel(tgt, tx, 1e-8, guard_length=5, strict=False)
    assert y.shape == (16,)


# ------------------------------------------------------------ radar equation

def test_round_trip_gain_reference_value():
    lam = C_LIGHT / 28e9
    expected = lam ** 2 / ((4 * np.pi) ** 3 * 200.0 ** 4)
    assert radar_round_trip_gain(200.0, lam, 1.0) == pytest.approx(expected)


def test_round_trip_gain_scalings():
    g = radar_round_trip_gain(100.0, 0.01, 1.0)
    assert radar_round_trip_gain(100.0, 0.01, 2.0) == pytest.approx(2 * g)
    assert radar_round_trip_gain(50.0, 0.01, 1.0) == pytest.approx(16 * g)
    with pytest.raises(ValueError):
        radar_round_trip_gain(0.0, 0.01, 1.0)


def test_target_from_geometry():
    s = ScenarioConfig.mmwave_default()
    tgt = RadarTarget.from_geometry(s, 200.0, 1.0, np.pi / 6, 15.0)
    assert tgt.delay_symbols == round(2 * 200.0 / C_LIGHT * 100e6)  # 133
    assert tgt.doppler_hz == pytest.approx(2 * 15.0 / s.wavelength_m)
    assert abs(tgt.gain) ** 2 == pytest.approx(
        radar_round_trip_gain(200.0, s.wavelength_m, 1.0))
    assert tgt.gain.imag == 0.0  # deterministic phase without an rng
    drawn = RadarTarget.from_geometry(s, 200.0, 1.0, np.pi / 6, 15.0,
                                      rng=np.random.default_rng(0))
    assert abs(drawn.gain) == pytest.approx(abs(tgt.gain))


# --------------------------------------------------------------- noise moments

def test_complex_normal_moments():
    rng = np.random.default_rng(17)
    z = complex_normal(rng, (100_000,), variance=3.0)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(3.0, rel=0.03)
    # circular symmetry: pseudo-variance E[z^2] vanishes
    assert abs(np.mean(z ** 2)) < 0.05


def complex_normal_expression_oracle(rng, shape, variance):
    """The draw as one expression: real parts, then imaginary parts, scaled."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("shape", [(), (1,), (16_384,), (3, 7), (2, 3, 5)])
def test_complex_normal_matches_the_expression_bit_for_bit(shape):
    for variance in (1.0, 0.3, 2.5e-13, 7.0):
        got = complex_normal(np.random.default_rng(23), shape, variance)
        want = complex_normal_expression_oracle(np.random.default_rng(23), shape, variance)
        assert type(got) is type(want) and np.shape(got) == shape
        # the bits of every real and imaginary part, signed zeros included
        assert np.atleast_1d(got).view(np.uint64).tobytes() == \
            np.atleast_1d(want).view(np.uint64).tobytes()
