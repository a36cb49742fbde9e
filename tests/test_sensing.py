"""Matched-filter sensing tests: template algebra, map oracle, stream
decorrelation, output-SNR formulas, peak estimation, ambiguity limits."""

import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from damisac import (
    DamBeamformer,
    DelayDopplerMap,
    RadarTarget,
    SensingGrid,
    apply_radar_channel,
    build_dam_block,
    complex_normal,
    dam_ambiguity_limits,
    delay_doppler_map,
    estimate_delay_doppler,
    export_map_csv,
    generate_symbols,
    matched_filter_template,
    ScenarioConfig,
    sensing_snr,
    steering_vector,
)
from damisac.channel import _shift_zero_prefix
from damisac.sensing import _MAP_BLOCK, _denominator, _fold_size
from damisac.units import C_LIGHT

from dam_oracle import correlation_matrix, max_sensing_snr

TS = 1e-8


def steered_beamformer(m, l, power=1.0, theta=0.3):
    a = steering_vector(theta, m)
    f = np.sqrt(power / (m * l)) * np.tile(a[:, None], (1, l))
    return DamBeamformer.aligned(f, np.arange(l))


def make_echo(bf, block, theta, delay, doppler_hz, gain=1.0, noise=0.0, rng=None):
    tx = build_dam_block(block, bf)
    target = RadarTarget(gain=gain, direction=theta, delay_symbols=delay,
                         doppler_hz=doppler_hz)
    return apply_radar_channel(target, tx, TS, noise_power=noise, rng=rng,
                               guard_length=max(delay, 1), strict=True)


# ------------------------------------------------------------------ templates

def test_template_unit_norm():
    rng = np.random.default_rng(0)
    block = generate_symbols(rng, 128, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 2)), [0, 3])
    for delay in (0, 5, 60):
        for dop in (0.0, 1.7e5, -4.0e6):
            t = matched_filter_template(bf, block, 0.7, delay, dop, TS)
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12


def test_template_zero_doppler_is_shifted_waveform():
    rng = np.random.default_rng(1)
    block = generate_symbols(rng, 64, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (3, 2)), [0, 2])
    a = steering_vector(0.4, 3)
    base = np.conj(a) @ build_dam_block(block, bf)
    shifted = _shift_zero_prefix(base, 4)
    t = matched_filter_template(bf, block, 0.4, 4, 0.0, TS)
    assert np.allclose(t, shifted / np.linalg.norm(shifted), atol=1e-12)


def test_template_out_of_block_rejected():
    rng = np.random.default_rng(2)
    block = generate_symbols(rng, 32, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (2, 1)), [0])
    with pytest.raises(ValueError):
        matched_filter_template(bf, block, 0.0, 32, 0.0, TS)
    with pytest.raises(ValueError):
        matched_filter_template(bf, block, 0.0, -1, 0.0, TS)


def test_noiseless_peak_value():
    # at the true cell the correlation is exactly gain * ||shifted waveform||
    rng = np.random.default_rng(3)
    block = generate_symbols(rng, 256, "qpsk")
    bf = steered_beamformer(4, 2)
    theta, delay = 0.3, 7
    res = 1.0 / (256 * TS)
    doppler = 3 * res
    gain = 0.8 - 0.6j
    echo = make_echo(bf, block, theta, delay, doppler, gain)
    a = steering_vector(theta, 4)
    base = np.conj(a) @ build_dam_block(block, bf)
    expected = abs(gain) * np.linalg.norm(_shift_zero_prefix(base, delay))
    t = matched_filter_template(bf, block, theta, delay, doppler, TS)
    assert abs(np.vdot(t, echo)) == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------------ map oracle

def test_map_matches_per_cell_templates():
    rng = np.random.default_rng(4)
    block = generate_symbols(rng, 256, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 2)), [0, 4])
    theta = -0.2
    echo = complex_normal(rng, (256,))   # arbitrary input, oracle is exact
    res = 1.0 / (256 * TS)
    grid = SensingGrid(np.arange(9), res * np.arange(-3, 4), TS, 256)
    ddmap = delay_doppler_map(echo, bf, block, theta, grid)
    for i, p in enumerate(grid.delay_bins):
        for j, f in enumerate(grid.doppler_bins_hz):
            t = matched_filter_template(bf, block, theta, int(p), float(f), TS)
            assert abs(ddmap.values[i, j] - np.vdot(t, echo)) < 1e-10


def dense_map(echo, bf, block, theta, grid):
    """The map as one Q x N phase matrix times each shifted, conjugated row."""
    n = grid.block_length
    base = np.conj(steering_vector(theta, bf.num_antennas)) @ build_dam_block(block, bf)
    phases = np.exp(-2j * np.pi * np.outer(grid.doppler_bins_hz,
                                           grid.symbol_duration_s * np.arange(n)))
    values = np.zeros(grid.shape, dtype=complex)
    for i, p in enumerate(grid.delay_bins):
        shifted = _shift_zero_prefix(base, int(p))
        values[i] = phases @ (np.conj(shifted) * echo) / np.linalg.norm(shifted)
    return values


# below one block, an exact multiple of it, and a partial last block; the
# delays span the block, so neither grid folds
@pytest.mark.parametrize("n", [_MAP_BLOCK // 2 - 3, 2 * _MAP_BLOCK, 2 * _MAP_BLOCK + 777])
@pytest.mark.parametrize("dopplers", ["non-uniform", "single"])
def test_blocked_map_matches_dense_oracle(n, dopplers):
    rng = np.random.default_rng(n)
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 3)), [0, 2, 7])
    echo = complex_normal(rng, (n,))
    half = 0.5 / TS
    if dopplers == "single":
        dops = np.array([0.37 * half])
    else:
        dops = np.concatenate([np.sort(rng.uniform(-half, half, 6)), [half]])
    # unsorted, repeated and up to the last sample
    delays = np.array([n - 1, 0, 5, n // 2, 1, 5, n - 2])
    grid = SensingGrid(delays, dops, TS, n)
    assert _fold_size(grid) is None
    got = delay_doppler_map(echo, bf, block, 0.3, grid).values
    assert np.max(np.abs(got - dense_map(echo, bf, block, 0.3, grid))) \
        <= 1e-12 * np.linalg.norm(echo)


# below one block, an exact multiple of it, and a partial last block
@pytest.mark.parametrize("n", [_MAP_BLOCK // 2 - 3, 2 * _MAP_BLOCK + 777])
@pytest.mark.parametrize("stack", [1, 3])
def test_stacked_map_matches_each_echo_and_the_dense_oracle(n, stack):
    rng = np.random.default_rng(n + stack)
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 3)), [0, 2, 7])
    echoes = complex_normal(rng, (stack, n))
    half = 0.5 / TS
    dops = np.concatenate([np.sort(rng.uniform(-half, half, 5)), [half]])
    delays = np.array([n - 1, 0, 5, n // 2, 1, 5, n - 2])   # with a repeat
    grid = SensingGrid(delays, dops, TS, n)
    got = delay_doppler_map(echoes, bf, block, 0.3, grid)
    assert got.values.shape == (stack,) + grid.shape
    for t, echo in enumerate(echoes):
        bound = 1e-12 * np.linalg.norm(echo)
        alone = delay_doppler_map(echo, bf, block, 0.3, grid).values
        assert np.max(np.abs(got.values[t] - alone)) <= bound
        assert np.max(np.abs(got.values[t] - dense_map(echo, bf, block, 0.3, grid))) <= bound
    # any stack shape: (1, stack) echoes give (1, stack, P, Q) maps
    assert np.array_equal(delay_doppler_map(echoes[None], bf, block, 0.3, grid).values,
                          got.values[None])


def test_denominator_is_the_least_whole_count():
    # every a/b below 20 000 in lowest terms, within 1e-9 of no such fraction
    rng = np.random.default_rng(23)
    for b in rng.integers(1, 20_000, 300).tolist():
        a = int(rng.integers(-(b // 2), b // 2 + 1))
        q = Fraction(a, b).denominator
        assert _denominator(a / b, 20_000) == q
        assert _denominator(a / b, q - 1) is None
        assert _denominator(a / b + 1e-9, 20_000) is None


def folding_grid(case, n):
    """A grid over n samples and the fold size the map takes for it (None:
    it runs in blocks). The offsets from the first bin repeat every D_0
    samples, and D is the least multiple of D_0 at least the delay span:
    - survey: 129 bins 1/128 cycle apart (D_0 = 128) over delays 0..20;
    - commensurate: seven non-uniform bins m/96 cycle from the first, whose
      reduced denominators 96, 32 and 48 give D_0 = 96, over unsorted
      delays spanning 88;
    - delay-range: the survey's bins over a permutation of the delays
      140..179, with 147 repeated (span 40, D = 128);
    - single: one cell, whose one offset is 0 (D = 1);
    - wide-span: the survey's bins over delays 3 000 apart, whose D = 3 072
      sums would outgrow the P x B rows of the blocked map;
    - off-period: the survey's bins over delays 0..20 but for one bin
      1e-9 cycles per 4 096 samples off, which folds only without it."""
    half = 0.5 / TS
    survey = SensingGrid.survey(20, n, TS).doppler_bins_hz
    near = np.array([0, 5, 20, 5, 1])
    grid, fold = {
        "survey": (SensingGrid.survey(20, n, TS), 128),
        "commensurate": (SensingGrid(
            [3, 40, 7, 7, 90, 12],
            (0.0123 + np.array([0, 1, -3, 5, 38, -41, 7]) / 96) / TS, TS, n), 96),
        "delay-range": (SensingGrid(np.r_[140 + 7 * np.arange(40) % 40, 147],
                                    survey, TS, n), 128),
        "single": (SensingGrid([5], [0.37 * half], TS, n), 1),
        "wide-span": (SensingGrid([2, 3000, 5], survey, TS, n), None),
        "off-period": (SensingGrid(near, survey + 1e-9 / (_MAP_BLOCK * TS)
                                   * (np.arange(survey.size) == 11), TS, n), None),
    }[case]
    if case == "off-period":
        assert _fold_size(SensingGrid(near, survey, TS, n)) == 128
    return grid, fold


# each n ends in a partial period of its D, but for the single cell's D = 1
@pytest.mark.parametrize("case, n, stack", [
    ("survey", 3 * _MAP_BLOCK + 777, 1), ("survey", 3 * _MAP_BLOCK + 777, 3),
    ("commensurate", 2 * _MAP_BLOCK + 1234, 1), ("commensurate", 2 * _MAP_BLOCK + 1234, 3),
    ("delay-range", 3 * _MAP_BLOCK + 777, 1), ("single", 2 * _MAP_BLOCK + 777, 1),
    ("wide-span", 3 * _MAP_BLOCK + 777, 1), ("off-period", 3 * _MAP_BLOCK + 777, 1)])
def test_folded_map_matches_dense_oracle(case, n, stack):
    rng = np.random.default_rng(n + stack)
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 3)), [0, 2, 7])
    echoes = complex_normal(rng, (stack, n))
    grid, fold = folding_grid(case, n)
    assert _fold_size(grid) == fold
    assert fold in (None, 1) or n % fold
    got = delay_doppler_map(echoes, bf, block, 0.3, grid).values
    for t, echo in enumerate(echoes):
        assert np.max(np.abs(got[t] - dense_map(echo, bf, block, 0.3, grid))) \
            <= 1e-12 * np.linalg.norm(echo)


def traced_map_peak_and_bound(stack, fold=True):
    """Traced peak of a survey map at N = 65 536, Q = 129, P = 201, and its
    bound. The survey folds at D = 256: its bound is the (T, J, D) padded
    echo, the D x T x span sums and their rows gathered by delay, and the
    D x Q kernel with its arguments, plus a stated slack of 2 N complex
    samples (the zero-led conjugate waveform, which replaces the projected
    one, and N for the running sum of |base|^2 and small arrays) and one
    T x P x Q map. Without fold, one bin sits 1e-9 cycles per 4 096 samples
    off the survey's period, so the map runs in blocks: one (T, P, B) work
    buffer and the B x Q kernel, plus a slack of 3 N complex samples (the
    zero-led conjugate waveform, and 2 N for the kernel's factor tables, a
    block's samples and one delay's rows, and small arrays) and three
    T x P x Q maps (the values, one product and its phased copy)."""
    n, q = 65_536, 129
    rng = np.random.default_rng(17)
    block = generate_symbols(rng, n, "qpsk")
    bf = steered_beamformer(4, 3)
    echo = complex_normal(rng, (n,) if stack is None else (stack, n))
    grid = SensingGrid.survey(200, n, TS, q)
    if not fold:
        grid = SensingGrid(grid.delay_bins, grid.doppler_bins_hz
                           + 1e-9 / (_MAP_BLOCK * TS) * (np.arange(q) == 11), TS, n)
    d = _fold_size(grid)
    assert d == (256 if fold else None)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        delay_doppler_map(echo, bf, block, 0.3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, p = stack or 1, grid.shape[0]
    if fold:
        padded = -(-n // d) * d
        bound = 16 * (t * padded + 2 * d * t * p + 2 * d * q) + 16 * (2 * n + t * p * q)
    else:
        bound = 16 * (t * p * _MAP_BLOCK + _MAP_BLOCK * q) + 16 * (3 * n + 3 * t * p * q)
    return peak, bound, 16 * q * n


def test_map_memory_stays_below_the_phase_matrix():
    # indexing or broadcasting the windows would copy them span times over;
    # the dense form held a Q x N phase matrix. The survey folds; a grid just
    # off its period runs in blocks.
    for fold in (True, False):
        peak, bound, phase_matrix = traced_map_peak_and_bound(None, fold)
        assert peak <= bound < 0.5 * phase_matrix


def test_stacked_folded_map_memory_is_o_of_tn_plus_d_span_t():
    peak, bound, _ = traced_map_peak_and_bound(3)
    assert peak <= bound


def test_map_shape_and_validation():
    rng = np.random.default_rng(5)
    block = generate_symbols(rng, 64, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (2, 1)), [0])
    grid = SensingGrid(np.arange(4), np.array([0.0]), TS, 64)
    ddmap = delay_doppler_map(complex_normal(rng, (64,)), bf, block, 0.0, grid)
    assert ddmap.values.shape == (4, 1)
    with pytest.raises(ValueError):
        delay_doppler_map(complex_normal(rng, (32,)), bf, block, 0.0, grid)
    for delay in (64, 65, 1000):   # the template leaves the block
        beyond = SensingGrid(np.array([0, delay]), np.array([0.0]), TS, 64)
        with pytest.raises(ValueError, match="zero template"):
            delay_doppler_map(complex_normal(rng, (64,)), bf, block, 0.0, beyond)


def test_noise_only_cells_average_noise_power():
    rng = np.random.default_rng(6)
    n, sigma2 = 512, 2.0
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (3, 2)), [0, 2])
    res = 1.0 / (n * TS)
    grid = SensingGrid(np.arange(9), res * np.arange(-4, 5), TS, n)
    acc = []
    for _ in range(30):
        echo = complex_normal(rng, (n,), sigma2)
        acc.append(delay_doppler_map(echo, bf, block, 0.1, grid).power().mean())
    assert np.mean(acc) == pytest.approx(sigma2, rel=0.15)


def test_doppler_ramp_shifts_map_columns():
    # rotating the echo by k Doppler bins slides the map along that axis
    rng = np.random.default_rng(7)
    n = 256
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 2)), [0, 3])
    echo = complex_normal(rng, (n,))
    res = 1.0 / (n * TS)
    grid = SensingGrid(np.arange(6), res * np.arange(-8, 9), TS, n)
    base_map = delay_doppler_map(echo, bf, block, 0.0, grid).values
    rotated = echo * np.exp(2j * np.pi * 3 * res * TS * np.arange(n))
    rot_map = delay_doppler_map(rotated, bf, block, 0.0, grid).values
    assert np.allclose(rot_map[:, 3:], base_map[:, :-3], atol=1e-10)


# ------------------------------------------------------------- decorrelation

def test_correlation_matched_probe_constant_stream():
    rng = np.random.default_rng(8)
    n = 1024
    block = generate_symbols(rng, n, "qpsk")
    block.symbols = np.ones(n, dtype=complex)
    kappa = np.array([5, 3, 0])
    e = correlation_matrix(block, kappa, probe_delay=2, true_delay=2)
    assert np.all(e.real >= n - 7)
    assert np.all(e.real <= n)


def test_correlation_offset_probe_picks_matching_pair():
    # probe delay 2 realigns the kappa=3 stream with the kappa=5 one
    rng = np.random.default_rng(9)
    n = 4096
    block = generate_symbols(rng, n, "qpsk")
    kappa = np.array([5, 3, 0])
    e = correlation_matrix(block, kappa, probe_delay=2, true_delay=0)
    assert e[0, 1].real > 0.95 * n
    mask = np.ones_like(e, dtype=bool)
    mask[0, 1] = False
    assert np.max(np.abs(e[mask])) <= 4 * np.sqrt(n)


def test_correlation_offdiagonal_bound_many_seeds():
    n = 4096
    kappa = np.array([5, 3, 0])
    offdiag = ~np.eye(3, dtype=bool)
    for seed in range(100):
        block = generate_symbols(np.random.default_rng(seed), n, "qpsk")
        e = correlation_matrix(block, kappa, probe_delay=0, true_delay=0)
        assert np.max(np.abs(e[offdiag])) <= 4 * np.sqrt(n)


def test_correlation_gram_is_hermitian_psd():
    rng = np.random.default_rng(10)
    block = generate_symbols(rng, 512, "qpsk")
    kappa = np.array([4, 1, 0])
    e = correlation_matrix(block, kappa, probe_delay=1, true_delay=1)
    assert np.allclose(e, e.conj().T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(e)) >= -1e-9 * 512


def test_correlation_leakage_scales_inverse_sqrt_n():
    kappa = np.array([6, 2, 0])
    offdiag = ~np.eye(3, dtype=bool)
    levels = []
    for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14):
        vals = []
        for seed in range(20):
            block = generate_symbols(np.random.default_rng(seed), n, "qpsk")
            e = correlation_matrix(block, kappa, 0, 0)
            vals.append(np.max(np.abs(e[offdiag])) / n)
        levels.append(np.mean(vals))
    levels = np.array(levels)
    assert np.all(np.diff(levels) < 0)
    # 4x in N should shrink relative leakage by about 2x each step
    assert np.all(levels[:-1] / levels[1:] > 1.4)
    assert levels[0] / levels[-1] > 4.0


# -------------------------------------------------------------- output SNR

def test_sensing_snr_steered_hits_ceiling():
    m, l, n, p, sigma2 = 8, 3, 2048, 2.0, 0.5
    gain = 0.3 + 0.1j
    bf = steered_beamformer(m, l, p, theta=0.3)
    got = sensing_snr(bf.beam_matrix, 0.3, gain, n, sigma2)
    assert got == pytest.approx(max_sensing_snr(m, n, p, gain, sigma2), rel=1e-12)


def test_sensing_snr_zero_beamformer():
    assert sensing_snr(np.zeros((4, 2)), 0.1, 1.0, 100, 1.0) == 0.0


def test_sensing_snr_quadratic_form():
    rng = np.random.default_rng(11)
    m, n, sigma2 = 6, 512, 0.7
    f = complex_normal(rng, (m, 3))
    theta, gain = -0.5, 1.2 - 0.4j
    a = steering_vector(theta, m)
    quad = np.real(np.conj(a) @ (f @ f.conj().T) @ a)
    expected = abs(gain) ** 2 * n * quad / sigma2
    assert sensing_snr(f, theta, gain, n, sigma2) == pytest.approx(expected, rel=1e-12)


def test_max_sensing_snr_scalings():
    # the oracle's ceiling |alpha|^2 N M P / sigma^2, one factor at a time
    base = max_sensing_snr(8, 1000, 1.0, 1.0, 1.0)
    assert max_sensing_snr(16, 1000, 1.0, 1.0, 1.0) == pytest.approx(2 * base)
    assert max_sensing_snr(8, 2000, 1.0, 1.0, 1.0) == pytest.approx(2 * base)
    assert max_sensing_snr(8, 1000, 2.0, 1.0, 1.0) == pytest.approx(2 * base)
    assert max_sensing_snr(8, 1000, 1.0, 2.0, 1.0) == pytest.approx(4 * base)
    assert max_sensing_snr(8, 1000, 1.0, 1.0, 2.0) == pytest.approx(base / 2)


# ------------------------------------------------------------------ estimation

def test_estimate_on_grid_noiseless_exact():
    rng = np.random.default_rng(12)
    n = 512
    block = generate_symbols(rng, n, "qpsk")
    bf = steered_beamformer(4, 2)
    res = 1.0 / (n * TS)
    delay, doppler = 6, -2 * res
    echo = make_echo(bf, block, 0.3, delay, doppler)
    grid = SensingGrid(np.arange(12), res * np.arange(-5, 6), TS, n)
    d_hat, f_hat, peak = estimate_delay_doppler(
        delay_doppler_map(echo, bf, block, 0.3, grid))
    assert d_hat == delay
    assert f_hat == pytest.approx(doppler)
    assert peak > 0


def test_estimate_at_20db_peak_snr():
    rng = np.random.default_rng(13)
    n, m, l = 1024, 8, 2
    block = generate_symbols(rng, n, "qpsk")
    bf = steered_beamformer(m, l, 1.0, theta=0.3)
    sigma2 = max_sensing_snr(m, n, 1.0, 1.0, 1.0) / 100.0   # gamma_p = 20 dB
    res = 1.0 / (n * TS)
    delay, doppler = 9, 2 * res
    grid = SensingGrid(np.arange(17), res * np.arange(-4, 5), TS, n)
    hits = 0
    for _ in range(100):
        echo = make_echo(bf, block, 0.3, delay, doppler, noise=sigma2, rng=rng)
        d_hat, _, _ = estimate_delay_doppler(
            delay_doppler_map(echo, bf, block, 0.3, grid))
        hits += d_hat == delay
    assert hits >= 99


def test_estimate_off_grid_doppler_within_one_bin():
    rng = np.random.default_rng(14)
    n = 512
    block = generate_symbols(rng, n, "qpsk")
    bf = steered_beamformer(4, 2)
    res = 1.0 / (n * TS)
    doppler = 2.4 * res
    echo = make_echo(bf, block, 0.3, 5, doppler)
    grid = SensingGrid(np.arange(10), res * np.arange(-6, 7), TS, n)
    d_hat, f_hat, _ = estimate_delay_doppler(
        delay_doppler_map(echo, bf, block, 0.3, grid))
    assert d_hat == 5
    assert abs(f_hat - doppler) <= res


def test_estimate_tie_breaking():
    grid = SensingGrid(np.array([2, 5]), np.array([-100.0, 0.0, 100.0]), 1e-3, 8)
    values = np.zeros((2, 3), dtype=complex)
    values[0, 0] = 1.0   # delay 2, -100 Hz
    values[0, 2] = 1.0   # delay 2, +100 Hz
    values[1, 1] = 1.0   # delay 5, 0 Hz
    d_hat, f_hat, peak = estimate_delay_doppler(DelayDopplerMap(values, grid))
    assert (d_hat, peak) == (2, 1.0)
    assert abs(f_hat) == 100.0


def peak_pick_oracle(power, grid):
    """The tie rule one map at a time: every cell within 1e-12 of the peak, the
    smallest delay among them, then the smallest |Doppler|, then the first."""
    cand = np.argwhere(power >= power.max() * (1.0 - 1e-12))
    delays = grid.delay_bins[cand[:, 0]]
    cand = cand[delays == delays.min()]
    row, col = cand[np.argmin(np.abs(grid.doppler_bins_hz[cand[:, 1]]))]
    return int(grid.delay_bins[row]), float(grid.doppler_bins_hz[col]), float(power[row, col])


def test_stacked_estimate_matches_each_map():
    # unsorted and repeated delays, and a Doppler axis with +-f pairs
    grid = SensingGrid(np.array([5, 2, 9, 2]), np.array([100.0, -100.0, 0.0, 50.0, -50.0]),
                       1e-3, 16)
    rng = np.random.default_rng(15)
    values = complex_normal(rng, (2, 3) + grid.shape)
    values[0, 0] = 0.0                      # every cell ties
    values[0, 1] = 0.0
    values[0, 1, [0, 1, 2], [0, 1, 2]] = 1.0  # delays 5, 2, 9: delay 2 wins
    values[0, 1, 3, 4] = 1.0                # delay 2 again at -50 Hz: |f| wins
    values[0, 2] = 0.0
    values[0, 2, [1, 1], [3, 4]] = -1.0j     # delay 2, +-50 Hz: the first wins
    values[1, 0, 2, 2] = 1e3                # one clear peak
    values[1, 1] *= 1e-300                  # tiny but not zero
    stacked = DelayDopplerMap(values, grid)
    d_hat, f_hat, peak = estimate_delay_doppler(stacked)
    assert d_hat.shape == f_hat.shape == peak.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        alone = estimate_delay_doppler(DelayDopplerMap(values[idx], grid))
        assert isinstance(alone[0], int) and isinstance(alone[1], float)
        assert alone == peak_pick_oracle(np.abs(values[idx]) ** 2, grid)
        assert (d_hat[idx], f_hat[idx], peak[idx]) == alone
    assert (d_hat[0, 0], f_hat[0, 0]) == (2, 0.0)
    assert (d_hat[0, 1], f_hat[0, 1], peak[0, 1]) == (2, -50.0, 1.0)
    assert (d_hat[0, 2], f_hat[0, 2]) == (2, 50.0)
    assert (d_hat[1, 0], f_hat[1, 0]) == (9, 0.0)


# ------------------------------------------------------------- grids / limits

def test_grid_validation():
    with pytest.raises(ValueError):
        SensingGrid(np.array([-1, 0]), np.array([0.0]), TS, 64)
    for bad in (1.0 / TS, np.nan):
        with pytest.raises(ValueError, match="Doppler bins"):
            SensingGrid(np.array([0]), np.array([bad]), TS, 64)
    with pytest.raises(ValueError):
        SensingGrid(np.zeros((2, 2)), np.array([0.0]), TS, 64)
    with pytest.raises(ValueError):
        SensingGrid(np.array([0]), np.array([0.0]), TS, 0)


def test_grid_resolutions_and_survey():
    grid = SensingGrid.survey(guard_length=20, block_length=400,
                              symbol_duration_s=TS, num_doppler_bins=11)
    assert grid.delay_bins[0] == 0 and grid.delay_bins[-1] == 20
    assert grid.doppler_bins_hz[-1] == pytest.approx(0.5 / TS)
    assert grid.delay_resolution_s == TS
    assert grid.doppler_resolution_hz == pytest.approx(1.0 / (400 * TS))


def test_grid_refine_clamps_and_filters():
    grid = SensingGrid.refine(delay_center=2, doppler_center_hz=0.0,
                              block_length=16, symbol_duration_s=TS,
                              delay_half_width=5, doppler_half_width_bins=3)
    assert grid.delay_bins[0] == 0
    assert grid.delay_bins[-1] == 7
    assert np.all(grid.doppler_bins_hz <= 0.5 / TS)
    assert np.all(grid.doppler_bins_hz > -0.5 / TS)
    # a window past the end of the block stops at its last delay
    edge = SensingGrid.refine(delay_center=14, doppler_center_hz=0.0,
                              block_length=16, symbol_duration_s=TS, delay_half_width=5)
    assert np.array_equal(edge.delay_bins, np.arange(9, 16))


def test_ambiguity_limits_defaults():
    scen = ScenarioConfig.mmwave_default()
    lim = dam_ambiguity_limits(scen)
    lam = C_LIGHT / scen.carrier_frequency_hz
    assert lim.max_delay_symbols == 200
    assert lim.max_range_m == pytest.approx(300.0)
    assert lim.range_resolution_m == pytest.approx(1.5)
    assert lim.max_doppler_hz == pytest.approx(0.5 / scen.symbol_duration_s)
    assert lim.max_velocity_m_s == pytest.approx(lim.max_doppler_hz * lam / 2)
    assert lim.doppler_resolution_hz == pytest.approx(
        1.0 / (99_800 * scen.symbol_duration_s))
    assert lim.velocity_resolution_m_s == pytest.approx(
        lim.doppler_resolution_hz * lam / 2)


# ------------------------------------------------------------------- export

def test_export_map_csv_layout(tmp_path):
    grid = SensingGrid(np.array([0, 3]), np.array([-50.0, 0.0, 50.0]), 1e-3, 16)
    values = np.arange(6, dtype=float).reshape(2, 3) + 1.0
    ddmap = DelayDopplerMap(values.astype(complex), grid)
    path = tmp_path / "map.csv"
    export_map_csv(path, ddmap, comments=("demo run",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo run"
    rows = list(csv.reader(lines[1:]))
    assert rows[0][0] == "delay_bin"
    assert [float(c) for c in rows[0][1:]] == [-50.0, 0.0, 50.0]
    assert int(rows[1][0]) == 0 and int(rows[2][0]) == 3
    assert float(rows[2][3]) == pytest.approx(10 * np.log10(36.0))
