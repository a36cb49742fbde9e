"""Transmit block construction tests: delay schedules, block assembly oracle,
communication SNR, ISI decomposition, and PAPR."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damisac import (
    DamBeamformer,
    IsacProblem,
    MultipathChannel,
    apply_comm_channel,
    build_dam_block,
    complex_normal,
    delayed_symbol_matrix,
    generate_symbols,
    papr_empirical,
    projected_dam_block,
    steering_vector,
)
from damisac.channel import _shift_zero_prefix
from damisac.waveform import _TERM_CHUNK

from dam_oracle import aligned_gain, decompose_received, projected_block


def random_channel(rng, m, l, delays):
    return MultipathChannel(complex_normal(rng, (l, m)), np.asarray(delays))


def mrt_problem(ch, power, noise_power=1.0):
    """The trade-off problem whose floor-0 solve is the package's leakage-free
    MRT; the target direction and gain do not enter it."""
    return IsacProblem(ch, 0.3, 1.0, 1024, power, noise_power)


def dam_block_loop_oracle(symbols, beam_matrix, kappa):
    m, l = beam_matrix.shape
    n = symbols.size
    out = np.zeros((m, n), dtype=complex)
    for t in range(n):
        for j in range(l):
            if t - kappa[j] >= 0:
                out[:, t] += beam_matrix[:, j] * symbols[t - kappa[j]]
    return out


# -------------------------------------------------------------- delay schedule

def aligned_schedule(delays):
    return DamBeamformer.aligned(np.ones((2, len(delays))), delays).delay_schedule


def test_aligned_schedule_examples():
    assert np.array_equal(aligned_schedule([3, 7, 10]), [7, 3, 0])
    assert np.array_equal(aligned_schedule([0]), [0])
    assert np.array_equal(aligned_schedule([0, 5]), [5, 0])
    assert np.array_equal(aligned_schedule([6]), [0])


@given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
def test_aligned_schedule_property(delays):
    kappa = aligned_schedule(delays)
    assert np.array_equal(kappa, max(delays) - np.asarray(delays))
    assert len(np.unique(kappa)) == len(kappa)
    assert kappa.min() == 0


def test_beamformer_validates_schedule():
    f = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError, match="pairwise distinct"):
        DamBeamformer(f, np.array([1, 1]))
    # unsorted and non-adjacent repeats, given as a schedule or as delays
    for delays in ([2, 2, 5], [5, 2, 5], [0, 3, 7, 3]):
        g = np.ones((4, len(delays)), dtype=complex)
        with pytest.raises(ValueError, match="pairwise distinct"):
            DamBeamformer(g, np.array(delays))
        with pytest.raises(ValueError, match="pairwise distinct"):
            DamBeamformer.aligned(g, delays)
    for delays in ([-1, 3], [-1, 0]):
        with pytest.raises(ValueError, match="path delays must be non-negative"):
            DamBeamformer.aligned(f, delays)
    delays = np.array([2, 7])
    bf = DamBeamformer.aligned(f, delays)
    assert np.array_equal(bf.delay_schedule, delays.max() - delays)
    assert np.array_equal(bf.delay_schedule, [5, 0])
    one = DamBeamformer(f[:, :1], np.array([0]))
    assert one.num_paths == 1
    assert np.array_equal(DamBeamformer.aligned(f[:, :1], [3]).delay_schedule, [0])


def test_steered_is_the_aligned_all_power_design():
    # f_l = sqrt(P / (M L)) a(theta) for every stream, bit for bit, at total
    # power P, bound by the schedule max(d) - d
    m, p, theta = 64, 1.0, np.pi / 6
    a = steering_vector(theta, m)
    for delays in (np.arange(5), np.array([0, 4, 11])):
        l = delays.size
        bf = DamBeamformer.steered(theta, m, p, delays)
        assert bf.beam_matrix.shape == (m, l)
        for col in bf.beam_matrix.T:
            np.testing.assert_array_equal(col, np.sqrt(p / (m * l)) * a)
        assert np.sum(np.abs(bf.beam_matrix) ** 2) == pytest.approx(p, rel=1e-12, abs=0)
        np.testing.assert_array_equal(bf.delay_schedule, delays.max() - delays)
    with pytest.raises(ValueError, match="path delays must be non-negative"):
        DamBeamformer.steered(theta, m, p, [-1, 3])
    with pytest.raises(ValueError, match="pairwise distinct"):
        DamBeamformer.steered(theta, m, p, [0, 3, 3])


# ------------------------------------------------------------------- symbols

def test_qpsk_symbols_unit_modulus():
    block = generate_symbols(np.random.default_rng(0), 500, "qpsk")
    assert np.allclose(np.abs(block.symbols), 1.0)
    assert len(np.unique(np.round(np.angle(block.symbols), 6))) <= 4


def test_bpsk_symbols_real():
    block = generate_symbols(np.random.default_rng(1), 200, "bpsk")
    assert set(np.round(block.symbols.real)) <= {-1.0, 1.0}
    assert np.allclose(block.symbols.imag, 0.0)


def test_gaussian_symbols_unit_power():
    block = generate_symbols(np.random.default_rng(2), 100_000, "gaussian")
    power = np.mean(np.abs(block.symbols) ** 2)
    assert abs(power - 1.0) <= 3.0 / np.sqrt(block.symbols.size)


def test_symbols_deterministic():
    a = generate_symbols(np.random.default_rng(3), 64, "psk8")
    b = generate_symbols(np.random.default_rng(3), 64, "psk8")
    assert np.array_equal(a.symbols, b.symbols)


def _direct_psk(seed, length, order):
    """The per-symbol formula: one complex exponential per drawn phase."""
    phases = np.random.default_rng(seed).integers(0, order, size=length)
    return np.exp(2j * np.pi * phases / order)


@pytest.mark.parametrize("order", [2, 4, 8, 64, 1024, 2 ** 16])
def test_psk_table_matches_the_direct_formula(order):
    # order <= length: the symbols are picked from the order-entry table
    for length in (order, order + 1, 3 * order + 5, 99_800):
        block = generate_symbols(np.random.default_rng(order + length), length, f"psk{order}")
        expected = _direct_psk(order + length, length, order)
        assert np.array_equal(block.symbols.view(float), expected.view(float)), length


@pytest.mark.parametrize("order", [2 ** 20, 2 ** 63])
def test_psk_order_above_length_evaluates_each_symbol(order):
    tracemalloc.start()
    block = generate_symbols(np.random.default_rng(6), 16, f"psk{order}")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 * 1024                     # no order-entry table was built
    assert np.array_equal(block.symbols.view(float), _direct_psk(6, 16, order).view(float))
    assert np.allclose(np.abs(block.symbols), 1.0)


def test_symbols_invalid_modulation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_symbols(rng, 8, "psk3")
    with pytest.raises(ValueError):
        generate_symbols(rng, 8, "qam16")


# ------------------------------------------------------------- block assembly

def test_single_path_passthrough():
    sym = generate_symbols(np.random.default_rng(4), 16, "qpsk")
    f = np.zeros((3, 1), dtype=complex)
    f[0, 0] = 1.0
    bf = DamBeamformer(f, np.array([0]))
    block = build_dam_block(sym, bf)
    assert np.allclose(block[0], sym.symbols)
    assert np.allclose(block[1:], 0.0)


def test_block_matches_triple_loop():
    rng = np.random.default_rng(5)
    sym = generate_symbols(rng, 32, "qpsk")
    f = complex_normal(rng, (4, 3))
    bf = DamBeamformer.aligned(f, [1, 4, 9])
    block = build_dam_block(sym, bf)
    assert np.allclose(block, dam_block_loop_oracle(sym.symbols, f,
                                                    bf.delay_schedule),
                       atol=1e-12)


def test_block_equals_matrix_product():
    rng = np.random.default_rng(6)
    sym = generate_symbols(rng, 24, "qpsk")
    f = complex_normal(rng, (2, 2))
    bf = DamBeamformer.aligned(f, [0, 3])
    stacked = delayed_symbol_matrix(sym.symbols, bf.delay_schedule)
    assert np.allclose(build_dam_block(sym, bf), f @ stacked)


def test_delayed_symbol_matrix_equals_the_per_row_shift():
    # each row is the stream shifted by kappa_l, bit for bit, and a row
    # shifted by N or more is all zero
    rng = np.random.default_rng(7)
    sym = generate_symbols(rng, 40, "qpsk").symbols
    kappa = np.array([0, 3, 17, 38])
    for extra in (0, 1, 2, 25):
        rows = delayed_symbol_matrix(sym, kappa + extra)
        want = np.stack([_shift_zero_prefix(sym, int(k) + extra) for k in kappa])
        assert rows.dtype == complex and rows.shape == (4, 40)
        np.testing.assert_array_equal(rows, want)
    assert not np.any(delayed_symbol_matrix(sym, kappa + 2)[3])       # 38 + 2 = N
    assert not np.any(delayed_symbol_matrix(sym, kappa + 25)[2:])     # 42, 63 > N


# ----------------------------------------------------------------------- SNR

def test_comm_snr_single_path_matched_filter():
    # one path leaves nothing to null: the floor-0 design is h / ||h|| at full
    # power, and its audited SNR is P ||h||^2 / sigma^2
    rng = np.random.default_rng(8)
    h = complex_normal(rng, (1, 6))
    ch = MultipathChannel(h, np.array([0]))
    p, sigma2 = 2.0, 0.01
    sol = mrt_problem(ch, p, sigma2).solve(0.0)
    assert np.allclose(sol.beamformer.beam_matrix, np.sqrt(p) * h.T / np.linalg.norm(h))
    assert sol.gamma_c == pytest.approx(p * np.linalg.norm(h) ** 2 / sigma2)


def test_comm_snr_matches_empirical():
    # ISI-ZF removes cross terms, so every steady-state sample carries the
    # same deterministic gain; 2e4 noisy samples pin the SNR to ~0.05 dB.
    rng = np.random.default_rng(11)
    ch = random_channel(rng, 8, 3, [0, 2, 5])
    sigma2 = 0.5
    sol = mrt_problem(ch, 4.0, sigma2).solve(0.0)
    bf = sol.beamformer
    sym = generate_symbols(rng, 20_000, "qpsk")
    tx = build_dam_block(sym, bf)
    y = apply_comm_channel(ch, tx, sigma2, rng)
    gain = aligned_gain(bf, ch)
    n_max = int(ch.path_delays.max())
    shifted = np.zeros_like(sym.symbols)
    shifted[n_max:] = sym.symbols[:sym.symbols.size - n_max]
    noise = y - gain * shifted
    measured = np.abs(gain) ** 2 / np.mean(np.abs(noise[n_max:]) ** 2)
    assert abs(10 * np.log10(measured / sol.gamma_c)) < 0.2


# --------------------------------------------------------------- decomposition

def test_decomposition_additivity():
    rng = np.random.default_rng(12)
    ch = random_channel(rng, 4, 3, [0, 2, 5])
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 3)), ch.path_delays)
    sym = generate_symbols(rng, 256, "qpsk")
    desired, isi = decompose_received(bf, ch, sym)
    full = apply_comm_channel(ch, build_dam_block(sym, bf))
    err = np.linalg.norm(desired + isi - full) / np.linalg.norm(full)
    assert err < 1e-10


def test_zf_beamformer_has_no_isi():
    rng = np.random.default_rng(13)
    ch = random_channel(rng, 6, 3, [0, 1, 4])
    bf = mrt_problem(ch, 1.0).solve(0.0).beamformer
    sym = generate_symbols(rng, 128, "qpsk")
    _, isi = decompose_received(bf, ch, sym)
    assert np.max(np.abs(isi)) < 1e-12


def test_single_path_has_no_isi():
    rng = np.random.default_rng(14)
    ch = random_channel(rng, 3, 1, [2])
    bf = DamBeamformer.aligned(complex_normal(rng, (3, 1)), ch.path_delays)
    sym = generate_symbols(rng, 64, "qpsk")
    _, isi = decompose_received(bf, ch, sym)
    assert np.allclose(isi, 0.0)


def test_alignment_impulse_peaks_at_common_lag():
    # a lone symbol at n=0 must arrive coherently at n_max from every path
    rng = np.random.default_rng(15)
    ch = random_channel(rng, 6, 3, [1, 3, 8])
    bf = mrt_problem(ch, 1.0).solve(0.0).beamformer
    impulse = generate_symbols(rng, 20, "qpsk")
    impulse.symbols = np.zeros(20, dtype=complex)
    impulse.symbols[0] = 1.0
    y = apply_comm_channel(ch, build_dam_block(impulse, bf))
    gain = aligned_gain(bf, ch)
    n_max = int(ch.path_delays.max())
    assert y[n_max] == pytest.approx(gain)
    others = np.delete(y, n_max)
    assert np.max(np.abs(others)) < 1e-12 * abs(gain)


def test_isi_power_union_bound():
    # perturbed ZF: residual power stays under L(L-1) * delta^2
    rng = np.random.default_rng(16)
    ch = random_channel(rng, 6, 3, [0, 2, 5])
    bf = mrt_problem(ch, 1.0).solve(0.0).beamformer
    f = bf.beam_matrix + 1e-3 * complex_normal(rng, bf.beam_matrix.shape)
    bf2 = DamBeamformer.aligned(f, ch.path_delays)
    cross = np.conj(ch.path_vectors) @ f
    delta = np.max(np.abs(cross - np.diag(np.diag(cross))))
    sym = generate_symbols(rng, 4096, "qpsk")
    _, isi = decompose_received(bf2, ch, sym)
    l = ch.num_paths
    assert np.mean(np.abs(isi) ** 2) <= l * (l - 1) * delta ** 2


def test_projected_dam_block_matches_full_block():
    rng = np.random.default_rng(16)
    block = generate_symbols(rng, 3000, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (16, 4)), [0, 3, 5, 11])
    want = np.conj(steering_vector(-0.6, 16)) @ build_dam_block(block, bf)
    got = projected_dam_block(block, bf, -0.6)
    assert got.shape == (3000,)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_projected_dam_block_matches_the_matrix_oracle(data):
    # any M, L, N (up to one and a half product chunks) and distinct schedule,
    # some streams starting past the block
    m, l = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 3 * 4096))
    kappa = data.draw(st.lists(st.integers(0, n - 1) | st.integers(n, n + 10),
                               min_size=l, max_size=l, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    block = generate_symbols(rng, n, data.draw(st.sampled_from(["qpsk", "gaussian"])))
    bf = DamBeamformer(complex_normal(rng, (m, l)), kappa)
    theta = data.draw(st.floats(-np.pi / 2, np.pi / 2))
    got = projected_dam_block(block, bf, theta)
    want = projected_block(block, bf, theta)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want), initial=0.0)


def test_projected_dam_block_memory_is_one_sequence_and_a_chunk():
    # the sum (16 N bytes) and one reused product buffer of _TERM_CHUNK
    # samples; 64 KiB covers the steering vector, a^H F and the interpreter's
    # small objects. An L x N matrix of delayed streams alone would take 16 L N.
    n = 99_800
    rng = np.random.default_rng(23)
    block = generate_symbols(rng, n, "qpsk")
    bf = DamBeamformer.aligned(complex_normal(rng, (64, 5)), [0, 3, 9, 17, 40])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        projected_dam_block(block, bf, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (n + _TERM_CHUNK) + 64 * 1024


def test_power_accounting_empirical():
    rng = np.random.default_rng(17)
    ch = random_channel(rng, 4, 3, [0, 1, 3])
    bf = DamBeamformer.aligned(complex_normal(rng, (4, 3)), ch.path_delays)
    sym = generate_symbols(rng, 10_000, "qpsk")
    tx = build_dam_block(sym, bf)
    mean_power = np.mean(np.sum(np.abs(tx) ** 2, axis=0))
    assert mean_power == pytest.approx(np.sum(np.abs(bf.beam_matrix) ** 2), rel=0.02)


# ----------------------------------------------------------------------- PAPR

@pytest.mark.blas
def test_papr_single_path_psk_is_flat():
    rng = np.random.default_rng(18)
    sym = generate_symbols(rng, 512, "qpsk")
    f = complex_normal(rng, (4, 1))
    bf = DamBeamformer(f, np.array([0]))
    assert papr_empirical(build_dam_block(sym, bf)) == pytest.approx(1.0)


@pytest.mark.blas
def test_papr_generic_beams_below_path_count():
    rng = np.random.default_rng(19)
    l = 5
    ch = random_channel(rng, 16, l, np.arange(l))
    bf = mrt_problem(ch, 1.0).solve(0.0).beamformer
    sym = generate_symbols(rng, 8192, "qpsk")
    assert papr_empirical(build_dam_block(sym, bf)) <= l


@pytest.mark.blas
def test_papr_peak_power_exact_bound():
    # the deterministic content of the <= L claim: instantaneous power never
    # exceeds (sum_l ||f_l||)^2, reached only under full coherent alignment
    rng = np.random.default_rng(20)
    l, m = 4, 8
    bf = DamBeamformer.steered(0.2, m, 1.0, np.arange(l))
    f = bf.beam_matrix
    sym = generate_symbols(rng, 4096, "qpsk")
    tx = build_dam_block(sym, bf)
    peak = np.max(np.sum(np.abs(tx) ** 2, axis=0))
    cap = np.sum(np.linalg.norm(f, axis=0)) ** 2
    assert peak <= cap * (1 + 1e-12)
    assert cap == pytest.approx(l * np.sum(np.abs(f) ** 2))


@pytest.mark.blas
def test_papr_row_sum_is_the_axis_0_sum_bit_for_bit():
    # the power is numpy's axis-0 sum of |x|^2, on a DAM transmit, on a
    # beamformed OFDM transmit with its cyclic prefixes, and on one row of each
    from damisac import OfdmConfig, ScenarioConfig, ofdm_time_domain
    rng = np.random.default_rng(21)
    ch = random_channel(rng, 16, 5, [0, 3, 4, 9, 11])
    dam = build_dam_block(generate_symbols(rng, 4096, "gaussian"),
                          mrt_problem(ch, 1.0).solve(0.0).beamformer)
    scen = ScenarioConfig(bandwidth_hz=1e8, carrier_frequency_hz=28e9,
                          coherence_time_s=2560e-8, guard_length=16, num_antennas=16,
                          transmit_power_w=1.0, noise_power_w=1.0)
    cfg = OfdmConfig(scen.bandwidth_hz, scen.guard_length, scen.block_length,
                     complex_normal(rng, (16, 64)))
    grid = generate_symbols(rng, 64 * cfg.symbols_per_block, "qpsk").symbols
    ofdm_tx = ofdm_time_domain(cfg, grid.reshape(64, -1))
    for tx in (dam, ofdm_tx, dam[3], ofdm_tx[0]):
        inst = np.sum(np.abs(tx) ** 2, axis=0) if tx.ndim == 2 else np.abs(tx) ** 2
        assert papr_empirical(tx) == float(inst.max() / inst.mean())


@pytest.mark.parametrize("m, l", [(16, 5), (3, 7), (1, 4), (6, 1)])
@pytest.mark.blas
def test_steered_dam_papr_from_the_seen_sequence_matches_the_full_block(m, l):
    # with every beam c_l a(theta), x[n] = a(theta) u[n] and a^H x[n] = M u[n],
    # so the one sequence the target sees has the M-row block's PAPR, whether
    # the array has more antennas than paths or fewer. A per-sample power
    # differs by the rounding of the M-term sums (a^H f_l, the axis-0 power
    # sum) and of the L-stream sum: a relative (M + L) eps in the peak and in
    # the mean, so twice that in their ratio
    rng = np.random.default_rng(22)
    theta = rng.uniform(-np.pi / 2, np.pi / 2)
    beams = steering_vector(theta, m)[:, None] * complex_normal(rng, (1, l))
    bf = DamBeamformer.aligned(beams, rng.permutation(2 * l)[:l])
    sym = generate_symbols(rng, 4096, "gaussian")
    want = papr_empirical(build_dam_block(sym, bf))
    got = papr_empirical(projected_dam_block(sym, bf, theta))
    assert got == pytest.approx(want, rel=2 * (m + l) * np.finfo(float).eps, abs=0)


@pytest.mark.blas
def test_papr_rejects_zero_block():
    with pytest.raises(ValueError):
        papr_empirical(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        papr_empirical(np.zeros(8, dtype=complex))
