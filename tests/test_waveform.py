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
    dam_papr,
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
    """The trade-off problem whose `mrt` and floor-0 solve are the package's
    leakage-free MRT; the target direction and gain do not enter them."""
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
        DamBeamformer(f, np.array([1, 1]), 1)
    with pytest.raises(ValueError):
        DamBeamformer(f, np.array([0, 3]), 2)
    # unsorted and non-adjacent repeats, given as a schedule or as delays
    for delays in ([2, 2, 5], [5, 2, 5], [0, 3, 7, 3]):
        g = np.ones((4, len(delays)), dtype=complex)
        with pytest.raises(ValueError, match="pairwise distinct"):
            DamBeamformer(g, np.array(delays), 7)
        with pytest.raises(ValueError, match="pairwise distinct"):
            DamBeamformer.aligned(g, delays)
    for delays in ([-1, 3], [-1, 0]):
        with pytest.raises(ValueError, match="path delays must be non-negative"):
            DamBeamformer.aligned(f, delays)
    bf = DamBeamformer.aligned(f, [2, 7])
    assert bf.n_max == 7
    assert np.array_equal(bf.delay_schedule, [5, 0])
    one = DamBeamformer(f[:, :1], np.array([0]), 0)
    assert one.num_paths == 1
    assert np.array_equal(DamBeamformer.aligned(f[:, :1], [3]).delay_schedule, [0])


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
    assert abs(power - 1.0) <= 3.0 / np.sqrt(block.length)


def test_symbols_deterministic():
    a = generate_symbols(np.random.default_rng(3), 64, "psk8")
    b = generate_symbols(np.random.default_rng(3), 64, "psk8")
    assert np.array_equal(a.symbols, b.symbols)


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
    bf = DamBeamformer(f, np.array([0]), 0)
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
    # each row is the stream shifted by kappa_l + extra_delay, bit for bit,
    # and a row shifted by N or more is all zero
    rng = np.random.default_rng(7)
    sym = generate_symbols(rng, 40, "qpsk").symbols
    kappa = np.array([0, 3, 17, 38])
    for extra in (0, 1, 2, 25):
        rows = delayed_symbol_matrix(sym, kappa, extra)
        want = np.stack([_shift_zero_prefix(sym, int(k) + extra) for k in kappa])
        assert rows.dtype == complex and rows.shape == (4, 40)
        np.testing.assert_array_equal(rows, want)
    assert not np.any(delayed_symbol_matrix(sym, kappa, 2)[3])       # 38 + 2 = N
    assert not np.any(delayed_symbol_matrix(sym, kappa, 25)[2:])     # 42, 63 > N


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
    shifted = np.zeros_like(sym.symbols)
    shifted[bf.n_max:] = sym.symbols[:sym.length - bf.n_max]
    noise = y - gain * shifted
    measured = np.abs(gain) ** 2 / np.mean(np.abs(noise[bf.n_max:]) ** 2)
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
    bf = mrt_problem(ch, 1.0).mrt
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
    bf = mrt_problem(ch, 1.0).mrt
    impulse = generate_symbols(rng, 20, "qpsk")
    impulse.symbols = np.zeros(20, dtype=complex)
    impulse.symbols[0] = 1.0
    y = apply_comm_channel(ch, build_dam_block(impulse, bf))
    gain = aligned_gain(bf, ch)
    assert y[ch.max_delay] == pytest.approx(gain)
    others = np.delete(y, ch.max_delay)
    assert np.max(np.abs(others)) < 1e-12 * abs(gain)


def test_isi_power_union_bound():
    # perturbed ZF: residual power stays under L(L-1) * delta^2
    rng = np.random.default_rng(16)
    ch = random_channel(rng, 6, 3, [0, 2, 5])
    bf = mrt_problem(ch, 1.0).mrt
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
    bf = DamBeamformer(complex_normal(rng, (m, l)), kappa, max(kappa))
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

def test_papr_single_path_psk_is_flat():
    rng = np.random.default_rng(18)
    sym = generate_symbols(rng, 512, "qpsk")
    f = complex_normal(rng, (4, 1))
    bf = DamBeamformer(f, np.array([0]), 0)
    assert papr_empirical(build_dam_block(sym, bf)) == pytest.approx(1.0)


def test_papr_generic_beams_below_path_count():
    rng = np.random.default_rng(19)
    l = 5
    ch = random_channel(rng, 16, l, np.arange(l))
    bf = mrt_problem(ch, 1.0).mrt
    sym = generate_symbols(rng, 8192, "qpsk")
    assert papr_empirical(build_dam_block(sym, bf)) <= l


def test_papr_peak_power_exact_bound():
    # the deterministic content of the <= L claim: instantaneous power never
    # exceeds (sum_l ||f_l||)^2, reached only under full coherent alignment
    rng = np.random.default_rng(20)
    l, m = 4, 8
    a = steering_vector(0.2, m)
    f = np.sqrt(1.0 / (m * l)) * np.tile(a[:, None], (1, l))
    bf = DamBeamformer.aligned(f, np.arange(l))
    sym = generate_symbols(rng, 4096, "qpsk")
    tx = build_dam_block(sym, bf)
    peak = np.max(np.sum(np.abs(tx) ** 2, axis=0))
    cap = np.sum(np.linalg.norm(f, axis=0)) ** 2
    assert peak <= cap * (1 + 1e-12)
    assert cap == pytest.approx(l * np.sum(np.abs(f) ** 2))


def test_papr_row_sum_is_the_axis_0_sum_bit_for_bit():
    # the power summed row by row equals numpy's axis-0 sum exactly, on a DAM
    # transmit and on a beamformed OFDM transmit with its cyclic prefixes
    from damisac import OfdmConfig, ScenarioConfig, ofdm_time_domain
    rng = np.random.default_rng(21)
    ch = random_channel(rng, 16, 5, [0, 3, 4, 9, 11])
    dam = build_dam_block(generate_symbols(rng, 4096, "gaussian"),
                          mrt_problem(ch, 1.0).mrt)
    scen = ScenarioConfig.from_timing(bandwidth_hz=1e8, carrier_frequency_hz=28e9,
                                      coherence_time_s=2560e-8, guard_time_s=16e-8,
                                      num_antennas=16, transmit_power_w=1.0,
                                      noise_power_w=1.0)
    cfg = OfdmConfig(scen.bandwidth_hz, scen.guard_length, scen.block_length,
                     complex_normal(rng, (16, 64)))
    grid = generate_symbols(rng, 64 * cfg.symbols_per_block, "qpsk").symbols
    ofdm_tx = ofdm_time_domain(cfg, grid.reshape(64, -1))
    for tx in (dam, ofdm_tx):
        inst = np.sum(np.abs(tx) ** 2, axis=0)
        assert papr_empirical(tx) == float(inst.max() / inst.mean())


@pytest.mark.parametrize("m, l", [(16, 5), (3, 7), (1, 4), (6, 1)])
def test_dam_papr_from_the_l_row_factor_matches_the_full_block(m, l):
    # ||F s[n]|| = ||R s[n]|| for F = QR, with min(M, L) rows in R, whether
    # the array has more antennas than paths or fewer
    rng = np.random.default_rng(22)
    bf = DamBeamformer.aligned(complex_normal(rng, (m, l)), rng.permutation(2 * l)[:l])
    sym = generate_symbols(rng, 4096, "gaussian")
    want = papr_empirical(build_dam_block(sym, bf))
    assert dam_papr(sym, bf) == pytest.approx(want, rel=1e-12)


def test_papr_rejects_zero_block():
    with pytest.raises(ValueError):
        papr_empirical(np.zeros((2, 8)))
