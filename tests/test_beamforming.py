"""Beamformer design tests: projector algebra, closed-form designs, the
zero-forcing sensing ceiling, and the trade-off solver against random search
and its own dual bound."""

import numpy as np
import pytest

from damisac import (
    ChannelGenConfig,
    InfeasibleError,
    IsacProblem,
    MultipathChannel,
    ScenarioConfig,
    complex_normal,
    generate_multipath_channels,
    load_config,
    run_se_sweep,
    sensing_snr,
    solve_batch,
    steering_vector,
)
from damisac import beamforming
from damisac.beamforming import _zf_project
from dam_oracle import aligned_gain, max_sensing_snr
from zf_oracle import nullspace_projector, zf_mrt

N_BLOCK = 1024
SIGMA2 = 0.5
GAIN = 0.6 - 0.3j
THETA = 0.4


def random_channel(rng, m, l):
    return MultipathChannel(complex_normal(rng, (l, m)), np.arange(l))


def stacked(channels):
    """Channels of one path count as one stack of them."""
    return MultipathChannel(np.stack([ch.path_vectors for ch in channels]),
                            np.stack([ch.path_delays for ch in channels]))


def comm_snr(bf, ch):
    """|sum_l h_l^H f_l|^2 / sigma^2, from the beams alone."""
    return np.abs(aligned_gain(bf, ch)) ** 2 / SIGMA2


# ------------------------------------------------------------------ projectors

def test_projector_algebra():
    rng = np.random.default_rng(0)
    ch = random_channel(rng, 6, 3)
    h = ch.path_vectors
    scale = np.max(np.abs(h))
    for l in range(3):
        q = nullspace_projector(ch, l)
        assert np.max(np.abs(q @ q - q)) < 1e-10
        assert np.max(np.abs(q - q.conj().T)) < 1e-10
        others = np.delete(h, l, axis=0)
        assert np.max(np.abs(np.conj(others) @ q)) < 1e-10 * scale


def test_projector_single_path_is_identity():
    rng = np.random.default_rng(1)
    ch = random_channel(rng, 5, 1)
    assert np.allclose(nullspace_projector(ch, 0), np.eye(5))


def test_projector_orthogonal_pair():
    # with M = 2 and orthogonal paths, the complement of h_2 is the h_1 line
    h1 = np.array([1.0, 1.0j]) / np.sqrt(2)
    h2 = np.array([1.0, -1.0j]) / np.sqrt(2)
    ch = MultipathChannel(np.stack([h1, h2]), np.array([0, 1]))
    q0 = nullspace_projector(ch, 0)
    assert np.allclose(q0, np.outer(h1, np.conj(h1)), atol=1e-12)


def test_projector_handles_repeated_interferers():
    rng = np.random.default_rng(2)
    h = complex_normal(rng, (3, 6))
    h[2] = h[1]                       # rank-deficient interferer matrix
    ch = MultipathChannel(h, np.array([0, 1, 2]))
    q0 = nullspace_projector(ch, 0)
    assert np.max(np.abs(q0 @ q0 - q0)) < 1e-10
    assert np.max(np.abs(np.conj(h[1:]) @ q0)) < 1e-10 * np.max(np.abs(h))


def test_projector_needs_enough_antennas():
    rng = np.random.default_rng(3)
    ch = random_channel(rng, 2, 3)
    with pytest.raises(InfeasibleError):
        nullspace_projector(ch, 0)
    ch2 = random_channel(rng, 4, 2)
    with pytest.raises(ValueError):
        nullspace_projector(ch2, 5)


def test_designs_need_enough_antennas():
    ch = random_channel(np.random.default_rng(3), 2, 3)
    message = r"needs num_antennas >= num_paths \(2 < 3\)"
    with pytest.raises(InfeasibleError, match=message):
        IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2)


def oracle_channels():
    """The default channels at L = 5 and 10, then three edge channels."""
    sc = ScenarioConfig.mmwave_default()
    for num_paths in (5, 10):
        gen = ChannelGenConfig(num_paths=num_paths)
        for seed in range(100):
            yield generate_multipath_channels(sc, gen, [np.random.default_rng(seed)])[0]
    rng = np.random.default_rng(2)
    h = complex_normal(rng, (3, 6))
    h[2] = h[1]                       # a repeated interferer
    yield MultipathChannel(h, np.arange(3))
    h = complex_normal(rng, (4, 8))
    h[3] = h[1] + 2 * h[2]            # h_4 = h_2 + 2 h_3
    yield MultipathChannel(h, np.arange(4))
    yield random_channel(rng, 8, 1)


def oracle_stacks():
    """Each of oracle_channels() as a stack of one, then its default channels
    as one stack per path count, with a rank-deficient member inside."""
    channels = list(oracle_channels())
    for ch in channels:
        yield [ch]
    for num_paths in (5, 10):
        stack = [ch for ch in channels if ch.num_antennas == 64 and ch.num_paths == num_paths]
        h = stack[50].path_vectors.copy()
        h[-1] = h[1] + 2 * h[2]           # a path in the span of two others
        stack.insert(50, MultipathChannel(h, stack[50].path_delays))
        yield stack


def test_zf_project_matches_the_oracle():
    # every Q_l v from one SVD per channel, for a channel alone and for each
    # member of a stack, against one projector per path; each result still
    # nulls the other paths
    rng = np.random.default_rng(4)
    for stack in oracle_stacks():
        h = np.stack([ch.path_vectors for ch in stack])
        vector_sets = [h, np.broadcast_to(steering_vector(THETA, h.shape[2]), h.shape),
                       complex_normal(rng, h.shape)]
        projected_sets = _zf_project(h, *vector_sets)
        for b, ch in enumerate(stack):
            qs = [nullspace_projector(ch, l) for l in range(ch.num_paths)]
            for vs, projected in zip(vector_sets, projected_sets):
                for l, (q, v, qv) in enumerate(zip(qs, vs[b], projected[b])):
                    norm = np.linalg.norm(v)
                    assert np.linalg.norm(qv - q @ v) <= 1e-12 * norm
                    others = np.delete(h[b], l, axis=0)
                    scale = np.max(np.abs(h[b])) * norm
                    assert np.all(np.abs(np.conj(others) @ qv) <= 1e-10 * scale)


# -------------------------------------------------------------- closed designs

@pytest.mark.blas
def test_mrt_single_path_closed_form():
    rng = np.random.default_rng(5)
    ch = random_channel(rng, 6, 1)
    h = ch.path_vectors[0]
    p = 2.0
    sol = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2).solve(0.0)
    assert np.allclose(sol.beamformer.beam_matrix[:, 0], np.sqrt(p) * h / np.linalg.norm(h))
    assert sol.gamma_c == pytest.approx(p * np.linalg.norm(h) ** 2 / SIGMA2)


@pytest.mark.blas
def test_mrt_zero_forcing_and_power_exact():
    # the package's MRT, from the projection the set-up computes, is the
    # oracle's, built one projector per path
    rng = np.random.default_rng(6)
    ch = random_channel(rng, 8, 4)
    p = 3.0
    bf = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2).solve(0.0).beamformer
    cross = np.conj(ch.path_vectors) @ bf.beam_matrix
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(cross))
    assert np.sum(np.abs(bf.beam_matrix) ** 2) == pytest.approx(p, rel=1e-12)
    want = zf_mrt(ch, p)
    assert np.linalg.norm(bf.beam_matrix - want.beam_matrix) <= 1e-12 * np.sqrt(p)
    assert np.array_equal(bf.delay_schedule, want.delay_schedule)


@pytest.mark.blas
def test_mrt_snr_formula():
    rng = np.random.default_rng(7)
    ch = random_channel(rng, 8, 3)
    p = 1.5
    expected = p * sum(
        np.linalg.norm(nullspace_projector(ch, l) @ ch.path_vectors[l]) ** 2
        for l in range(3)) / SIGMA2
    problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2)
    assert comm_snr(problem.solve(0.0).beamformer, ch) == pytest.approx(expected, rel=1e-10)
    assert comm_snr(zf_mrt(ch, p), ch) == pytest.approx(expected, rel=1e-10)


@pytest.mark.blas
def test_mrt_matches_the_oracle_on_every_oracle_channel():
    # the default channels at L = 5 and 10 and the rank-deficient edge cases
    for ch in oracle_channels():
        bf = IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2).solve(0.0).beamformer
        want = zf_mrt(ch, 1.0)
        assert np.linalg.norm(bf.beam_matrix - want.beam_matrix) <= 1e-12
        assert np.array_equal(bf.delay_schedule, want.delay_schedule)


@pytest.mark.blas
def test_mrt_takes_the_set_up_projection_and_no_svd(monkeypatch):
    # the set-up's one SVD gives c_l = Q_l h_l; the solve at a zero floor runs
    # no SVD of its own and returns sqrt(P) c / ||c||, rebuilt from its basis
    # coordinates: within 8 eps sqrt(P) in Frobenius norm (at most 2.1 eps
    # measured over 1 500 channels up to M = 64, L = 10)
    rng = np.random.default_rng(11)
    ch = random_channel(rng, 8, 4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, 2.0, SIGMA2)
    assert len(calls) == 1
    bf = problem.solve(0.0).beamformer
    assert len(calls) == 1
    c = _zf_project(ch.path_vectors[None], ch.path_vectors[None])[0][0]
    want = np.sqrt(2.0 / np.sum(np.abs(c) ** 2)) * c.T
    assert np.linalg.norm(bf.beam_matrix - want) <= 8 * np.finfo(float).eps * np.sqrt(2.0)


@pytest.mark.blas
def test_mrt_dominates_random_zero_forcing_designs():
    # MRT on the projected responses is the best interference-free design;
    # no random competitor at the same power may beat it.
    p, m, l, draws = 1.0, 4, 2, 10_000
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, m, l)
        best = solve(ch, 0.0, p).gamma_c
        g = complex_normal(rng, (draws, l, m))
        q_stack = np.stack([nullspace_projector(ch, i) for i in range(l)])
        f = np.einsum("lmn,sln->slm", q_stack, g)
        norms = np.sqrt(np.sum(np.abs(f) ** 2, axis=(1, 2), keepdims=True))
        f = f * (np.sqrt(p) / norms)
        gains = np.einsum("lm,slm->s", np.conj(ch.path_vectors), f)
        competitors = np.abs(gains) ** 2 / SIGMA2
        assert competitors.max() <= best * (1 + 1e-9)


@pytest.mark.blas
def test_mrt_rejects_bad_power():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="power must be positive"):
        IsacProblem(random_channel(rng, 4, 2), THETA, GAIN, N_BLOCK, 0.0, SIGMA2)


@pytest.mark.blas
def test_sensing_zf_below_ceiling_many_seeds():
    p, m, l = 1.0, 8, 3
    ceiling = max_sensing_snr(m, N_BLOCK, p, GAIN, SIGMA2)
    for seed in range(100):
        ch = random_channel(np.random.default_rng(seed), m, l)
        gamma_zf = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2).gamma_zf_max
        assert gamma_zf <= ceiling * (1 + 1e-9)


@pytest.mark.blas
def test_sensing_zf_single_path_reaches_ceiling():
    rng = np.random.default_rng(9)
    ch = random_channel(rng, 8, 1)
    problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, 2.0, SIGMA2)
    gamma_zf = problem.gamma_zf_max
    bf = problem.solve(gamma_zf).beamformer
    assert gamma_zf == pytest.approx(
        max_sensing_snr(8, N_BLOCK, 2.0, GAIN, SIGMA2), rel=1e-9)
    a = steering_vector(THETA, 8)
    assert np.allclose(bf.beam_matrix[:, 0], np.sqrt(2.0 / 8) * a)


@pytest.mark.blas
def test_sensing_zf_structure_and_consistency():
    rng = np.random.default_rng(10)
    ch = random_channel(rng, 8, 3)
    p = 1.7
    problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2)
    gamma_zf = problem.gamma_zf_max
    bf = problem.solve(gamma_zf).beamformer
    cross = np.conj(ch.path_vectors) @ bf.beam_matrix
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(ch.path_vectors))
    assert np.sum(np.abs(bf.beam_matrix) ** 2) == pytest.approx(p, rel=1e-12)
    assert gamma_zf == pytest.approx(
        sensing_snr(bf.beam_matrix, THETA, GAIN, N_BLOCK, SIGMA2), rel=1e-9)


@pytest.mark.blas
def test_sensing_zf_ceiling_is_exact():
    # the ceiling is all power on the strongest projected target response:
    # P max_l ||Q_l a||^2 in the b-domain. A solve at it is feasible, just
    # above it infeasible, and no random zero-forcing design exceeds it.
    p, m, l, draws = 1.0, 6, 3, 5000
    a = steering_vector(THETA, m)
    scale = np.abs(GAIN) ** 2 * N_BLOCK / SIGMA2
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        ch = random_channel(rng, m, l)
        qs = np.stack([nullspace_projector(ch, i) for i in range(l)])
        expected = scale * p * max(np.linalg.norm(q @ a) ** 2 for q in qs)
        problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2)
        gamma_zf = problem.gamma_zf_max
        at = problem.solve(gamma_zf)
        assert gamma_zf == pytest.approx(expected, rel=1e-12)
        assert sensing_snr(at.beamformer.beam_matrix, THETA, GAIN, N_BLOCK,
                           SIGMA2) == pytest.approx(gamma_zf, rel=1e-12)

        f = np.einsum("lmn,sln->slm", qs, complex_normal(rng, (draws, l, m)))
        f *= np.sqrt(p) / np.linalg.norm(f, axis=(1, 2), keepdims=True)
        competitors = scale * np.sum(np.abs(f @ np.conj(a)) ** 2, axis=1)
        assert competitors.max() <= gamma_zf * (1 + 1e-12)

        assert at.status == "optimal"
        assert at.gamma_p >= gamma_zf * (1 - 1e-12)
        assert problem.solve(gamma_zf * (1 + 1e-6)).status == "infeasible"


@pytest.mark.blas
def test_sensing_design_puts_all_power_on_the_strongest_response():
    # the design at the ceiling is one column sqrt(P) g_l / ||g_l|| at the
    # strongest projected target response g_l = Q_l a, and the other columns 0
    a = steering_vector(THETA, 6)
    for seed in range(5):
        ch = random_channel(np.random.default_rng(60 + seed), 6, 3)
        problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.5, SIGMA2)
        g = np.stack([nullspace_projector(ch, l) @ a for l in range(3)])
        top = np.argmax(np.linalg.norm(g, axis=1))
        want = np.zeros((6, 3), dtype=complex)
        want[:, top] = np.sqrt(1.5) * g[top] / np.linalg.norm(g[top])
        at = problem.solve(problem.gamma_zf_max)
        assert np.linalg.norm(at.beamformer.beam_matrix - want) <= 1e-12
        assert at.iterations == 0
        assert at.gamma_p == pytest.approx(problem.gamma_zf_max, rel=1e-12)


# ------------------------------------------------------------------- trade-off

def zf_ceiling(ch):
    return IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2).gamma_zf_max


def solve(ch, gamma_th, p=1.0):
    return IsacProblem(ch, THETA, GAIN, N_BLOCK, p, SIGMA2).solve(gamma_th)


@pytest.mark.blas
def test_solve_zero_threshold_recovers_mrt():
    rng = np.random.default_rng(20)
    ch = random_channel(rng, 6, 3)
    sol = solve(ch, 0.0)
    mrt = comm_snr(zf_mrt(ch, 1.0), ch)
    assert sol.status == "optimal"
    assert sol.iterations == 0        # MRT meets the floor: lambda = 0
    assert sol.gamma_c == pytest.approx(mrt, rel=1e-12)
    assert sol.dual_bound == pytest.approx(mrt, rel=1e-12)
    assert np.allclose(sol.beamformer.beam_matrix, zf_mrt(ch, 1.0).beam_matrix,
                       rtol=0, atol=1e-12)


def test_solve_boundary_threshold_is_sensing_limited():
    rng = np.random.default_rng(21)
    ch = random_channel(rng, 6, 3)
    gamma_zf = zf_ceiling(ch)
    sol = solve(ch, gamma_zf)
    mrt = comm_snr(zf_mrt(ch, 1.0), ch)
    assert sol.status == "optimal"
    assert sol.gamma_c <= mrt * (1 + 1e-9)
    assert sol.gamma_p == pytest.approx(gamma_zf, rel=1e-12)
    assert sol.gamma_c == pytest.approx(comm_snr(sol.beamformer, ch), rel=1e-12)


def test_solution_gap_to_dual_bound():
    # every solution is feasible and within 1e-8 of its own dual bound, which
    # is never below it, also just under the ceiling and with repeated
    # interferers (two paths project to nothing)
    for seed in range(10):
        rng = np.random.default_rng(22 + seed)
        h = complex_normal(rng, (3, 6))
        if seed % 2:
            h[2] = h[1]
        ch = MultipathChannel(h, np.arange(3))
        problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2)
        for frac in (0.1, 0.5, 0.9, 0.99, 0.999999, 1 - 1e-9, 1.0):
            gamma_th = frac * problem.gamma_zf_max
            sol = problem.solve(gamma_th)
            assert sol.status == "optimal"
            assert sol.dual_bound - sol.gamma_c <= 1e-8 * sol.dual_bound
            assert sol.gamma_c <= sol.dual_bound * (1 + 1e-14)
            assert sol.power_used <= 1.0 * (1 + 1e-12)
            assert sol.gamma_p >= gamma_th * (1 - 1e-12)
            assert sol.zf_residual < 1e-10 * np.max(np.abs(h))


def test_solution_when_the_channel_misses_the_target():
    # h = [1, -1] is orthogonal to a(0) = [1, 1]: eta is 0 on the strongest
    # target response, so sensing SNR costs communication SNR in proportion
    # and the optimum is gamma_c = rho gamma_mrt, rho = 1 - gamma_th / gamma_zf.
    # The design is sqrt((1 - rho) / rho) parts sensing beam to one part
    # communication beam, so rounding its antenna weights moves the
    # recomputed gamma_c by about 1e-16 / sqrt(rho) relative.
    ch = MultipathChannel(np.array([[1.0, -1.0]]), np.arange(1))
    problem = IsacProblem(ch, 0.0, GAIN, N_BLOCK, 1.0, SIGMA2)
    mrt = comm_snr(zf_mrt(ch, 1.0), ch)
    for frac in (0.25, 0.5, 0.9, 0.999999):
        gamma_th = frac * problem.gamma_zf_max
        sol = problem.solve(gamma_th)
        assert sol.status == "optimal"
        assert sol.iterations == 0
        rho = 1 - gamma_th / problem.gamma_zf_max
        assert sol.gamma_c == pytest.approx(rho * mrt, rel=1e-12)
        assert sol.gamma_p >= gamma_th * (1 - 1e-12)
        assert sol.gamma_c <= sol.dual_bound * (1 + 1e-14 / np.sqrt(rho))

    # paths orthogonal to a(theta) only up to rounding: eta is ~1e-16 on the
    # strongest responses, and so is the optimal delta, yet the search on
    # delta still closes the gap
    rng = np.random.default_rng(5)
    a = steering_vector(THETA, 4)
    h = complex_normal(rng, (2, 4))
    h -= np.outer(h @ np.conj(a), a) / 4
    problem = IsacProblem(MultipathChannel(h, np.arange(2)), THETA, GAIN, N_BLOCK,
                          1.0, SIGMA2)
    for frac in (0.1, 0.5, 0.9):
        gamma_th = frac * problem.gamma_zf_max
        sol = problem.solve(gamma_th)
        assert sol.gamma_p >= gamma_th * (1 - 1e-12)
        assert sol.dual_bound - sol.gamma_c <= 1e-8 * sol.dual_bound
        assert sol.gamma_c <= sol.dual_bound * (1 + 1e-14)


def test_solve_matches_random_search():
    p = 1.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, 4, 2)
        gamma_th = 0.6 * zf_ceiling(ch)
        sol = solve(ch, gamma_th, p)
        qs = np.stack([nullspace_projector(ch, l) for l in range(2)])
        f = np.einsum("lmn,sln->slm", qs, complex_normal(rng, (5000, 2, 4)))
        f *= np.sqrt(p) / np.linalg.norm(f, axis=(1, 2), keepdims=True)
        gamma_p = np.array([sensing_snr(fs.T, THETA, GAIN, N_BLOCK, SIGMA2)
                            for fs in f])
        gamma_c = np.abs(np.einsum("lm,slm->s", np.conj(ch.path_vectors),
                                   f)) ** 2 / SIGMA2
        best_random = gamma_c[gamma_p >= gamma_th].max()
        assert best_random <= sol.gamma_c * (1 + 1e-9)
        assert sol.gamma_c <= sol.dual_bound * (1 + 1e-12)


def test_solve_rejects_negative_threshold():
    rng = np.random.default_rng(23)
    ch = random_channel(rng, 4, 2)
    for gamma_th in (-1.0, np.nan):
        with pytest.raises(ValueError, match=">= 0"):
            solve(ch, gamma_th)


def test_solve_above_ceiling_is_infeasible():
    rng = np.random.default_rng(24)
    ch = random_channel(rng, 4, 2)
    sol = solve(ch, zf_ceiling(ch) * (1 + 1e-9))
    assert sol.status == "infeasible"
    assert sol.beamformer is None
    assert np.isnan(sol.gamma_c) and np.isnan(sol.gamma_p)
    assert np.isnan(sol.dual_bound)
    assert np.isnan(sol.zf_residual) and np.isnan(sol.power_used)
    assert sol.iterations == 0


def test_solve_tradeoff_monotone_in_threshold():
    rng = np.random.default_rng(25)
    ch = random_channel(rng, 6, 3)
    problem = IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2)
    gammas = []
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        sol = problem.solve(frac * problem.gamma_zf_max)
        assert sol.status == "optimal"
        gammas.append(sol.gamma_c)
    gammas = np.asarray(gammas)
    assert np.all(gammas[1:] <= gammas[:-1] * (1 + 1e-9))


@pytest.mark.blas
def test_solve_batch_rows_match_one_row_solves():
    # one stacked call over one-path channels whose rows reach every exit:
    # floor 0 (MRT), the ceiling itself (rho = 0, the sensing beam), above it
    # (infeasible), a channel that misses the target (eta 0 on the strongest
    # response: the top-up, no search) and mid floors (the search on delta).
    # Each row gives exactly what a one-row call gives, closes its gap, and
    # reports the audit of the beamformer the one-row call builds.
    rng = np.random.default_rng(40)
    miss = MultipathChannel(np.array([[1.0, -1.0, 1.0, -1.0]]), np.arange(1))  # a(0)^H h = 0
    channels = [miss] + [random_channel(rng, 4, 1) for _ in range(3)]
    problems = [IsacProblem(ch, 0.0, GAIN, N_BLOCK, 1.0, SIGMA2) for ch in channels]
    fracs = np.array([0.0, 0.1, 0.5, 0.9, 0.999999, 1.0, 1.0 + 1e-9, np.inf])
    floors = np.array([fracs * p.gamma_zf_max for p in problems])
    batch = solve_batch(stacked(channels), 0.0, GAIN, N_BLOCK, 1.0, SIGMA2, floors)
    assert np.all(batch.feasible == (fracs <= 1.0))
    assert np.all(batch.iterations[:, [0, 5, 6, 7]] == 0)     # MRT, sensing, infeasible
    assert np.all(batch.iterations[0] == 0)                   # the top-up
    assert np.all(batch.iterations[1:, 3:5] > 0)              # the search
    for i, (ch, problem) in enumerate(zip(channels, problems)):
        for j, gamma_th in enumerate(floors[i]):
            one = problem.solve(gamma_th)
            assert batch.feasible[i, j] == (one.status == "optimal")
            assert batch.iterations[i, j] == one.iterations
            for name in ("gamma_c", "gamma_p", "dual_bound", "zf_residual", "power_used"):
                np.testing.assert_array_equal(getattr(batch, name)[i, j], getattr(one, name))
            if one.status == "optimal":
                assert one.dual_bound - one.gamma_c <= 1e-8 * one.dual_bound
                assert_audit(one, ch, theta=0.0)
            else:
                assert np.isnan(batch.zf_residual[i, j]) and np.isnan(batch.power_used[i, j])


@pytest.mark.blas
def test_solve_equals_its_batch_row_on_default_channels():
    # a one-row solve is the stack-of-one case of solve_batch: every field
    # is the row's bit for bit, at L = 5 and 10, at every exit, in a stack of
    # eight drawn as one stack, which solve_batch reads in place, and its
    # beamformer has the audit it reports
    sc = ScenarioConfig.mmwave_default()
    fracs = np.array([0.0, 0.3, 0.9, 0.999999, 1.0, 1.0 + 1e-9])
    for num_paths in (5, 10):
        gen = ChannelGenConfig(num_paths=num_paths)
        channels = generate_multipath_channels(
            sc, gen, [np.random.default_rng(70 + seed) for seed in range(8)])
        problems = [IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2) for ch in channels]
        floors = np.array([fracs * p.gamma_zf_max for p in problems])
        batch = solve_batch(channels, THETA, GAIN, N_BLOCK, 1.0, SIGMA2, floors)
        for i, (ch, problem) in enumerate(zip(channels, problems)):
            for j, gamma_th in enumerate(floors[i]):
                one = problem.solve(gamma_th)
                assert batch.feasible[i, j] == (one.status == "optimal")
                for name in ("gamma_c", "gamma_p", "dual_bound", "iterations",
                             "zf_residual", "power_used"):
                    np.testing.assert_array_equal(getattr(batch, name)[i, j],
                                                  getattr(one, name))
                if one.status == "optimal":
                    assert_audit(one, ch)



@pytest.mark.blas
def test_delta_steps_on_the_default_se_sweep(monkeypatch):
    # the default se-sweep at seed 1 searches 1 920 (channel, floor) rows.
    # Newton's steps take 3.3 on average and 7 at most there; the bounds
    # leave a margin. Midpoints of the bracket alone take 45 and 50.
    steps = []

    def record(*args, **kwargs):
        sol = solve_batch(*args, **kwargs)
        steps.append(sol.iterations.ravel())
        return sol

    monkeypatch.setattr(beamforming, "solve_batch", record)
    cfg = load_config(None)
    cfg.seed = 1
    run_se_sweep(cfg)
    steps = np.concatenate(steps)
    searched = steps[steps > 0]
    assert searched.size > 1000
    assert searched.mean() <= 5.0
    assert searched.max() <= 10


@pytest.mark.blas
def test_delta_steps_near_the_ceiling():
    # floors up to 1 - 1e-12 of the ceiling, on default channels and on
    # channels all but orthogonal to a(theta). Where the first Newton point
    # leaves (0, 1), the search goes on from a point near the root from the
    # delta = 0 side and takes 8 steps at most here, not the bit midpoint
    # 1.1e-154, from which rows climb back by exponent halvings (13 steps).
    sc = ScenarioConfig.mmwave_default()
    a = steering_vector(THETA, sc.num_antennas)
    fracs = 1.0 - np.concatenate([np.logspace(-12, -1, 45), np.linspace(0.15, 0.9, 6)])
    steps = []
    for num_paths in (2, 5, 10):
        gen = ChannelGenConfig(num_paths=num_paths)
        channels = generate_multipath_channels(
            sc, gen, [np.random.default_rng(1000 + seed) for seed in range(40)])
        across = stacked([MultipathChannel(
            h - np.outer(h @ a, np.conj(a)) / sc.num_antennas + 1e-6 * h, ch.path_delays)
            for ch in channels[:10] for h in [ch.path_vectors]])
        for stack in (channels, across):
            ceiling = np.array([IsacProblem(ch, THETA, GAIN, N_BLOCK, 1.0, SIGMA2).gamma_zf_max
                                for ch in stack])
            sol = solve_batch(stack, THETA, GAIN, N_BLOCK, 1.0, SIGMA2, ceiling[:, None] * fracs)
            assert sol.feasible.all()
            assert np.all(sol.dual_bound - sol.gamma_c <= 1e-11 * sol.dual_bound)
            steps.append(sol.iterations.ravel())
    steps = np.concatenate(steps)
    assert steps.max() <= 9


@pytest.mark.blas
def test_solve_batch_raises_the_error_of_a_channel_with_no_design():
    # a zero channel: every projected path response Q_l h_l vanishes. In a
    # stack it raises what it raises alone.
    rng = np.random.default_rng(42)
    zero = MultipathChannel(np.zeros((2, 4)), np.arange(2))
    with pytest.raises(InfeasibleError, match="all projected path responses vanish"):
        IsacProblem(zero, THETA, GAIN, N_BLOCK, 1.0, SIGMA2)
    stack = stacked([random_channel(rng, 4, 2), zero, random_channel(rng, 4, 2)])
    with pytest.raises(InfeasibleError, match="all projected path responses vanish"):
        solve_batch(stack, THETA, GAIN, N_BLOCK, 1.0, SIGMA2, [0.0, 1.0])


@pytest.mark.blas
def test_solve_batch_rejects_mixed_path_counts_and_negative_floors():
    # a stack of mixed path counts cannot be built, as one array or as
    # vectors and delays that disagree; solve_batch takes a stack of one or
    # more channels, not one channel alone and not an empty stack
    rng = np.random.default_rng(41)
    channels = [random_channel(rng, 4, l) for l in (1, 2)]
    with pytest.raises(ValueError):
        stacked(channels)
    with pytest.raises(ValueError, match="one entry per path vector"):
        MultipathChannel(np.zeros((2, 2, 4)), [[0], [0]])
    for not_a_stack in (channels[0], stacked(channels[:1])[:0]):
        with pytest.raises(ValueError, match="a stack of one or more channels"):
            solve_batch(not_a_stack, THETA, GAIN, N_BLOCK, 1.0, SIGMA2, [0.0])
    for floors in ([1.0, -1.0], [np.nan]):
        with pytest.raises(ValueError, match=">= 0"):
            solve_batch(stacked(channels[:1]), THETA, GAIN, N_BLOCK, 1.0, SIGMA2, floors)


def test_isac_problem_takes_one_channel_and_a_channel_is_no_stack():
    # IsacProblem raises on a stack, of three or of one; a stack's channel b
    # is stack[b], and a single channel has no length and no channel b
    rng = np.random.default_rng(43)
    channels = [random_channel(rng, 4, 2) for _ in range(3)]
    stack = stacked(channels)
    for not_one in (stack, stack[1:2]):
        with pytest.raises(ValueError, match="takes one channel"):
            IsacProblem(not_one, THETA, GAIN, N_BLOCK, 1.0, SIGMA2)
    assert len(stack) == 3 and len(stack[1:2]) == 1
    for ch, alone in zip(stack, channels, strict=True):
        assert np.array_equal(ch.path_vectors, alone.path_vectors)
        assert np.array_equal(ch.path_delays, alone.path_delays)
    one, = stack[1:2]
    assert IsacProblem(one, THETA, GAIN, N_BLOCK, 1.0, SIGMA2).gamma_zf_max == \
        IsacProblem(channels[1], THETA, GAIN, N_BLOCK, 1.0, SIGMA2).gamma_zf_max
    for use in (lambda ch: ch[0], len, list):
        with pytest.raises(TypeError, match="not a stack"):
            use(one)


# ----------------------------------------------------------------------- audit

def audit_oracle(bf, ch, theta=THETA):
    """Each constraint recomputed from the beams, one path pair at a time:
    the zero-forcing residual max_{l != l'} |h_l^H f_l'|, the power, gamma_c
    and gamma_p."""
    h, f = ch.path_vectors, bf.beam_matrix
    pairs = [(l, k) for l in range(ch.num_paths) for k in range(ch.num_paths) if l != k]
    residual = max((abs(np.vdot(h[l], f[:, k])) for l, k in pairs), default=0.0)
    power = sum(np.linalg.norm(f[:, k]) ** 2 for k in range(ch.num_paths))
    return (residual, power, comm_snr(bf, ch),
            sensing_snr(f, theta, GAIN, N_BLOCK, SIGMA2))


def assert_audit(sol, ch, theta=THETA):
    """The audit a solve reports, computed from the basis coordinates of its
    design, is its beamformer's, recomputed from the beams."""
    residual, power, gamma_c, gamma_p = audit_oracle(sol.beamformer, ch, theta)
    assert sol.power_used == pytest.approx(power, rel=1e-12)
    assert sol.gamma_c == pytest.approx(gamma_c, rel=1e-12)
    assert sol.gamma_p == pytest.approx(gamma_p, rel=1e-12)
    assert max(sol.zf_residual, residual) <= 1e-10 * np.max(np.abs(ch.path_vectors))


@pytest.mark.blas
def test_solution_audit_on_mrt():
    # floor 0: the design is MRT, and the audit reads its power, zero
    # leakage and SNRs
    rng = np.random.default_rng(26)
    ch = random_channel(rng, 6, 3)
    p = 2.0
    sol = solve(ch, 0.0, p)
    residual, power, gamma_c, gamma_p = audit_oracle(sol.beamformer, ch)
    assert sol.zf_residual < 1e-10 * np.max(np.abs(ch.path_vectors))
    assert residual < 1e-10 * np.max(np.abs(ch.path_vectors))
    assert sol.power_used == pytest.approx(p, rel=1e-12)
    assert sol.power_used == pytest.approx(power, rel=1e-12)
    assert sol.gamma_c == pytest.approx(gamma_c, rel=1e-12)
    assert sol.gamma_c == pytest.approx(comm_snr(zf_mrt(ch, p), ch), rel=1e-12)
    assert sol.gamma_p == pytest.approx(gamma_p, rel=1e-12)


def test_solution_audit_recomputes_the_constraints():
    rng = np.random.default_rng(27)
    ch = random_channel(rng, 6, 3)
    gamma_th = 0.7 * zf_ceiling(ch)
    sol = solve(ch, gamma_th)
    residual, power, gamma_c, gamma_p = audit_oracle(sol.beamformer, ch)
    assert sol.zf_residual < 1e-10 * np.max(np.abs(ch.path_vectors))
    assert residual < 1e-10 * np.max(np.abs(ch.path_vectors))
    assert sol.power_used <= 1.0 * (1 + 1e-12)
    assert sol.power_used == pytest.approx(power, rel=1e-12)
    assert sol.gamma_p >= gamma_th * (1 - 1e-12)
    assert sol.gamma_c == pytest.approx(gamma_c, rel=1e-12)
    assert sol.gamma_p == pytest.approx(gamma_p, rel=1e-12)