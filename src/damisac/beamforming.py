"""Per-path beamformer design trading communication SNR against sensing SNR.

All designs share the same structure: f_l = Q_l b_l, where Q_l projects onto
the orthogonal complement of the other paths' spatial responses, so residual
inter-stream interference is zero by construction. On top of that the
communication-optimal, sensing-optimal, and constrained trade-off solutions
differ only in how b_l is chosen.

The trade-off problem maximizes the aligned-channel gain |h^H b|^2 subject to
a sensing floor b^H A b >= gamma~ and the power budget ||b||^2 <= P, where h
stacks the projected path responses Q_l h_l and A = blkdiag(g_l g_l^H) with
g_l = Q_l a. It is a complex QCQP with two constraints, so strong duality
holds and its semidefinite relaxation has a rank-one optimum (Beck & Eldar,
SIAM J. Optim. 2006; Huang & Palomar, IEEE TSP 2010): the optimum is sqrt(P)
times the principal eigenvector of h h^H + lambda A, with the dual variable
lambda found by a 1-D search, and the dual value
P lambda_max(h h^H + lambda A) - lambda gamma~ certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import MultipathChannel, steering_vector
from .errors import InfeasibleError
from .waveform import DamBeamformer
from . import sensing as _sensing

# Bisection steps on t = lambda / (1 + lambda) in [0, 1]; 60 halvings reach
# the spacing of doubles near 1.
_BISECTION_STEPS = 60
# Relative duality gap at which the search on lambda stops early.
_GAP_TOLERANCE = 1e-12


def nullspace_projector(channel: MultipathChannel, path_index: int) -> np.ndarray:
    """Orthogonal projector onto the complement of the other paths' vectors.

    Q_l = I - H_l (H_l^H H_l)^{-1} H_l^H with H_l the matrix of h_{l'}, l' != l;
    computed from an SVD basis so rank-deficient H_l (the pseudo-inverse case)
    is handled without special-casing. Hermitian and idempotent by
    construction.
    """
    m, num_paths = channel.num_antennas, channel.num_paths
    if m < num_paths:
        raise InfeasibleError(
            f"per-path zero-forcing needs num_antennas >= num_paths "
            f"({m} < {num_paths})")
    if not 0 <= path_index < num_paths:
        raise ValueError("path_index out of range")
    if num_paths == 1:
        return np.eye(m, dtype=complex)
    others = np.delete(channel.path_vectors, path_index, axis=0).T  # (M, L-1)
    u, s, _ = np.linalg.svd(others, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(others.shape) * np.finfo(float).eps)) if s.size else 0
    basis = u[:, :rank]
    q = np.eye(m, dtype=complex) - basis @ np.conj(basis.T)
    return (q + np.conj(q.T)) / 2.0


def _zf_project(channel: MultipathChannel, *vector_sets: np.ndarray) -> list:
    """Q_l v_l for every path l, for each (L, M) array of rows v_l given."""
    qs = [nullspace_projector(channel, l) for l in range(channel.num_paths)]
    return [np.stack([q @ v for q, v in zip(qs, vs)]) for vs in vector_sets]


def _mrt(channel: MultipathChannel, projected: np.ndarray, power: float) -> DamBeamformer:
    total = np.sum(np.abs(projected) ** 2)
    if total <= 0:
        raise InfeasibleError("all projected path responses vanish")
    return DamBeamformer.aligned(np.sqrt(power / total) * projected.T, channel.path_delays)


def isi_zf_mrt_beamformer(channel: MultipathChannel, power: float) -> DamBeamformer:
    """Communication-optimal design under zero-forcing and a sum-power budget.

    f_l = sqrt(P) Q_l h_l / sqrt(sum_l' ||Q_l' h_l'||^2): matched to each
    path's projected response, which maximizes the aligned gain
    |sum_l h_l^H f_l| among all interference-free beamformers. The resulting
    SNR is P * sum_l ||Q_l h_l||^2 / sigma^2.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    return _mrt(channel, _zf_project(channel, channel.path_vectors)[0], power)


def sensing_only_zf_beamformer(channel: MultipathChannel, theta: float, power: float,
                               gain: complex, block_length: int, noise_power: float):
    """Sensing-optimal design that keeps the zero-forcing structure.

    The sensing metric sum_l |a^H Q_l b_l|^2 under ||b||^2 <= P is largest
    with all power on the path whose projected target response g_l = Q_l a
    is strongest: f_l* = sqrt(P) g_l* / ||g_l*||, every other beam zero.
    Returns the beamformer and the sensing SNR it achieves,
    gamma_zf = |alpha|^2 N P max_l ||Q_l a||^2 / sigma^2, the feasibility
    ceiling of the trade-off threshold. It is bounded by the unconstrained
    ceiling |alpha|^2 N M P / sigma^2, with equality when L = 1.
    """
    problem = IsacProblem(channel, theta, gain, block_length, power, noise_power)
    return problem.sensing, problem.gamma_zf_max


@dataclass
class SolutionReport:
    """Constraint audit of a beamformer, recomputed from first principles."""

    zf_residual: float
    power_used: float
    power_slack: float
    gamma_c: float
    gamma_p: float
    sensing_slack: float


@dataclass
class IsacSolution:
    """Result of the trade-off solve.

    dual_bound is the dual value P lambda_max(h h^H + lambda A) - lambda gamma~
    at the final lambda, in communication-SNR units: an upper bound on every
    feasible gamma_c, so dual_bound - gamma_c bounds the optimality gap.
    iterations counts the eigenvalue problems solved.
    """

    beamformer: Optional[DamBeamformer]
    gamma_c: float
    gamma_p: float
    dual_bound: float
    iterations: int
    status: str                      # "optimal" | "infeasible"
    report: Optional[SolutionReport] = None


class IsacProblem:
    """The trade-off problem on one channel, prepared once for any sensing floor.

    Construction does the channel-only work: the projected responses
    c_l = Q_l h_l and g_l = Q_l a, the MRT design (`mrt`), the sensing-optimal
    design (`sensing`) and its SNR, the ceiling `gamma_zf_max`. The optimum
    lies in the span of h and the blocks e_l (x) g_l. In the orthonormal basis
    made of the unit blocks e_l (x) g_l / ||g_l|| and the part of h orthogonal
    to them, A is diag(0, ||g_1||^2, ..., ||g_L||^2) and h has coordinates eta,
    so every eigenvalue problem of `solve` is (L+1) x (L+1).
    """

    def __init__(self, channel: MultipathChannel, theta: float, gain: complex,
                 block_length: int, power: float, noise_power: float):
        if power <= 0:
            raise ValueError("power must be positive")
        self.channel, self.theta, self.gain = channel, theta, gain
        self.block_length, self.power, self.noise_power = block_length, power, noise_power
        a = steering_vector(theta, channel.num_antennas)
        c, g = _zf_project(channel, channel.path_vectors,
                           np.broadcast_to(a, channel.path_vectors.shape))
        self.mrt = _mrt(channel, c, power)

        norms2 = np.sum(np.abs(g) ** 2, axis=1)
        if norms2.max() <= 0:
            raise InfeasibleError(
                "target direction lies in the span of every interfering path set")
        lengths = np.sqrt(norms2)
        g_unit = np.divide(g, lengths[:, None], out=np.zeros_like(g),
                           where=lengths[:, None] > 0)
        beta = np.sum(np.conj(g_unit) * c, axis=1)
        rest = c - beta[:, None] * g_unit
        rest_norm = np.linalg.norm(rest)
        self._basis = np.zeros((channel.num_paths + 1,) + g.shape, dtype=complex)
        if rest_norm > 0:
            self._basis[0] = rest / rest_norm
        for l in range(channel.num_paths):
            self._basis[l + 1, l] = g_unit[l]
        self._eta = np.concatenate([[rest_norm], beta])
        self._a = np.concatenate([[0.0], norms2])
        self._comm_matrix = np.outer(self._eta, np.conj(self._eta))
        self._sens_matrix = np.diag(self._a)
        # all power on the strongest projected target response
        self._sensing_coords = np.eye(self._a.size)[np.argmax(self._a)]
        self.sensing = self._beam(self._sensing_coords)
        # sensing SNR of a full-power design per unit of b^H A b / ||b||^2
        self._snr_per_sensing = float(np.abs(gain) ** 2 * block_length * power / noise_power)
        self.gamma_zf_max = self._snr_per_sensing * float(self._a.max())

    def _beam(self, y: np.ndarray) -> DamBeamformer:
        """The design sqrt(P) b / ||b|| for the b with basis coordinates y."""
        f = np.sqrt(self.power / np.vdot(y, y).real) * np.tensordot(y, self._basis, axes=1)
        return DamBeamformer.aligned(f.T, self.channel.path_delays)

    def _sensing_value(self, y: np.ndarray) -> float:
        """b^H A b / ||b||^2 for the b with basis coordinates y."""
        return float(np.dot(self._a, np.abs(y) ** 2) / np.vdot(y, y).real)

    def _eigvec(self, t: float) -> np.ndarray:
        """Principal eigenvector of (1 - t) eta eta^H + t diag(a), i.e. of
        h h^H + lambda A with lambda = t / (1 - t)."""
        m = (1.0 - t) * self._comm_matrix + t * self._sens_matrix
        return np.linalg.eigh(m)[1][:, -1]

    def solve(self, gamma_th: float) -> IsacSolution:
        """Maximize communication SNR under the floor gamma_sensing >= gamma_th.

        Infeasible exactly when gamma_th > gamma_zf_max, and at equality only
        the sensing-optimal beam is feasible. When MRT meets the floor it is
        optimal (lambda = 0). Otherwise the sensing value of the principal
        eigenvector rises monotonically with lambda, from MRT at lambda = 0 to
        the sensing-optimal beam as lambda -> inf; bisection on lambda
        brackets the floor, and a point between the two bracketing
        eigenvectors meets it exactly (that also covers a jump of the
        eigenvector where the top eigenvalue is repeated).
        """
        if gamma_th < 0:
            raise ValueError("gamma_th must be >= 0")
        if gamma_th > self.gamma_zf_max:
            nan = float("nan")
            return IsacSolution(beamformer=None, gamma_c=nan, gamma_p=nan,
                                dual_bound=nan, iterations=0, status="infeasible")
        floor = min(gamma_th / self._snr_per_sensing, self._a.max())
        scale = self.power / self.noise_power
        if floor == self._a.max():
            # the dual value as lambda -> inf
            bound = scale * abs(np.vdot(self._eta, self._sensing_coords)) ** 2
            return self._solution(self.sensing, gamma_th, bound, 0)
        y_lo = self._eta / np.linalg.norm(self._eta)
        if self._sensing_value(y_lo) >= floor:
            return self._solution(self.mrt, gamma_th,
                                  scale * np.vdot(self._eta, self._eta).real, 0)

        lo, hi = 0.0, 1.0
        y_hi = self._sensing_coords
        objective, gap = 0.0, np.inf              # no finite dual value at hi = 1
        steps = 0
        while steps < _BISECTION_STEPS and gap > _GAP_TOLERANCE * objective:
            steps += 1
            t = 0.5 * (lo + hi)
            y = self._eigvec(t)
            sensing = self._sensing_value(y)
            if sensing >= floor:
                hi, y_hi = t, y
                # P (objective + gap) = P lambda_max - lambda gamma~ is the
                # dual value at lambda = t / (1 - t); gap bounds y's shortfall
                objective = abs(np.vdot(self._eta, y)) ** 2
                gap = t / (1.0 - t) * (sensing - floor)
            else:
                lo, y_lo = t, y

        y_hi = y_hi * np.exp(-1j * np.angle(np.vdot(y_lo, y_hi)))
        u_lo, u_hi = 0.0, 1.0
        for _ in range(_BISECTION_STEPS):
            u = 0.5 * (u_lo + u_hi)
            if self._sensing_value((1.0 - u) * y_lo + u * y_hi) >= floor:
                u_hi = u
            else:
                u_lo = u
        bf = self._beam((1.0 - u_hi) * y_lo + u_hi * y_hi)
        return self._solution(bf, gamma_th, scale * (objective + gap), steps)

    def _solution(self, bf: DamBeamformer, gamma_th: float, bound: float,
                  iterations: int) -> IsacSolution:
        report = verify_solution(bf, self.channel, self.theta, self.gain, self.block_length,
                                 gamma_th, self.power, self.noise_power)
        return IsacSolution(beamformer=bf, gamma_c=report.gamma_c,
                            gamma_p=report.gamma_p, dual_bound=float(bound),
                            iterations=iterations, status="optimal", report=report)


def verify_solution(bf: DamBeamformer, channel: MultipathChannel, theta: float,
                    gain: complex, block_length: int, gamma_th: float,
                    power: float, noise_power: float) -> SolutionReport:
    """Recompute every constraint of the trade-off problem from the beamformer."""
    f = bf.beam_matrix
    cross = np.abs(np.conj(channel.path_vectors) @ f)  # (L, L), |h_l^H f_l'|
    np.fill_diagonal(cross, 0.0)
    zf_residual = float(cross.max()) if channel.num_paths > 1 else 0.0
    power_used = float(np.sum(np.abs(f) ** 2))
    gamma_c = float(np.abs(np.sum(np.conj(channel.path_vectors) * f.T)) ** 2
                    / noise_power)
    gamma_p = _sensing.sensing_snr(f, theta, gain, block_length, noise_power)
    return SolutionReport(zf_residual=zf_residual, power_used=power_used,
                          power_slack=float(power - power_used),
                          gamma_c=gamma_c, gamma_p=gamma_p,
                          sensing_slack=float(gamma_p - gamma_th))
