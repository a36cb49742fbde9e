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
times the principal eigenvector of h h^H + lambda A for the right dual
variable lambda, and the dual value P lambda_max(h h^H + lambda A) - lambda
gamma~ certifies it. In the basis of `IsacProblem` that matrix is rank-one
plus diagonal, so its principal eigenvector has a closed form given by the
secular equation (Golub, "Some modified matrix eigenvalue problems", SIAM
Review 1973), and the search for lambda is a bisection on one scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import MultipathChannel, steering_vector
from .errors import InfeasibleError
from .waveform import DamBeamformer
from . import sensing as _sensing

# Bisection steps on delta (see IsacProblem.solve); 60 halvings of the 2^62
# doubles in [0, 1] leave a bracket 4 doubles wide.
_BISECTION_STEPS = 60
# Relative duality gap at which the search on delta stops early.
_GAP_TOLERANCE = 1e-12


def _zf_project(channel: MultipathChannel, *vector_sets: np.ndarray) -> list:
    """Q_l v_l for every path l, for each (L, M) array of rows v_l given.

    Q_l projects onto the complement of the other paths' vectors. One thin
    SVD of H = [h_1 ... h_L] gives every Q_l: with P the projector onto the
    complement of span(H) and c_l = (H^+)^H e_l, the part of h_l that no other
    path spans, Q_l = P + c_l c_l^H / ||c_l||^2. When h_l lies in the span of
    the others, column l of H's null vectors is nonzero and Q_l = P.
    """
    m, num_paths = channel.num_antennas, channel.num_paths
    if m < num_paths:
        raise InfeasibleError(
            f"per-path zero-forcing needs num_antennas >= num_paths "
            f"({m} < {num_paths})")
    h = channel.path_vectors.T                                   # (M, L)
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    tol = s[0] * max(h.shape) * np.finfo(float).eps
    rank = int(np.sum(s > tol))
    u = u[:, :rank]
    # a perturbation within tol moves the null vectors by at most
    # tol / s[rank - 1] (Wedin's theorem); a column below that is zero
    own = (rank > 0) & (np.linalg.norm(vh[rank:], axis=0) * s[rank - 1] <= tol)
    c = u @ (vh[:rank] / s[:rank, None])                         # (M, L), columns c_l
    weight = np.divide(own, np.sum(np.abs(c) ** 2, axis=0), out=np.zeros(num_paths),
                       where=own)
    out = []
    for vs in vector_sets:
        coef = weight * np.sum(np.conj(c.T) * vs, axis=1)       # c_l^H v_l / ||c_l||^2
        out.append(vs - (vs @ np.conj(u)) @ u.T + coef[:, None] * c.T)
    return out


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
    iterations counts the bisection steps on delta (see IsacProblem.solve);
    it is 0 when a closed form gives the design.
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
    design (`sensing`, all power on the strongest g_l) and its SNR, the
    ceiling `gamma_zf_max` = |alpha|^2 N P max_l ||g_l||^2 / sigma^2. That is
    at most the unconstrained |alpha|^2 N M P / sigma^2, with equality when
    L = 1. The optimum lies in the span of h and the blocks e_l (x) g_l. In the
    orthonormal basis made of the unit blocks e_l (x) g_l / ||g_l|| and the
    part of h orthogonal to them, A is diag(0, ||g_1||^2, ..., ||g_L||^2) =:
    diag(a) and h has coordinates eta, so `solve` works with (L+1)-vectors
    only.
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
        self._rest_unit = rest / rest_norm if rest_norm > 0 else rest
        self._g_unit = g_unit
        self._eta = np.concatenate([[rest_norm], beta])
        a_diag = np.concatenate([[0.0], norms2])
        # r_i = 1 - a_i / max(a): exactly 0 on the strongest target responses
        self._r = 1.0 - a_diag / a_diag.max()
        # all power on the strongest projected target response
        self._sensing_coords = np.eye(a_diag.size)[np.argmax(a_diag)]
        self.sensing = self._beam(self._sensing_coords)
        self.gamma_zf_max = float(np.abs(gain) ** 2 * block_length * power / noise_power
                                  * a_diag.max())

    def _beam(self, y: np.ndarray) -> DamBeamformer:
        """The design sqrt(P) b / ||b|| for the b with basis coordinates y."""
        b = y[0] * self._rest_unit + y[1:, None] * self._g_unit
        f = np.sqrt(self.power / np.vdot(y, y).real) * b
        return DamBeamformer.aligned(f.T, self.channel.path_delays)

    def solve(self, gamma_th: float) -> IsacSolution:
        """Maximize communication SNR under the floor gamma_sensing >= gamma_th.

        Infeasible exactly when gamma_th > gamma_zf_max, and at equality only
        the sensing-optimal beam is feasible. Below it the floor reads
        sum_i (r_i - rho) |y_i|^2 <= 0, rho = 1 - gamma_th / gamma_zf_max.
        By the secular equation (Golub, SIAM Review 1973) the principal
        eigenvector of the rank-one plus diagonal eta eta^H + lambda diag(a)
        is y_i = eta_i / d_i, d_i = delta + (1 - delta) r_i, for one delta in
        (0, 1] per lambda, at the dual value (eta^H y) (delta + (1 - delta) rho);
        neither cancels as rho -> 0. delta = 1 is MRT, optimal when it meets
        the floor. Otherwise the floor's left side falls with delta, and
        bisection on delta lands on the floor from the feasible side, where
        the dual value is never below the objective. When eta is 0 on every
        strongest response (r_i = 0) and y(0) still misses the floor, y(0)
        topped up along the strongest response is optimal without a search.
        """
        if gamma_th < 0:
            raise ValueError("gamma_th must be >= 0")
        if gamma_th > self.gamma_zf_max:
            nan = float("nan")
            return IsacSolution(beamformer=None, gamma_c=nan, gamma_p=nan,
                                dual_bound=nan, iterations=0, status="infeasible")
        # eta to unit norm: no |y_i|^2 <= 1/delta^2 overflows, for any delta
        scale = self.power / self.noise_power * np.vdot(self._eta, self._eta).real
        eta, r = self._eta / np.linalg.norm(self._eta), self._r
        rho = 1.0 - gamma_th / self.gamma_zf_max
        if rho == 0.0:
            # the dual value as delta -> 0
            bound = scale * abs(np.vdot(eta, self._sensing_coords)) ** 2
            return self._solution(self.sensing, gamma_th, bound, 0)
        mag, slope = np.abs(eta), r - rho           # the floor: slope . |y|^2 <= 0
        if np.dot(slope, mag ** 2) <= 0:            # y(1) = eta meets the floor
            return self._solution(self.mrt, gamma_th, scale, 0)

        # delta = 0: y(0) off the strongest responses, topped up by c e_k,
        # which lowers the floor's left side by rho c^2. Where eta is 0 on all
        # of them its dual value rho eta^H y(0) is finite (and exact if c > 0).
        strongest = r == 0.0
        y_lo = np.divide(eta, r, out=np.zeros_like(eta), where=~strongest)
        excess = np.dot(slope, np.abs(y_lo) ** 2)
        y_lo += np.sqrt(max(excess, 0.0) / rho) * self._sensing_coords
        objective, bound, gap = 0.0, np.inf, np.inf
        if not eta[strongest].any():
            eta_y, norm2 = np.vdot(eta, y_lo).real, np.vdot(y_lo, y_lo).real
            objective, bound = eta_y ** 2 / norm2, rho * eta_y
            gap = -eta_y * min(excess, 0.0) / norm2

        # bisection over the doubles in [0, 1] ordered as their bit patterns:
        # the first steps halve the exponent range, so a delta of any scale
        # (1e-16 where eta is 0 on the strongest responses but for rounding)
        # ends in a bracket a few doubles wide
        lo, hi = 0, int(np.float64(1.0).view(np.int64))
        steps = 0
        while steps < _BISECTION_STEPS and gap > _GAP_TOLERANCE * objective:
            steps += 1
            mid = (lo + hi) // 2
            delta = float(np.int64(mid).view(np.float64))
            d = delta + (1.0 - delta) * r
            y_mag = mag / d
            norm2 = np.dot(y_mag, y_mag)
            excess = np.dot(slope, y_mag ** 2)
            if excess <= 0:
                lo, y_lo = mid, eta / d
                eta_y = np.dot(mag, y_mag)
                objective = eta_y ** 2 / norm2
                bound = eta_y * (delta + (1.0 - delta) * rho)
                gap = -eta_y * (1.0 - delta) * (excess / norm2)
            else:
                hi = mid
        return self._solution(self._beam(y_lo), gamma_th, scale * bound, steps)

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
