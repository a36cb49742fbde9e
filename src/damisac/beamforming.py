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
Review 1973), and lambda takes a few Newton steps on one scalar (Li, LAPACK
Working Note 89, 1994).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .channel import MultipathChannel, steering_vector
from .errors import InfeasibleError
from .waveform import DamBeamformer

# Most steps on delta (IsacProblem.solve): 60 midpoints leave 4 of [0, 1]'s 2^62 doubles.
_DELTA_STEPS = 60
# Relative duality gap at which the search on delta stops early.
_GAP_TOLERANCE = 1e-12


def _zf_project(h: np.ndarray, *vector_sets: np.ndarray) -> list:
    """Q_l v_l for every path l of every channel in a stack of path vectors
    h (B, L, M), for each (B, L, M) array of rows v_l given.

    Q_l projects onto the complement of the other paths' vectors. One thin
    SVD of H = [h_1 ... h_L] gives every Q_l: with P the projector onto the
    complement of span(H) and c_l = (H^+)^H e_l, the part of h_l that no other
    path spans, Q_l = P + c_l c_l^H / ||c_l||^2. When h_l lies in the span of
    the others, column l of H's null vectors is nonzero and Q_l = P. The
    stack takes one batched SVD; each channel keeps its own rank, as a mask
    over its singular values.
    """
    m, num_paths = h.shape[2], h.shape[1]
    if m < num_paths:
        raise InfeasibleError(
            f"scenario.num_antennas: per-path zero-forcing needs num_antennas >= num_paths "
            f"({m} < {num_paths})")
    u, s, vh = np.linalg.svd(np.swapaxes(h, 1, 2), full_matrices=False)  # H (B, M, L)
    tol = s[:, :1] * max(m, num_paths) * np.finfo(float).eps
    keep = s > tol                                     # (B, L), each row's first rank entries
    u *= keep[:, None, :]
    # a perturbation within tol moves the null vectors by at most
    # tol / s[rank - 1] (Wedin's theorem); a column below that is zero. At
    # rank 0 that bound is infinite and no column is.
    least = np.where(keep, s, np.inf).min(axis=1, keepdims=True)     # s[rank - 1]
    own = np.linalg.norm(vh * ~keep[:, :, None], axis=1) * least <= tol
    c = u @ np.divide(vh, s[:, :, None], out=np.zeros_like(vh),
                      where=keep[:, :, None])          # (B, M, L), columns c_l
    weight = np.divide(own, np.sum(np.abs(c) ** 2, axis=1), out=np.zeros(own.shape),
                       where=own)
    # U U^H v_l for every set first, so that u is freed before the products'
    # buffer is made: beside the results and c, only one of the two is live
    u_conj = np.conj(u)
    coords = [vs @ u_conj for vs in vector_sets]               # rows (U^H v_l)^T
    del u_conj
    out = [coord @ np.swapaxes(u, 1, 2) for coord in coords]
    del u
    work = np.empty(c.size, dtype=complex)
    for vs, projected in zip(vector_sets, out):
        # c_l^H v_l / ||c_l||^2. The product is laid out as numpy lays out one
        # channel's: by path for rows v_l of their own (each sum over m then
        # pairwise), by antenna for one vector broadcast to every path (summed
        # in m order). Fixed here, the sums do not change with the stack size.
        if vs.strides[1] == 0:
            prod = np.conj(c, out=work.reshape(c.shape))
            prod *= np.swapaxes(vs, 1, 2)
            coef = prod.sum(axis=1)
        else:
            prod = np.conj(np.swapaxes(c, 1, 2), out=work.reshape(vs.shape))
            prod *= vs
            coef = prod.sum(axis=2)
        # v_l - U U^H v_l + weight_l coef_l c_l, summed in that order
        np.subtract(vs, projected, out=projected)
        projected += np.multiply((weight * coef)[:, :, None], np.swapaxes(c, 1, 2),
                                 out=work.reshape(vs.shape))
    return out


@dataclass
class IsacSolution:
    """Result of the trade-off solve.

    dual_bound is the dual value P lambda_max(h h^H + lambda A) - lambda gamma~
    at the final lambda, in communication-SNR units: an upper bound on every
    feasible gamma_c, so dual_bound - gamma_c bounds the optimality gap.
    iterations counts the Newton or midpoint steps on delta (IsacProblem.solve);
    it is 0 when a closed form gives the design. gamma_c, gamma_p,
    zf_residual and power_used audit the beamformer from its basis
    coordinates, as in `BatchSolution`; an infeasible solve holds nan and no
    beamformer.
    """

    beamformer: Optional[DamBeamformer]
    gamma_c: float
    gamma_p: float
    dual_bound: float
    iterations: int
    zf_residual: float
    power_used: float
    status: str                      # "optimal" | "infeasible"


@dataclass
class BatchSolution:
    """The trade-off solve of every (problem, floor) row of `solve_batch`.

    Each field is a (problems, floors) array. A feasible row holds what
    `IsacProblem.solve` gives for it, without a beamformer; an infeasible row
    (a floor above the problem's ceiling) holds nan and 0 iterations.
    """

    gamma_c: np.ndarray
    gamma_p: np.ndarray
    dual_bound: np.ndarray
    iterations: np.ndarray
    zf_residual: np.ndarray
    power_used: np.ndarray
    feasible: np.ndarray


def _search(eta: np.ndarray, r: np.ndarray, rho: np.ndarray):
    """The optimum's basis coordinates y for each row (eta, r, rho) at once.

    eta (unit-norm rows) and r are (R, L+1) arrays and rho has R entries; see
    IsacProblem.solve for the exits and the search on delta. Each row is
    independent of the others and keeps its own early stop. Returns y, the
    dual value in units of P ||eta||^2 / sigma^2 and the delta steps, per row;
    y and the dual value are nan where rho < 0 (the floor is infeasible).
    """
    y, bound = np.full(eta.shape, np.nan, dtype=complex), np.full(rho.size, np.nan)
    steps = np.zeros(rho.size, dtype=int)
    strongest, mag = r == 0.0, np.abs(eta)
    top = np.argmax(strongest, axis=1)           # the sensing beam's response

    # rho = 0: the sensing beam, at the dual value as delta -> 0
    at = np.flatnonzero(rho == 0.0)
    y[at], bound[at] = 0.0, mag[at, top[at]] ** 2
    y[at, top[at]] = 1.0
    # rho > 0: the floor reads excess = slope . |y|^2 <= 0; MRT, y(1) = eta, if it meets it
    rows = np.flatnonzero(rho > 0.0)
    eta, r, rho, mag, strongest, top = (v[rows] for v in (eta, r, rho, mag, strongest, top))
    slope = r - rho[:, None]
    excess = np.sum(slope * mag ** 2, axis=1)
    mrt = excess <= 0
    y[rows[mrt]], bound[rows[mrt]] = eta[mrt], 1.0
    rows, eta, r, rho, mag, slope, strongest, top, excess = (
        v[~mrt] for v in (rows, eta, r, rho, mag, slope, strongest, top, excess))
    # delta = 0: y(0) off the strongest responses, topped up by c e_k, which
    # lowers the floor's left side by rho c^2. Where eta is 0 on all of them
    # its dual value rho eta^H y(0) is finite (and exact if c > 0).
    y_lo = np.divide(eta, r, out=np.zeros_like(eta), where=~strongest)
    excess0 = np.sum(slope * np.abs(y_lo) ** 2, axis=1)
    y_lo[np.arange(rows.size), top] += np.sqrt(np.maximum(excess0, 0.0) / rho)
    row_bound, gap = np.full((2, rows.size), np.inf)      # gap relative to the objective
    at = np.flatnonzero(~np.any(strongest & (eta != 0), axis=1))
    eta_y = (np.conj(eta[at]) * y_lo[at]).real.sum(axis=1)
    row_bound[at], gap[at] = rho[at] * eta_y, -np.minimum(excess0[at], 0.0) / eta_y

    # Near delta = 0, h(u) = -rho S + u excess0 + ..., S the weight of eta on the
    # strongest responses, while delta is well below every r_i > 0. Where
    # excess0 > 0 the model's root is a point near the root of h; elsewhere h
    # has no root that far down, and the least r_i > 0 marks where its terms turn.
    with np.errstate(all="ignore"):
        near = np.where(excess0 > 0,
                        np.sqrt(rho * np.sum(mag ** 2 * strongest, axis=1) / excess0),
                        np.where(strongest, 1.0, r).min(axis=1))

    # Newton's steps on h(u) (IsacProblem.solve) from delta = 1. A point outside
    # the bracket (lo feasible, hi not) gives way to the point near from the
    # delta = 0 side while that lies inside, else to the bracket's bit
    # patterns' midpoint, which reaches a delta of any scale (1e-16 where eta
    # is 0 on the strongest responses but for rounding). From the infeasible
    # side a step goes past the root by itself, or less, to half the gap
    # tolerance, by a double at least.
    lo, row_steps, step = np.zeros(rows.size), np.zeros(rows.size, dtype=int), 0
    at, per_row = np.arange(rows.size), np.stack([r, mag, slope])
    state = np.stack([lo, *np.ones((2, rows.size)), excess,
                      np.sum(slope * r * mag ** 2, axis=1), lo, gap, near])
    while at.size:
        a_lo, a_hi, delta, excess, dh, half_gap, gap, near = state
        done = ~(gap > _GAP_TOLERANCE) | (step == _DELTA_STEPS)
        if done.any():
            lo[at[done]], row_steps[at[done]] = a_lo[done], step
            at, per_row, state = at[~done], per_row[:, ~done], state[:, ~done]
            continue
        step += 1
        with np.errstate(all="ignore"):
            q = excess / dh
            shift = delta * q / (1.0 + np.sqrt(1.0 - q))        # delta - delta sqrt(1 - q)
            past = np.minimum(delta - (1.0 + np.minimum(1.0, half_gap / excess)) * shift,
                              np.nextafter(delta, 0.0))
        delta = np.where(excess > 0, past, delta - shift)
        mid = ((a_lo.view(np.int64) + a_hi.view(np.int64)) // 2).view(np.float64)
        mid = np.where((near > a_lo) & (near < a_hi), near, mid)
        delta = np.where((delta > a_lo) & (delta < a_hi), delta, mid)
        a_r, a_mag, a_slope = per_row
        d = delta[:, None] + (1.0 - delta[:, None]) * a_r
        y_mag = a_mag / d
        y2 = y_mag * y_mag
        excess, eta_y = (a_slope * y2).sum(axis=1), (a_mag * y_mag).sum(axis=1)
        met = excess <= 0
        state = np.array([np.where(met, delta, a_lo), np.where(met, a_hi, delta), delta,
                          excess, (a_slope * a_r * y2 / d).sum(axis=1),
                          _GAP_TOLERANCE / 2 * eta_y / (1.0 - delta),
                          np.where(met, (delta - 1.0) * excess / eta_y, gap), near])

    # each row's design and dual value at the feasible end lo of its bracket
    at = np.flatnonzero(lo)
    delta = lo[at]
    d = delta[:, None] + (1.0 - delta[:, None]) * r[at]
    y_lo[at] = eta[at] / d
    eta_y = (mag[at] * (mag[at] / d)).sum(axis=1)
    row_bound[at] = eta_y * (delta + (1.0 - delta) * rho[at])
    y[rows], bound[rows], steps[rows] = y_lo, row_bound, row_steps
    return y, bound, steps


def _set_up(h: np.ndarray, theta: float, gain: complex, block_length: int, power: float,
            noise_power: float):
    """The channel-only work of the trade-off problem for a stack of path
    vectors h (B, L, M); see `IsacProblem`.

    Returns, per channel, the set-up of the rows that `_solve_rows` reads:
    eta (unit norm) and r (B, L+1), the inner products of h_1 ... h_L and a
    with the L + L basis rows g_l, r_l (B, L+1, 2L), the rows' Gram entries
    ||g_l||^2, ||r_l||^2 and g_l^H r_l (B, 3, L), the scale P ||c||^2 / sigma^2
    of the search's dual value and gamma_zf_max (B,); and apart, the basis
    rows a beamformer is built from: the unit blocks g_l / ||g_l|| and the
    unit part of h orthogonal to them (B, L, M), with c_l = Q_l h_l the
    projected path responses.
    Its working memory beside h peaks at four (B, L, M) stacks: in
    `_zf_project`, Q_l h_l and Q_l a beside c_l and u or the products'
    buffer; then Q_l h_l and Q_l a beside the two basis stacks. The rest are
    (B, L, L) and (B, L+1, 2L) arrays and numpy's ufunc buffers.
    A channel that leaves no design raises its own InfeasibleError, the
    first such channel in the stack first.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    num_channels, num_paths, m = h.shape
    a = np.broadcast_to(steering_vector(theta, m), h.shape)
    c, g = _zf_project(h, h, a)
    norms2 = np.sum(np.abs(g) ** 2, axis=2)
    lengths = np.sqrt(norms2)
    # the rows g_l / ||g_l|| and r_l side by side, (B, 2, L, M), for one
    # product with h_1 ... h_L and a
    basis = np.zeros((num_channels, 2, num_paths, m), dtype=complex)
    g_unit, rest_unit = basis[:, 0], basis[:, 1]
    np.divide(g, lengths[..., None], out=g_unit, where=lengths[..., None] > 0)
    # g is not read again: its buffer holds the elementwise products
    beta = np.multiply(np.conj(g_unit, out=g), c, out=g).sum(axis=2)
    np.subtract(c, np.multiply(beta[..., None], g_unit, out=g), out=rest_unit)
    del c, g
    # vecdot takes each row's dot product as np.linalg.norm and np.vdot do
    flat = rest_unit.reshape(num_channels, -1)
    rest_norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    eta = np.concatenate([rest_norm[:, None], beta], axis=1)
    norm2 = np.vecdot(eta, eta).real                 # ||c||^2
    missed, vanished = norms2.max(axis=1) <= 0, ~(norm2 > 0)
    if np.any(missed | vanished):
        if missed[np.argmax(missed | vanished)]:
            raise InfeasibleError(
                "target direction lies in the span of every interfering path set")
        raise InfeasibleError("all projected path responses vanish")
    np.divide(rest_unit, rest_norm[:, None, None], out=rest_unit,
              where=rest_norm[:, None, None] > 0)
    # eta to unit norm: no |y_i|^2 <= 1/delta^2 overflows, for any delta
    eta /= np.sqrt(np.vecdot(eta.real, eta.real) + np.vecdot(eta.imag, eta.imag))[:, None]
    a_diag = np.concatenate([np.zeros((norms2.shape[0], 1)), norms2], axis=1)
    top = a_diag.max(axis=1)
    # r_i = 1 - a_i / max(a): exactly 0 on the strongest target responses
    r = 1.0 - a_diag / top[:, None]
    ceiling = np.abs(gain) ** 2 * block_length * power / noise_power * top
    # what every row's audit is read from (_solve_rows); no product is
    # assumed to be 0, so the audit measures what the projection left
    responses = np.concatenate([h, a[:, :1]], axis=1)                      # (B, L+1, M)
    seen = (np.conj(responses, out=responses)
            @ np.swapaxes(basis.reshape(num_channels, -1, m), 1, 2))
    gram = np.stack([np.vecdot(g_unit, g_unit), np.vecdot(rest_unit, rest_unit),
                     np.vecdot(g_unit, rest_unit)], axis=1)
    return (eta, r, seen, gram, power / noise_power * norm2, ceiling), (g_unit, rest_unit)


def _beams(y: np.ndarray, g_unit: np.ndarray, rest_unit: np.ndarray,
           power: float) -> np.ndarray:
    """The beam matrices sqrt(P) b / ||b|| (B, M, L) of the b with basis
    coordinates y (B, L+1), row i in its channel's basis g_unit[i],
    rest_unit[i] (B, L, M): the beamformer `IsacProblem.solve` returns."""
    f = np.multiply(y[:, 1:, None], g_unit, out=np.empty(g_unit.shape, dtype=complex))
    f += y[:, :1, None] * rest_unit
    f *= np.sqrt(power / np.sum(y.real ** 2 + y.imag ** 2, axis=1))[:, None, None]
    return np.swapaxes(f, 1, 2)


def _solve_rows(setup: tuple, gain: complex, block_length: int, power: float,
                noise_power: float, gamma_th) -> tuple:
    """The trade-off solve of every (channel, floor) row of a stack of
    channels, given the rows' set-up from `_set_up`, at the floors gamma_th:
    one grid (G,) for all channels or one grid per channel (B, G).

    All B G rows go through one search on delta. Each row's beams
    f_l = s (y_{l+1} g_l + y_0 r_l), s = sqrt(P / ||y||^2), are audited from
    the set-up's inner products in O(L^2), with no beam matrix built. Returns
    the `BatchSolution` and the rows' basis coordinates y (B, G, L+1), nan on
    an infeasible row.
    """
    gamma_th = np.asarray(gamma_th, dtype=float)
    if not np.all(gamma_th >= 0):
        raise ValueError("gamma_th must be >= 0")
    eta, r, seen, gram, scale, ceiling = setup
    shape = (eta.shape[0], gamma_th.shape[-1])
    rho = 1.0 - np.broadcast_to(gamma_th, shape) / ceiling[:, None]
    y, bound, steps = _search(np.repeat(eta, shape[1], axis=0),
                              np.repeat(r, shape[1], axis=0), rho.ravel())
    # an infeasible row's y is nan, and so is its audit
    y, feasible = y.reshape(*shape, -1), rho >= 0
    num_paths = y.shape[2] - 1
    s2 = power / np.sum(y.real ** 2 + y.imag ** 2, axis=2)
    y_g, y_0 = y[:, :, 1:], y[:, :, :1]
    # (B, G, L+1, L): h_l^H f_l' in rows l < L, a^H f_l' in row L
    seen_f = y_g[:, :, None] * seen[:, None, :, :num_paths]
    seen_f += y_0[:, :, None] * seen[:, None, :, num_paths:]
    np.multiply(np.sqrt(s2)[..., None, None], seen_f, out=seen_f)
    cross = seen_f[:, :, :num_paths]
    gamma_c = np.abs(np.trace(cross, axis1=2, axis2=3)) ** 2 / noise_power
    diagonal = np.arange(num_paths)
    cross[:, :, diagonal, diagonal] = 0.0
    zf_residual = np.abs(cross).max(axis=(2, 3))
    gamma_p = (np.abs(gain) ** 2 * block_length
               * np.sum(np.abs(seen_f[:, :, num_paths]) ** 2, axis=2) / noise_power)
    g_g, r_r, g_r = gram[:, None, 0].real, gram[:, None, 1].real, gram[:, None, 2]
    power_used = s2 * np.sum(np.abs(y_g) ** 2 * g_g + np.abs(y_0) ** 2 * r_r
                             + 2.0 * (np.conj(y_g) * y_0 * g_r).real, axis=2)
    audit = np.where(feasible, [zf_residual, power_used, gamma_c, gamma_p], np.nan)
    return BatchSolution(gamma_c=audit[2], gamma_p=audit[3],
                         dual_bound=scale[:, None] * bound.reshape(shape),
                         iterations=steps.reshape(shape), zf_residual=audit[0],
                         power_used=audit[1], feasible=feasible), y


class IsacProblem:
    """The trade-off problem on one channel, prepared once for any sensing floor.

    Construction does the channel-only work: the projected responses
    c_l = Q_l h_l and g_l = Q_l a and the ceiling `gamma_zf_max` =
    |alpha|^2 N P max_l ||g_l||^2 / sigma^2. That is at most the unconstrained
    |alpha|^2 N M P / sigma^2, with equality when L = 1. The endpoints are
    solves: `solve(0)` is MRT, f_l = sqrt(P) c_l / ||c||, and
    `solve(gamma_zf_max)` the sensing-optimal design, all power on the
    strongest g_l. The optimum lies in the span of h and the blocks e_l (x) g_l.
    In the orthonormal basis made of the unit blocks e_l (x) g_l / ||g_l|| and
    the part of h orthogonal to them, A is diag(0, ||g_1||^2, ..., ||g_L||^2)
    =: diag(a) and h has coordinates eta, so `solve` works with (L+1)-vectors
    only. It takes one channel, not a stack; its set-up is `solve_batch`'s
    for the stack of that one channel, with a leading axis of length 1.
    """

    def __init__(self, channel: MultipathChannel, theta: float, gain: complex,
                 block_length: int, power: float, noise_power: float):
        if channel.path_vectors.ndim != 2:
            raise ValueError("IsacProblem takes one channel; solve_batch takes a stack")
        self.channel, self.theta, self.gain = channel, theta, gain
        self.block_length, self.power, self.noise_power = block_length, power, noise_power
        self._setup, self._basis = _set_up(channel.path_vectors[None], theta, gain,
                                           block_length, power, noise_power)
        self.gamma_zf_max = float(self._setup[-1][0])

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
        the floor. Otherwise gamma_p falls as delta grows, and Newton's steps
        on h(u) = u sum_i (r_i - rho) |y_i|^2, u = delta^2, whose factor u
        cancels the 1/u pole of the strongest responses, land on its root from
        the feasible side, where the dual value is never below the objective.
        When eta is 0 on every strongest response (r_i = 0) and y(0) still
        misses the floor, y(0) topped up along one of them is optimal without
        a search.
        This is the one-row case of `solve_batch`, with the beamformer built.
        """
        rows, y = _solve_rows(self._setup, self.gain, self.block_length, self.power,
                              self.noise_power, [gamma_th])
        row = {f.name: getattr(rows, f.name)[0, 0].item() for f in fields(rows)}
        if not row.pop("feasible"):
            return IsacSolution(beamformer=None, status="infeasible", **row)
        beams = _beams(y[0], *self._basis, self.power)
        return IsacSolution(beamformer=DamBeamformer.aligned(beams[0], self.channel.path_delays),
                            status="optimal", **row)


def solve_batch(channels: MultipathChannel, theta: float, gain: complex,
                block_length: int, power: float, noise_power: float,
                gamma_th) -> BatchSolution:
    """`IsacProblem(channels[b], theta, gain, block_length, power, noise_power)
    .solve` for every channel b of a stack and every floor, as (B, G) arrays.

    The stack's (B, L, M) path vectors are read in place. gamma_th is one
    grid of floors (G,) for all channels, or one per channel (B, G). The
    set-up is one stacked call, all B G rows go through one search on delta,
    and each row is audited from its basis coordinates. No beamformer and no
    beam matrix is built, and the basis rows are freed before the search.
    """
    h = channels.path_vectors
    if h.ndim != 3 or not h.shape[0]:
        raise ValueError("solve_batch needs a stack of one or more channels")
    setup = _set_up(h, theta, gain, block_length, power, noise_power)[0]
    return _solve_rows(setup, gain, block_length, power, noise_power, gamma_th)[0]
