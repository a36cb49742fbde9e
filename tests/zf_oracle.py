"""Per-path zero-forcing projectors built one SVD at a time, as a test oracle.

The package computes every Q_l v from one SVD of the whole channel; the
tests check it, the projector identities and the package's MRT design
against this direct form.
"""

import numpy as np

from damisac import DamBeamformer, InfeasibleError, MultipathChannel


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


def zf_mrt(channel: MultipathChannel, power: float) -> DamBeamformer:
    """The leakage-free MRT f_l = sqrt(P) Q_l h_l / sqrt(sum_l' ||Q_l' h_l'||^2),
    each Q_l its own projector, bound to the channel's delays."""
    c = np.stack([nullspace_projector(channel, l) @ h
                  for l, h in enumerate(channel.path_vectors)])
    return DamBeamformer.aligned(np.sqrt(power / np.sum(np.abs(c) ** 2)) * c.T,
                                 channel.path_delays)
