"""The received signal and the stream correlations of delay alignment, term by
term, as test oracles.

`decompose_received` splits the noiseless received sequence into the aligned
term and every cross-path pairing; `correlation_matrix` correlates the
delayed symbol streams directly. The tests check zero-forcing, the ISI bound
and the decorrelation of the aligned streams against them. `projected_block`
is the transmit seen from one direction as one matrix product over the
delayed streams, and `dense_templates` every matched-filter template of a map
grid, built from it. `max_sensing_snr` is the sensing-SNR ceiling the steered
designs are checked against.
"""

import numpy as np

from damisac import DamBeamformer, MultipathChannel, SymbolBlock, delayed_symbol_matrix
from damisac.channel import _shift_zero_prefix, steering_vector


def aligned_gain(bf: DamBeamformer, channel: MultipathChannel) -> complex:
    """sum_l h_l^H f_l, the gain of the single tap the aligned paths add up to."""
    return np.sum(np.conj(channel.path_vectors) * bf.beam_matrix.T)


def decompose_received(bf: DamBeamformer, channel: MultipathChannel,
                       block: SymbolBlock):
    """Split the noiseless received sequence into aligned term and residual ISI.

    Returns (desired, isi): desired[n] = (sum_l h_l^H f_l) s[n - n_max]; the
    residual collects every cross pairing h_l^H f_l' at lag kappa_l' + n_l.
    Their sum reproduces apply_comm_channel at zero noise. bf must be bound to
    the channel's delays (`DamBeamformer.aligned`).
    """
    n_max = int(channel.path_delays.max())
    if not np.array_equal(bf.delay_schedule, n_max - channel.path_delays):
        raise ValueError("beamformer delay schedule is not aligned to this channel")
    s = block.symbols
    desired = aligned_gain(bf, channel) * _shift_zero_prefix(s, n_max)
    isi = np.zeros_like(desired)
    cross = np.conj(channel.path_vectors) @ bf.beam_matrix  # (L, L): [l, l'] = h_l^H f_l'
    for l in range(channel.num_paths):
        for lp in range(channel.num_paths):
            if lp == l:
                continue
            lag = int(bf.delay_schedule[lp] + channel.path_delays[l])
            isi += cross[l, lp] * _shift_zero_prefix(s, lag)
    return desired, isi


def projected_block(block: SymbolBlock, bf: DamBeamformer, theta: float) -> np.ndarray:
    """a^H(theta) x[n] as (a^H F) S: the projected beams times the L x N
    matrix S of delayed symbol streams."""
    a = steering_vector(theta, bf.num_antennas)
    return (np.conj(a) @ bf.beam_matrix) @ delayed_symbol_matrix(block.symbols,
                                                                 bf.delay_schedule)


def dense_templates(block: SymbolBlock, bf: DamBeamformer, theta: float, grid) -> np.ndarray:
    """The unit-norm template of every cell of a delay-Doppler grid as the
    columns of an (N, P Q) matrix, in the map's delay-major cell order:
    projected_block delayed by p, over its norm, times e^{j2 pi f_q T_s n}."""
    seen = projected_block(block, bf, theta)
    ramps = np.exp(2j * np.pi * grid.symbol_duration_s
                   * np.outer(np.arange(seen.size), grid.doppler_bins_hz))
    columns = []
    for p in grid.delay_bins:
        base = _shift_zero_prefix(seen, int(p))
        columns.append(ramps * (base / np.linalg.norm(base))[:, None])
    return np.concatenate(columns, axis=1)


def max_sensing_snr(num_antennas: int, block_length: int, power: float,
                    gain: complex, noise_power: float) -> float:
    """Sensing SNR ceiling |alpha|^2 N M P / sigma^2: all power on the target
    direction, reached by f_l = sqrt(P/(M L)) a(theta)."""
    return float(np.abs(gain) ** 2 * block_length * num_antennas * power / noise_power)


def correlation_matrix(block: SymbolBlock, kappa, probe_delay: int,
                       true_delay: int) -> np.ndarray:
    """Cross-correlation of the delayed-stream matrices at two block delays.

    Entry (i, j) is the inner product of stream i delayed by true_delay with
    stream j delayed by probe_delay; it concentrates near the block length N
    when kappa_i + true_delay = kappa_j + probe_delay and near zero otherwise.
    """
    kappa = np.asarray(kappa, dtype=int)
    s_true = delayed_symbol_matrix(block.symbols, kappa + int(true_delay))
    s_probe = delayed_symbol_matrix(block.symbols, kappa + int(probe_delay))
    return s_true @ np.conj(s_probe.T)
