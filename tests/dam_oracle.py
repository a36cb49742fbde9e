"""The received signal and the stream correlations of delay alignment, term by
term, as test oracles.

`decompose_received` splits the noiseless received sequence into the aligned
term and every cross-path pairing; `correlation_matrix` correlates the
delayed symbol streams directly. The tests check zero-forcing, the ISI bound
and the decorrelation of the aligned streams against them. `max_sensing_snr`
is the sensing-SNR ceiling the steered designs are checked against.
"""

import numpy as np

from damisac import DamBeamformer, MultipathChannel, SymbolBlock, delayed_symbol_matrix
from damisac.channel import _shift_zero_prefix


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
    if not np.array_equal(bf.delay_schedule, channel.max_delay - channel.path_delays):
        raise ValueError("beamformer delay schedule is not aligned to this channel")
    s = block.symbols
    desired = aligned_gain(bf, channel) * _shift_zero_prefix(s, bf.n_max)
    isi = np.zeros_like(desired)
    cross = np.conj(channel.path_vectors) @ bf.beam_matrix  # (L, L): [l, l'] = h_l^H f_l'
    for l in range(channel.num_paths):
        for lp in range(channel.num_paths):
            if lp == l:
                continue
            lag = int(bf.delay_schedule[lp] + channel.path_delays[l])
            isi += cross[l, lp] * _shift_zero_prefix(s, lag)
    return desired, isi


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
    s_true = delayed_symbol_matrix(block.symbols, kappa, int(true_delay))
    s_probe = delayed_symbol_matrix(block.symbols, kappa, int(probe_delay))
    return s_true @ np.conj(s_probe.T)
