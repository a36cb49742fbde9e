"""Delay alignment modulation: per-path delay pre-compensation and beamforming.

Each symbol stream copy l is delayed by kappa_l = n_max - n_l symbols, with
n_max the channel's largest delay, and sent through its own beamformer f_l,
so all L multipath arrivals line up at the single lag n_max at the receiver.
With per-path zero-forcing the channel collapses to a single-tap link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _distinct, complex_normal, steering_vector


@dataclass
class SymbolBlock:
    """A length-N unit-average-power symbol sequence."""

    symbols: np.ndarray

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=complex)
        if self.symbols.ndim != 1 or self.symbols.size < 1:
            raise ValueError("symbols must be a non-empty 1-D array")


def _psk_order(modulation: str) -> int:
    """PSK order of a modulation name (see generate_symbols), 0 for "gaussian"."""
    mod = modulation.lower()
    if mod == "gaussian":
        return 0
    order = {"bpsk": 2, "qpsk": 4}.get(mod)
    if order is None and mod.startswith("psk") and mod[3:].isdecimal():
        order = int(mod[3:])
    if order is None:
        raise ValueError(f"unknown modulation {modulation!r}")
    if order < 2 or order > 2 ** 63 or order & (order - 1):
        raise ValueError("PSK order must be a power of two in [2, 2^63]")
    return order


def generate_symbols(rng: np.random.Generator, length: int,
                     modulation: str = "qpsk") -> SymbolBlock:
    """Draw i.i.d. unit-power symbols.

    modulation: "bpsk", "qpsk", "psk<order>" (order a power of two in
    [2, 2^63]), or "gaussian" for CN(0, 1).

    A PSK symbol is exp(2j pi p / order) for a drawn phase index p. When the
    order is at most the length, the order symbols are evaluated once and the
    drawn indices pick from that table; larger orders evaluate each symbol.
    Both paths evaluate the same expression of the same integer, so they give
    the same bits.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    order = _psk_order(modulation)
    if order == 0:
        return SymbolBlock(complex_normal(rng, (length,), 1.0))
    phases = rng.integers(0, order, size=length)
    if order <= length:
        return SymbolBlock(np.exp(2j * np.pi * np.arange(order) / order)[phases])
    return SymbolBlock(np.exp(2j * np.pi * phases / order))


@dataclass
class DamBeamformer:
    """Per-path beamformers with their delay pre-compensation schedule.

    beam_matrix holds f_l as column l (shape (M, L)); delay_schedule holds
    kappa_l. The common alignment lag n_max is the bound channel's largest delay.
    """

    beam_matrix: np.ndarray
    delay_schedule: np.ndarray

    def __post_init__(self):
        self.beam_matrix = np.asarray(self.beam_matrix, dtype=complex)
        self.delay_schedule = np.asarray(self.delay_schedule, dtype=int)
        if self.beam_matrix.ndim != 2:
            raise ValueError("beam_matrix must be 2-D (M, L)")
        if self.delay_schedule.shape != (self.beam_matrix.shape[1],):
            raise ValueError("delay_schedule length must match beam count")
        if np.any(self.delay_schedule < 0):
            raise ValueError("delay schedule entries must be non-negative")
        if not _distinct(self.delay_schedule):
            raise ValueError("delay schedule entries must be pairwise distinct")

    @property
    def num_antennas(self) -> int:
        return self.beam_matrix.shape[0]

    @property
    def num_paths(self) -> int:
        return self.beam_matrix.shape[1]

    @classmethod
    def aligned(cls, beam_matrix, path_delays) -> "DamBeamformer":
        """Bind beams to a channel's delays via kappa_l = n_max - n_l.

        This is the one place the schedule is computed. Distinct delays give
        pairwise distinct kappa, which makes the aligned streams mutually
        uncorrelated for sensing; __post_init__ checks that, once, since kappa
        is distinct exactly when the delays are.
        """
        delays = np.asarray(path_delays, dtype=int)
        if np.any(delays < 0):
            raise ValueError("path delays must be non-negative")
        return cls(beam_matrix, delays.max() - delays)

    @classmethod
    def steered(cls, theta: float, num_antennas: int, power: float,
                path_delays) -> "DamBeamformer":
        """Radar mode: power P split equally over the L = len(path_delays)
        streams, each steered at theta, f_l = sqrt(P / (M L)) a(theta)."""
        l, a_theta = len(path_delays), steering_vector(theta, num_antennas)
        beams = np.sqrt(power / (num_antennas * l)) * np.tile(a_theta[:, None], (1, l))
        return cls.aligned(beams, path_delays)


def delayed_symbol_matrix(symbols: np.ndarray, kappa) -> np.ndarray:
    """Rows are the symbol stream delayed by kappa_l (zero-prefix)."""
    symbols = np.asarray(symbols)
    kappa = np.asarray(kappa, dtype=int)
    n = symbols.size
    out = np.zeros((kappa.size, n), dtype=complex)
    for i, k in enumerate(kappa.tolist()):
        if k < n:
            out[i, k:] = symbols[:n - k]
    return out


def build_dam_block(block: SymbolBlock, bf: DamBeamformer) -> np.ndarray:
    """Transmit matrix x[n] = sum_l f_l s[n - kappa_l], shape (M, N)."""
    rows = delayed_symbol_matrix(block.symbols, bf.delay_schedule)
    return bf.beam_matrix @ rows


_TERM_CHUNK = 8192   # samples per product in projected_dam_block: 128 KiB, cache-resident


def projected_dam_block(block: SymbolBlock, bf: DamBeamformer, theta: float) -> np.ndarray:
    """a^H(theta) x[n], the transmit seen from direction theta, shape (N,).

    Projects the L per-path beams first, g = a^H F, so no M x N block is
    built, and then adds g_l s[n - kappa_l] one stream at a time in schedule
    order, _TERM_CHUNK samples at a time through one reused product buffer:
    no L x N matrix of delayed streams and no BLAS call over the N samples.
    The sum is elementwise, so its rounding does not depend on the BLAS
    thread count, nor on the chunk size.
    """
    a = steering_vector(theta, bf.num_antennas)
    s = block.symbols
    n = s.size
    out = np.zeros(n, dtype=complex)
    term = np.empty(min(n, _TERM_CHUNK), dtype=complex)
    for g, k in zip((np.conj(a) @ bf.beam_matrix).tolist(), bf.delay_schedule.tolist()):
        for c in range(k, n, _TERM_CHUNK):
            w = min(_TERM_CHUNK, n - c)
            np.multiply(g, s[c - k:c - k + w], out=term[:w])
            out[c:c + w] += term[:w]
    return out


def papr_empirical(tx_block: np.ndarray) -> float:
    """Peak-to-average ratio of the instantaneous power: ||x[n]||^2, the sum
    over axis 0 of an (M, N) block, or |x[n]|^2 of an (N,) sequence."""
    inst = np.sum(np.abs(np.atleast_2d(tx_block)) ** 2, axis=0)
    mean = inst.mean()
    if mean == 0:
        raise ValueError("all-zero block has no defined peak-to-average ratio")
    return float(inst.max() / mean)
