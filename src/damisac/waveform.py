"""Delay alignment modulation: per-path delay pre-compensation and beamforming.

Each symbol stream copy l is advanced-by-construction with kappa_l =
n_max - n_l symbols and sent through its own beamformer f_l, so all L
multipath arrivals line up at a single lag n_max at the receiver. With
per-path zero-forcing the channel collapses to a single-tap link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _distinct, complex_normal, steering_vector


@dataclass
class SymbolBlock:
    """A length-N unit-average-power symbol sequence plus its modulation tag."""

    symbols: np.ndarray
    modulation: str = "qpsk"

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=complex)
        if self.symbols.ndim != 1 or self.symbols.size < 1:
            raise ValueError("symbols must be a non-empty 1-D array")

    @property
    def length(self) -> int:
        return self.symbols.size


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
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    order = _psk_order(modulation)
    mod = modulation.lower()
    if order == 0:
        return SymbolBlock(complex_normal(rng, (length,), 1.0), mod)
    phases = rng.integers(0, order, size=length)
    return SymbolBlock(np.exp(2j * np.pi * phases / order), mod)


@dataclass
class DamBeamformer:
    """Per-path beamformers with their delay pre-compensation schedule.

    beam_matrix holds f_l as column l (shape (M, L)); delay_schedule holds
    kappa_l; n_max is the common alignment lag of the bound channel.
    """

    beam_matrix: np.ndarray
    delay_schedule: np.ndarray
    n_max: int

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
        if self.n_max < self.delay_schedule.max():
            raise ValueError("n_max must be at least the largest schedule entry")

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
        n_max = int(delays.max())
        return cls(beam_matrix, n_max - delays, n_max)


def delayed_symbol_matrix(symbols: np.ndarray, kappa, extra_delay: int = 0) -> np.ndarray:
    """Rows are the symbol stream delayed by kappa_l + extra_delay (zero-prefix)."""
    symbols = np.asarray(symbols)
    kappa = np.asarray(kappa, dtype=int)
    n = symbols.size
    out = np.zeros((kappa.size, n), dtype=complex)
    for i, k in enumerate((kappa + extra_delay).tolist()):
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


def _array_power(tx_block: np.ndarray) -> np.ndarray:
    """Instantaneous array-aggregate power ||x[n]||^2 of each column.

    The power is summed one antenna row at a time, row 0 first as numpy sums
    axis 0, so no M x N temporary is built.
    """
    tx_block = np.atleast_2d(np.asarray(tx_block))
    inst = np.abs(tx_block[0]) ** 2
    for row in tx_block[1:]:
        inst += np.abs(row) ** 2
    return inst


def _peak_to_average(inst: np.ndarray) -> float:
    """max / mean of the per-sample powers _array_power gives."""
    mean = inst.mean()
    if mean == 0:
        raise ValueError("all-zero block has no defined peak-to-average ratio")
    return float(inst.max() / mean)


def papr_empirical(tx_block: np.ndarray) -> float:
    """Peak-to-average ratio of instantaneous array-aggregate power ||x[n]||^2."""
    return _peak_to_average(_array_power(tx_block))


def dam_papr(block: SymbolBlock, bf: DamBeamformer) -> float:
    """papr_empirical(build_dam_block(block, bf)) from min(M, L) rows, not M.

    With F = QR and Q's columns orthonormal, ||F s[n]|| = ||R s[n]||, so the
    block of the beams R has the same instantaneous power up to rounding.
    """
    r = np.linalg.qr(bf.beam_matrix, mode="r")
    return papr_empirical(build_dam_block(block, DamBeamformer(r, bf.delay_schedule, bf.n_max)))
