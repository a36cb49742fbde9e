"""Batch experiments: beampatterns, SE/sensing trade-off sweeps, delay-Doppler
maps, and the OFDM comparison table.

Each runner takes one ExperimentConfig, draws per-trial RNG streams keyed by
(seed, trial index) so aggregation is order-independent, and writes CSV files
whose '#' header lines carry the resolved config hash, the seed, and the
block accounting (N_c, N_p, N). Identical config + seed gives bit-identical
output files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import beamforming, ofdm, sensing, waveform
from .channel import (ChannelGenConfig, MultipathChannel, RadarTarget,
                      ScenarioConfig, _check_guard, _round_trip,
                      complex_normal, generate_multipath_channels,
                      radar_round_trip_gain, steering_vector)
from .errors import ConfigError
from .units import dbm_to_watt, linear_to_db


@dataclass(frozen=True)
class TargetConfig:
    """Target geometry in internal units (radians, meters, m/s)."""

    range_m: float = 200.0
    rcs_m2: float = 1.0
    direction_rad: float = np.pi / 6.0
    radial_velocity_m_s: float = 15.0


@dataclass
class ExperimentConfig:
    """Resolved parameters for one batch run (defaults: the 28 GHz scenario).

    Its defaults and those of the nested configs are the only ones; load_config
    keeps them for every field a file leaves out.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig.mmwave_default)
    channel_gen: ChannelGenConfig = field(default_factory=ChannelGenConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    trials: int = 100
    seed: int = 0
    gamma_th_grid_db: np.ndarray = field(
        default_factory=lambda: np.arange(0.0, 20.0 + 1.0, 2.0))
    mc_block_length: int = 16384        # cap on N for waveform-level Monte Carlo
    isac_gamma_fraction: float = 0.8    # gamma_th as a fraction of the ZF ceiling
    sweep_num_paths: Sequence[int] = (5, 10)
    ofdm_subcarriers: int = 1024
    beampattern_aods_deg: Sequence[float] = (-60.0, -31.0, -24.0, 18.0, 54.0)
    modulation: str = "qpsk"
    strict_ambiguity: bool = True
    output_dir: Optional[Path] = None

    def describe(self) -> dict:
        """Canonical dict of every effective parameter (for hashing/headers)."""
        channel = _plain(dataclasses.asdict(self.channel_gen))
        channel["aod_sector_rad"] = channel.pop("aod_sector")
        nested = ("scenario", "channel_gen", "target", "output_dir")
        return {"scenario": dataclasses.asdict(self.scenario),
                "channel": channel,
                "target": dataclasses.asdict(self.target),
                "experiment": {f.name: _plain(getattr(self, f.name))
                               for f in dataclasses.fields(self) if f.name not in nested}}

    def config_hash(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def rng(self, *key: int) -> np.random.Generator:
        """Stream keyed by (seed, *key); stable under reordering of trials."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def radar_target(self, rng: Optional[np.random.Generator] = None) -> RadarTarget:
        """The target on the symbol grid, its gain's phase drawn from rng (0
        without one). ConfigError for a round-trip gain outside [1e-100,
        1e100], a delay outside the Monte-Carlo block or a Doppler shift
        outside (-B/2, B/2]; a delay beyond the guard raises InfeasibleError
        under strict_ambiguity and warns otherwise."""
        tg, s = self.target, self.scenario
        try:
            gain = radar_round_trip_gain(tg.range_m, s.wavelength_m, tg.rcs_m2)
        except OverflowError:            # R^4 above the range of a float
            gain = 0.0
        except ZeroDivisionError:        # R^4 below it
            gain = math.inf
        if not 1e-100 <= gain <= 1e100:    # see _SCHEMA
            raise ConfigError(f"target.range_m={tg.range_m!r} with rcs_m2={tg.rcs_m2!r} "
                              f"gives a round-trip gain of {gain!r}, not in [1e-100, 1e100]")
        try:
            target = RadarTarget.from_geometry(s, tg.range_m, tg.rcs_m2, tg.direction_rad,
                                               tg.radial_velocity_m_s, rng)
            delay = target.delay_symbols
        except OverflowError:            # 2R/c * B above the range of a float
            delay = math.inf
        n_mc = min(s.data_length, self.mc_block_length)
        if delay >= n_mc:
            raise ConfigError(f"target.range_m={tg.range_m!r} gives a round-trip delay of "
                              f"{delay} symbols, not inside the Monte-Carlo block of "
                              f"min(N, experiment.mc_block_length) = {n_mc} symbols")
        half = 0.5 * s.bandwidth_hz
        if not -half < target.doppler_hz <= half:
            raise ConfigError(f"target.radial_velocity_m_s gives a Doppler shift of "
                              f"{target.doppler_hz:.6g} Hz, outside the unambiguous interval "
                              f"(-{half:.6g}, {half:.6g}]")
        _check_guard(delay, s.guard_length, self.strict_ambiguity,
                     prefix=f"target.range_m={tg.range_m!r}: ")
        return target


def _plain(value):
    """value with arrays and tuples as lists and numpy scalars as Python numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def parse_gamma_grid(text: str) -> np.ndarray:
    """Parse "a:b:step" (dB, inclusive endpoints) into a grid."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        start = stop = step = math.nan
    # the step count bounds the memory a short string can ask for
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start
            and (stop - start) / step < 1e4):
        raise ConfigError("experiment.gamma_th_grid_db must be start:stop:step (dB), finite, "
                          f"with step > 0 and 0 <= stop - start < 1e4 steps, got {text!r}")
    return np.arange(start, stop + step / 2.0, step)


@dataclass(frozen=True)
class _Rule:
    """What one JSON field accepts: a JSON type and a range, or a list of them."""

    kind: type                       # int, float, bool or str
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False            # lo itself is out of range
    items: Optional[int] = None      # a list of this many values; 0: any non-empty list


_POSITIVE = _Rule(float, 0, lo_open=True)
# P, sigma^2 = PSD B and the round-trip gain |alpha|^2 meet in the solver's SNR
# scales P ||c||^2 / sigma^2 and |alpha|^2 N P max||g_l||^2 / sigma^2, the first
# values to leave the normal float range 10^+-307 (at the other defaults above
# about 2970 dBm and below -2920 dBm). +-500 dB(m) keeps P / PSD within 10^+-100
# and, with the gain in 10^+-100 (radar_target), leaves 10^+-107 for N M / B.
_DB = _Rule(float, -500, 500)
# Every JSON field by section. The defaults are the dataclasses'; the checks
# that span fields are the dataclasses' and load_config's.
_SCHEMA = {
    "scenario": {"num_antennas": _Rule(int, 1), "bandwidth_hz": _POSITIVE,
                 "carrier_frequency_hz": _POSITIVE, "coherence_time_s": _POSITIVE,
                 "guard_length": _Rule(int, 0), "transmit_power_dbm": _DB,
                 "noise_psd_dbm_hz": _DB},
    # max_subpaths sizes per-path draws: the cap bounds the memory, as the
    # gamma grid's step count is bounded
    "channel": {"num_paths": _Rule(int, 1), "max_subpaths": _Rule(int, 1, 10_000),
                "aod_sector_deg": _Rule(float, items=2)},
    "target": {"range_m": _POSITIVE, "rcs_m2": _POSITIVE, "direction_deg": _Rule(float),
               "radial_velocity_m_s": _Rule(float)},
    "experiment": {"trials": _Rule(int, 1), "seed": _Rule(int, 0, 2 ** 64 - 1),
                   "gamma_th_grid_db": _Rule(float, items=0),  # or "a:b:step"
                   "mc_block_length": _Rule(int, 1),
                   "isac_gamma_fraction": _Rule(float, 0, 1),
                   "sweep_num_paths": _Rule(int, 1, items=0),
                   "ofdm_subcarriers": _Rule(int, 1),
                   "beampattern_aods_deg": _Rule(float, items=0),
                   "modulation": _Rule(str), "strict_ambiguity": _Rule(bool)},
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


def _read(key: str, value, rule: Optional[_Rule]):
    """One JSON value checked against its rule (None: no such field); key
    ("section.field") starts every error message. Integer fields take 64.0
    but not 2.7; no field takes a string for a number or a boolean for
    anything but a boolean."""
    if rule is None:
        raise ConfigError(f"{key}: unknown field")
    if rule.items is not None:
        if not isinstance(value, list) or not value or rule.items not in (0, len(value)):
            raise ConfigError(f"{key} must be a list of {rule.items or 'one or more'} "
                              f"values, got {json.dumps(value)}")
        item = dataclasses.replace(rule, items=None)
        return tuple(_read(f"{key}[{i}]", v, item) for i, v in enumerate(value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if rule.kind in (bool, str):
        ok = isinstance(value, rule.kind)
    else:
        ok = number and (isinstance(value, int) or (
            value.is_integer() if rule.kind is int else math.isfinite(value)))
    if not ok:
        raise ConfigError(f"{key} must be {_TYPE_NAMES[rule.kind]}, got {json.dumps(value)}")
    if not number:
        return value
    if not (rule.lo < value if rule.lo_open else rule.lo <= value) or value > rule.hi:
        bounds = (f"{'>' if rule.lo_open else '>='} {rule.lo}" if rule.hi == math.inf
                  else f"in {'(' if rule.lo_open else '['}{rule.lo}, {rule.hi}]")
        raise ConfigError(f"{key} must be {bounds}, got {json.dumps(value)}")
    try:
        return rule.kind(value)
    except OverflowError:            # an integer beyond the range of a float
        raise ConfigError(f"{key} must be {_TYPE_NAMES[float]}, got {value}") from None


def load_config(path=None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON experiment config; omitted fields keep the dataclass defaults.

    overrides maps experiment fields to values that replace the file's (the
    CLI flags) and pass the same checks. dBm and degree fields are converted
    to watts and radians here, at the boundary. Every ConfigError message
    starts with the section.field it is about.
    """
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except (OSError, ValueError) as e:   # unreadable, not UTF-8, or a huge integer
            raise ConfigError(f"config file cannot be read: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for section in sorted(set(doc) - set(_SCHEMA)):
        raise ConfigError(f"{section}: unknown config section")
    given = []
    for section, rules in _SCHEMA.items():
        raw = doc.get(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{section} must be a JSON object, got {json.dumps(raw)}")
        if section == "experiment":
            raw = {**raw, **(overrides or {})}
        given.append({name: parse_gamma_grid(value) if isinstance(value, str)
                      and name == "gamma_th_grid_db"
                      else _read(f"{section}.{name}", value, rules.get(name))
                      for name, value in raw.items()})
    sc, ch, tg, ex = given

    default = ScenarioConfig.mmwave_default()
    psd = (float(dbm_to_watt(sc.pop("noise_psd_dbm_hz"))) if "noise_psd_dbm_hz" in sc
           else default.noise_power_w / default.bandwidth_hz)
    if "transmit_power_dbm" in sc:
        sc["transmit_power_w"] = float(dbm_to_watt(sc.pop("transmit_power_dbm")))
    fields = {**dataclasses.asdict(default), **sc}
    fields["noise_power_w"] = psd * fields["bandwidth_hz"]
    scenario = ScenarioConfig(**fields)
    if "aod_sector_deg" in ch:
        ch["aod_sector"] = tuple(np.deg2rad(ch.pop("aod_sector_deg")).tolist())
    if "direction_deg" in tg:
        tg["direction_rad"] = float(np.deg2rad(tg.pop("direction_deg")))
    if "gamma_th_grid_db" in ex:
        grid = ex["gamma_th_grid_db"] = np.asarray(ex["gamma_th_grid_db"], dtype=float)
        with np.errstate(over="ignore"):
            big = grid[~np.isfinite(10.0 ** (grid / 10.0))]
        if big.size:
            raise ConfigError(f"experiment.gamma_th_grid_db: {float(big[0])!r} dB has a linear "
                              "floor 10^(g/10) beyond the range of a float")
    cfg = ExperimentConfig(scenario=scenario, channel_gen=ChannelGenConfig(**ch),
                           target=TargetConfig(**tg), **ex)
    try:
        waveform._psk_order(cfg.modulation)
    except ValueError as e:
        raise ConfigError(f"experiment.modulation: {e}") from None
    return cfg


def _header_lines(cfg: ExperimentConfig, extra=()) -> List[str]:
    s = cfg.scenario
    lines = [f"config_hash={cfg.config_hash()} seed={cfg.seed}",
             f"n_c={s.block_length} n_p={s.guard_length} n={s.data_length}"]
    lines.extend(extra)
    return lines


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows, extra=()):
    """The '#' header lines, then the column names and each row of values,
    every cell through _fmt."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, extra):
            fh.write(f"# {line}\n")
        csv.writer(fh).writerows([_fmt(v) for v in row] for row in [header, *rows])


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


@dataclass
class BeampatternResult:
    angles_deg: np.ndarray
    comm_db: np.ndarray
    sensing_db: np.ndarray
    isac_db: np.ndarray
    isac_first_path_db: np.ndarray
    gamma_zf_max: float
    gamma_th: float
    solver_status: str


def _pattern_db(beam_matrix: np.ndarray, angles_rad: np.ndarray,
                columns=None) -> np.ndarray:
    """sum_l |a^H f_l|^2 in dB over the chosen columns, floored at the rounding
    bound of a^H f, (M eps)^2 M sum_l ||f_l||^2: below it a value is rounding,
    not pattern (zero-forcing nulls), and would move between equal designs."""
    m = beam_matrix.shape[0]
    resp = np.conj(steering_vector(angles_rad, m)) @ beam_matrix   # (n_angles, L): a^H f_l
    if columns is not None:
        resp, beam_matrix = resp[:, columns], beam_matrix[:, columns]
    power = np.sum(np.abs(resp) ** 2, axis=1)
    floor = (m * np.finfo(float).eps) ** 2 * m * np.sum(np.abs(beam_matrix) ** 2)
    return 10.0 * np.log10(np.maximum(power, max(floor, 1e-300)))


def run_beampattern(cfg: ExperimentConfig) -> BeampatternResult:
    """Transmit patterns of the three designs over a fixed-geometry channel.

    The channel has one unit plane wave per configured direction; the sensing
    threshold for the trade-off design is isac_gamma_fraction of the
    zero-forcing ceiling.
    """
    s = cfg.scenario
    target = cfg.radar_target()
    directions = np.deg2rad(np.asarray(cfg.beampattern_aods_deg, dtype=float))
    channel = MultipathChannel.from_directions(
        directions, np.arange(directions.size), s.num_antennas)
    # zero-forcing's rank rule: below full rank a design is rounding over rounding
    if np.linalg.matrix_rank(channel.path_vectors) < directions.size:
        raise ConfigError(f"experiment.beampattern_aods_deg={list(cfg.beampattern_aods_deg)}"
                          " has linearly dependent steering vectors (a repeat, or -90 and 90)")
    problem = beamforming.IsacProblem(channel, target.direction, target.gain,
                                      s.data_length, s.transmit_power_w,
                                      s.noise_power_w)
    gamma_zf = problem.gamma_zf_max
    gamma_th = cfg.isac_gamma_fraction * gamma_zf
    sol = problem.solve(gamma_th)
    angles_deg = np.arange(-90.0, 90.0 + 0.25, 0.5)
    angles_rad = np.deg2rad(angles_deg)
    result = BeampatternResult(
        angles_deg=angles_deg,
        comm_db=_pattern_db(problem.solve(0.0).beamformer.beam_matrix, angles_rad),
        sensing_db=_pattern_db(problem.solve(gamma_zf).beamformer.beam_matrix, angles_rad),
        isac_db=_pattern_db(sol.beamformer.beam_matrix, angles_rad),
        isac_first_path_db=_pattern_db(sol.beamformer.beam_matrix, angles_rad,
                                       columns=[0]),
        gamma_zf_max=gamma_zf, gamma_th=gamma_th, solver_status=sol.status)
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "beampattern.csv", cfg,
                   ["angle_deg", "comm_db", "sensing_db", "isac_db", "isac_first_path_db"],
                   zip(result.angles_deg, result.comm_db, result.sensing_db,
                       result.isac_db, result.isac_first_path_db),
                   extra=[f"gamma_zf_max_db={linear_to_db(gamma_zf):.6f} "
                          f"gamma_th_db={linear_to_db(max(gamma_th, 1e-300)):.6f} "
                          f"solver_status={sol.status}"])
    return result


# (channel, floor) rows per solve_batch call in run_se_sweep: a call takes
# max(1, _SWEEP_ROWS // G) channels, so its memory does not grow with trials
_SWEEP_ROWS = 256


def run_se_sweep(cfg: ExperimentConfig) -> List[dict]:
    """Mean spectral efficiency of the trade-off design over random channels,
    per sensing threshold and per path count.

    SE per realization is (N / N_c) log2(1 + gamma_c), with gamma_c from the
    audit `solve_batch` reports for each design; realizations whose
    zero-forcing ceiling falls below the threshold are counted as infeasible
    and excluded from the mean, which is nan where no realization is feasible.
    """
    s = cfg.scenario
    n = s.data_length
    grid_lin = 10.0 ** (np.asarray(cfg.gamma_th_grid_db, dtype=float) / 10.0)
    target = cfg.radar_target()
    chunk = max(1, _SWEEP_ROWS // grid_lin.size)
    rows = []
    for li, num_paths in enumerate(cfg.sweep_num_paths):
        gen = dataclasses.replace(cfg.channel_gen, num_paths=num_paths)
        se_sum = np.zeros(grid_lin.size)
        feasible = np.zeros(grid_lin.size, dtype=int)
        for start in range(0, cfg.trials, chunk):
            channels = generate_multipath_channels(
                s, gen, [cfg.rng(0, li, trial)
                         for trial in range(start, min(start + chunk, cfg.trials))])
            sol = beamforming.solve_batch(channels, target.direction, target.gain, n,
                                          s.transmit_power_w, s.noise_power_w, grid_lin)
            se = (n / s.block_length) * np.log2(1.0 + sol.gamma_c)
            se_sum += np.where(sol.feasible, se, 0.0).sum(axis=0)
            feasible += sol.feasible.sum(axis=0)
        mean_se = np.divide(se_sum, feasible, out=np.full(grid_lin.size, np.nan),
                            where=feasible > 0)
        for gi, g_db in enumerate(cfg.gamma_th_grid_db):
            rows.append({"gamma_th_db": float(g_db), "num_paths": num_paths,
                         "mean_se_bps_hz": float(mean_se[gi]),
                         "feasible": int(feasible[gi]),
                         "infeasible": int(cfg.trials - feasible[gi])})
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "se_sweep.csv", cfg, list(rows[0]),
                   map(dict.values, rows), extra=[f"trials={cfg.trials}"])
    return rows


def _echo_snr(clean: np.ndarray, noise_power: float) -> float:
    """||clean||^2 / noise_power: the output SNR of the filter matched to the
    noise-free echo in white noise of that variance per sample (Turin 1960), by
    Cauchy-Schwarz the template form |<u, clean>|^2 / (noise_power ||u||^2) for
    any u proportional to clean. The sum is numpy's pairwise one, not a BLAS dot
    product, whose rounding depends on the number of threads it is split over."""
    return float(np.sum(clean.real ** 2 + clean.imag ** 2) / noise_power)


def run_dd_map(cfg: ExperimentConfig) -> dict:
    """Full sensing pipeline on one random channel realization.

    A trade-off beamformer is designed at isac_gamma_fraction of the ZF
    ceiling, a block of mc_block_length symbols is transmitted, the target
    echo is matched-filtered over the delays up to the guard (or up to the
    target, when it lies beyond the guard) whose templates hold energy and a
    Doppler window of +-8 resolution bins around the true shift (clipped to
    (-B/2, B/2]). The SNR ||s||^2 / sigma^2 of the simulated noise-free echo s
    is reported beside the closed-form value, 0 for a truth past every delay
    that keeps energy in the block; `trials` is not read. Returns the row of
    dd_report.csv as a dict.
    """
    s = cfg.scenario
    target = cfg.radar_target(cfg.rng(1, 1))
    channel, = generate_multipath_channels(s, cfg.channel_gen, [cfg.rng(1, 0)])
    problem = beamforming.IsacProblem(channel, target.direction, target.gain,
                                      s.data_length, s.transmit_power_w,
                                      s.noise_power_w)
    gamma_th = cfg.isac_gamma_fraction * problem.gamma_zf_max
    sol = problem.solve(gamma_th)
    bf = sol.beamformer

    n_mc = min(s.data_length, cfg.mc_block_length)
    block = waveform.generate_symbols(cfg.rng(1, 2), n_mc, cfg.modulation)
    t_s = s.symbol_duration_s
    # the noise-free echo of the transmit the target sees, through the round
    # trip of apply_radar_channel, whose public entry bench/tracer.py sizes as
    # an (M, N) block: the map adds one noise draw to it, the SNR needs none
    seen = waveform.projected_dam_block(block, bf, target.direction)
    if not seen.any():
        raise ConfigError(f"experiment.mc_block_length={cfg.mc_block_length}: the design's "
                          "streams toward the target all start past the block's end")
    clean = _round_trip(target, seen, t_s)
    echo = clean + complex_normal(cfg.rng(1, 3), clean.shape, s.noise_power_w)

    res = 1.0 / (n_mc * t_s)
    # every delay in [0, max(guard, true delay)] whose template holds energy:
    # up to the one that leaves seen's first nonzero sample in the block
    last = n_mc - 1 - int(np.argmax(seen != 0))
    grid = sensing.SensingGrid.refine(0, res * round(target.doppler_hz / res), n_mc, t_s,
                                      delay_half_width=min(max(s.guard_length,
                                                               target.delay_symbols), last))
    ddmap = sensing.delay_doppler_map(echo, bf, block, target.direction, grid)
    est_delay, est_doppler, _ = sensing.estimate_delay_doppler(ddmap)

    report = {
        "true_delay_bin": target.delay_symbols, "est_delay_bin": est_delay,
        "true_doppler_hz": target.doppler_hz, "est_doppler_hz": est_doppler,
        "gamma_p_analytic_mc": sensing.sensing_snr(bf.beam_matrix, target.direction,
                                                   target.gain, n_mc, s.noise_power_w),
        "gamma_p_empirical": _echo_snr(clean, s.noise_power_w),
        "gamma_p_analytic_full": sol.gamma_p,
        "gamma_th": gamma_th, "solver_status": sol.status, "mc_block_length": n_mc}
    if cfg.output_dir is not None:
        # the map's cells as |r|^2 in dB, one row per delay bin
        p_db = 10.0 * np.log10(np.maximum(ddmap.power(), 1e-300))
        _write_csv(Path(cfg.output_dir) / "dd_map.csv", cfg,
                   ["delay_bin", *grid.doppler_bins_hz],
                   ([d, *row] for d, row in zip(grid.delay_bins, p_db)),
                   extra=[f"n_mc={n_mc}"])
        _write_csv(Path(cfg.output_dir) / "dd_report.csv", cfg, list(report),
                   [report.values()])
    return report


# fast-target trials per peak pick in run_ofdm_compare: a chunk holds its
# trials' P x Q cells, so the run's memory does not grow with `trials`
_CELL_CHUNK = 256


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """The Hermitian square root C = V sqrt(max(Lambda, 0)) V^H of a Gram
    matrix G = V Lambda V^H, so that C z is CN(0, s G) for z ~ CN(0, s I).
    Unlike the factor V sqrt(Lambda), it is continuous in G: a rounding change
    in G cannot turn the draws within a cluster of near-equal eigenvalues."""
    lam, v = np.linalg.eigh(gram)
    return (v * np.sqrt(np.maximum(lam, 0.0))) @ v.conj().T


def run_ofdm_compare(cfg: ExperimentConfig) -> List[dict]:
    """Aligned waveform vs. OFDM radar at matched scenario parameters.

    One target, one DAM symbol block and one OFDM grid, whose transmits, as the
    target sees them, go through the same round trip (apply_radar_channel's);
    the OFDM receiver drops each cyclic prefix and takes a K-point DFT. Each
    scheme steers all its power at the target (average-power regime) and gets
    its analytic output SNR and that of its simulated echo s through its
    matched filter, ||s||^2 over the noise per sample or per OFDM cell. Under
    a peak-power limit that design is derated by its PAPR bound, L streams or
    K subcarriers: its beams are scaled by 1/sqrt(L) or 1/sqrt(K), so both of
    its SNRs are the full-power ones over L or K (peak-power regime). Per
    scheme: the PAPR of the M-row transmit, the ambiguity limits, and a
    paired fast-target demo at twice the subcarrier spacing, inside the
    aligned waveform's unambiguous Doppler span but far beyond OFDM's. Every
    design is steered, x[n] = a(theta) u[n], so the M-row PAPR is that of the
    sequence a^H x[n] = M u[n] the target sees.

    Each DAM fast-target trial is drawn in the P x Q cells of the matched
    filter's window, not in the N echo samples: white noise through the unit-norm
    templates T makes the cells CN(T^H clean, sigma^2 T^H T), so a trial is the
    noise-free map plus C z for the trial's own keyed P Q normals z, with C the
    Hermitian root of the Gram matrix, which sensing.template_gram takes from
    one lag product of the waveform with itself. The trials go
    through the peak pick _CELL_CHUNK at a time. The OFDM rate is 0 without a
    trial.

    Returns the rows of ofdm_compare.csv, one dict per (scheme, regime), whose
    papr_empirical and doppler_recovery_rate cells carry each scheme's PAPR
    and fast-target hit rate.
    """
    s = cfg.scenario
    n_mc = min(s.data_length, cfg.mc_block_length)
    scen_mc = dataclasses.replace(
        s, coherence_time_s=(n_mc + s.guard_length) * s.symbol_duration_s)
    t_s = s.symbol_duration_s
    k = cfg.ofdm_subcarriers
    target = cfg.radar_target(cfg.rng(2, 0))
    theta = target.direction
    num_paths = cfg.channel_gen.num_paths
    m = s.num_antennas
    sigma2 = s.noise_power_w

    if k > n_mc:
        raise ConfigError(f"experiment.ofdm_subcarriers must be <= {n_mc}, the Monte-Carlo "
                          f"block length min(N, mc_block_length), got {k}")
    if k < 4:
        raise ConfigError(f"experiment.ofdm_subcarriers must be >= 4, so that the fast "
                          f"target's Doppler 2B/K lies within (-B/2, B/2], got {k}")
    a = steering_vector(theta, m)
    bf_full = waveform.DamBeamformer.steered(theta, m, s.transmit_power_w, np.arange(num_paths))
    ocfg = ofdm.OfdmConfig.steered(scen_mc, k, theta)
    i_sym = ocfg.symbols_per_block

    # Fast-target demo: Doppler at twice the subcarrier spacing.
    f_fast = 2.0 * ocfg.subcarrier_spacing_hz
    fast = dataclasses.replace(target, doppler_hz=f_fast)

    # One DAM symbol block serves every DAM design and the fast target, one OFDM
    # grid every OFDM design. Every echo is built from the transmit the target
    # sees, a^H(theta) x[n]: the DAM block's projection (a^H F) S and the stream
    # of the one-row OFDM beamformer a^H W. No M-row transmit is built: with
    # x[n] = a(theta) u[n], each PAPR is that of the sequence the target sees.
    block = waveform.generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation)
    dam_seen = waveform.projected_dam_block(block, bf_full, theta)
    dam_clean, clean = (_round_trip(tgt, dam_seen, t_s) for tgt in (target, fast))
    papr_dam = waveform.papr_empirical(dam_seen)
    tx_freq = waveform.generate_symbols(cfg.rng(2, 2), k * i_sym,
                                        cfg.modulation).symbols.reshape(k, i_sym, order="F")
    ocfg_seen = dataclasses.replace(ocfg, beamformers=np.conj(a)[None] @ ocfg.beamformers)
    ofdm_seen = ofdm.ofdm_time_domain(ocfg_seen, tx_freq)[0]
    ofdm_clean = ofdm.ofdm_demodulate(ocfg, _round_trip(target, ofdm_seen, t_s))
    papr_ofdm = waveform.papr_empirical(ofdm_seen)

    res = 1.0 / (n_mc * t_s)
    grid = sensing.SensingGrid.refine(target.delay_symbols, res * round(f_fast / res),
                                      n_mc, t_s, delay_half_width=3)
    # trial t's cells: the noise-free map plus C z_t, z_t the P Q normals of its
    # keyed stream (see the docstring)
    mean = sensing.delay_doppler_map(clean, bf_full, block, theta, grid).values.ravel()
    root_t = _gram_root(sensing.template_gram(dam_seen, grid)).T
    dam_hits = 0
    for start in range(0, cfg.trials, _CELL_CHUNK):
        z = np.stack([complex_normal(cfg.rng(2, 9, t), mean.size, sigma2)
                      for t in range(start, min(start + _CELL_CHUNK, cfg.trials))])
        ddmap = sensing.DelayDopplerMap((mean + z @ root_t).reshape((-1,) + grid.shape), grid)
        _, f_hat, _ = sensing.estimate_delay_doppler(ddmap)
        dam_hits += int(np.count_nonzero(np.abs(f_hat - f_fast) <= res))

    # per scheme, with the analytic and simulated-echo output SNRs of its
    # full-power design; the OFDM noise is sigma^2 / K per cell
    schemes = {
        "dam": (num_paths, n_mc, sensing.dam_ambiguity_limits(scen_mc), papr_dam,
                dam_hits / cfg.trials,
                sensing.sensing_snr(bf_full.beam_matrix, theta, target.gain, n_mc, sigma2),
                _echo_snr(dam_clean, sigma2)),
        # OFDM estimates are fftfreq(I, (K + N_p) T_s) bins, < df/2 from 0: none
        # within df of 2 df
        "ofdm": (k, i_sym, ofdm.ofdm_ambiguity_limits(ocfg, s.wavelength_m), papr_ofdm, 0.0,
                 sensing.sensing_snr(ocfg.beamformers, theta, target.gain, i_sym, sigma2 / k),
                 _echo_snr(ofdm_clean, sigma2 / k)),
    }
    rows = []
    for scheme, (k_or_l, i_or_n, lim, papr, rate, analytic, empirical) in schemes.items():
        for regime, derate in (("average_power", 1), ("peak_power", k_or_l)):
            rows.append({"scheme": scheme, "regime": regime, "k_or_l": k_or_l,
                         "i_or_n": i_or_n, "analytic_snr_db": linear_to_db(analytic / derate),
                         "empirical_snr_db": linear_to_db(empirical / derate),
                         "max_range_m": lim.max_range_m,
                         "max_velocity_m_s": lim.max_velocity_m_s,
                         "range_resolution_m": lim.range_resolution_m,
                         "velocity_resolution_m_s": lim.velocity_resolution_m_s,
                         "papr_empirical": papr, "doppler_recovery_rate": rate})
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "ofdm_compare.csv", cfg,
                   list(rows[0]), map(dict.values, rows),
                   extra=[f"n_mc={n_mc} peak_snr_ratio={n_mc / (num_paths * i_sym)!r} "
                          f"fast_doppler_hz={f_fast!r}"])
    return rows
