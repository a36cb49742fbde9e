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
                      ScenarioConfig, _check_guard, apply_radar_channel, complex_normal,
                      generate_multipath_channel, radar_round_trip_gain,
                      steering_vector)
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
        without one). ConfigError for a round-trip gain that is not a positive
        finite number, a delay outside the Monte-Carlo block or a Doppler shift
        outside (-B/2, B/2]; a delay beyond the guard raises InfeasibleError
        under strict_ambiguity and warns otherwise."""
        tg, s = self.target, self.scenario
        try:
            gain = radar_round_trip_gain(tg.range_m, s.wavelength_m, tg.rcs_m2)
        except OverflowError:            # R^4 above the range of a float
            gain = 0.0
        except ZeroDivisionError:        # R^4 below it
            gain = math.inf
        if not 0 < gain < math.inf:
            raise ConfigError(f"target.range_m={tg.range_m!r} with rcs_m2={tg.rcs_m2!r} "
                              f"gives a round-trip gain of {gain!r}, not a positive finite "
                              "number")
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
# Every JSON field by section. The defaults are the dataclasses'; the checks
# that span fields are the dataclasses' and load_config's.
_SCHEMA = {
    "scenario": {"num_antennas": _Rule(int, 1), "bandwidth_hz": _POSITIVE,
                 "carrier_frequency_hz": _POSITIVE, "coherence_time_s": _POSITIVE,
                 "guard_time_s": _Rule(float, 0), "guard_length": _Rule(int, 0),
                 "transmit_power_dbm": _Rule(float), "noise_psd_dbm_hz": _Rule(float)},
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
    guard_time = sc.pop("guard_time_s", None if "guard_length" in sc else default.guard_time_s)
    fields = {**dataclasses.asdict(default), **sc}
    fields["noise_power_w"] = psd * fields["bandwidth_hz"]
    if guard_time is None:
        scenario = ScenarioConfig(**fields)
    else:
        del fields["guard_length"]
        scenario = ScenarioConfig.from_timing(guard_time_s=guard_time, **fields)
        if sc.get("guard_length", scenario.guard_length) != scenario.guard_length:
            raise ConfigError(f"scenario.guard_length={sc['guard_length']} inconsistent "
                              f"with guard_time_s*bandwidth_hz={scenario.guard_length}")
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


def _write_csv(path: Path, cfg: ExperimentConfig, fieldnames, rows, extra=()):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, extra):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


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
    steering = np.stack([steering_vector(theta, m) for theta in angles_rad])
    resp = np.conj(steering) @ beam_matrix            # (n_angles, L): a^H f_l
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
        comm_db=_pattern_db(problem.mrt.beam_matrix, angles_rad),
        sensing_db=_pattern_db(problem.sensing.beam_matrix, angles_rad),
        isac_db=_pattern_db(sol.beamformer.beam_matrix, angles_rad),
        isac_first_path_db=_pattern_db(sol.beamformer.beam_matrix, angles_rad,
                                       columns=[0]),
        gamma_zf_max=gamma_zf, gamma_th=gamma_th, solver_status=sol.status)
    if cfg.output_dir is not None:
        rows = [{"angle_deg": a, "comm_db": c, "sensing_db": v, "isac_db": i,
                 "isac_first_path_db": f}
                for a, c, v, i, f in zip(result.angles_deg, result.comm_db,
                                         result.sensing_db, result.isac_db,
                                         result.isac_first_path_db)]
        _write_csv(Path(cfg.output_dir) / "beampattern.csv", cfg,
                   ["angle_deg", "comm_db", "sensing_db", "isac_db",
                    "isac_first_path_db"], rows,
                   extra=[f"gamma_zf_max_db={linear_to_db(gamma_zf):.6f} "
                          f"gamma_th_db={linear_to_db(max(gamma_th, 1e-300)):.6f} "
                          f"solver_status={sol.status}"])
    return result


def run_se_sweep(cfg: ExperimentConfig) -> List[dict]:
    """Mean spectral efficiency of the trade-off design over random channels,
    per sensing threshold and per path count.

    SE per realization is (N / N_c) log2(1 + gamma_c) with gamma_c recomputed
    by the constraint audit; realizations whose zero-forcing ceiling falls
    below the threshold are counted as infeasible and excluded from the mean.
    """
    s = cfg.scenario
    n = s.data_length
    grid_lin = 10.0 ** (np.asarray(cfg.gamma_th_grid_db, dtype=float) / 10.0)
    target = cfg.radar_target()
    rows = []
    for li, num_paths in enumerate(cfg.sweep_num_paths):
        gen = dataclasses.replace(cfg.channel_gen, num_paths=num_paths)
        se_sum = np.zeros(grid_lin.size)
        feasible = np.zeros(grid_lin.size, dtype=int)
        infeasible = np.zeros(grid_lin.size, dtype=int)
        for trial in range(cfg.trials):
            channel = generate_multipath_channel(s, gen, cfg.rng(0, li, trial))
            problem = beamforming.IsacProblem(
                channel, target.direction, target.gain, n, s.transmit_power_w,
                s.noise_power_w)
            for gi, gamma_th in enumerate(grid_lin):
                sol = problem.solve(float(gamma_th))
                if sol.status == "infeasible":
                    infeasible[gi] += 1
                    continue
                se = (n / s.block_length) * np.log2(1.0 + sol.gamma_c)
                se_sum[gi] += se
                feasible[gi] += 1
        for gi, g_db in enumerate(cfg.gamma_th_grid_db):
            rows.append({"gamma_th_db": float(g_db), "num_paths": num_paths,
                         "mean_se_bps_hz": se_sum[gi] / max(feasible[gi], 1),
                         "feasible": int(feasible[gi]),
                         "infeasible": int(infeasible[gi])})
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "se_sweep.csv", cfg,
                   ["gamma_th_db", "num_paths", "mean_se_bps_hz", "feasible",
                    "infeasible"], rows,
                   extra=[f"trials={cfg.trials}"])
    return rows


def _empirical_snr(template: np.ndarray, clean: np.ndarray, noise_power: float,
                   rngs) -> float:
    """Monte-Carlo peak-cell SNR |<u, clean>|^2 / mean |<u, z>|^2 of the unit
    template u, with one CN(0, noise_power) draw z shaped like clean per
    generator: the matched filter is linear, so no trial rebuilds its echo."""
    signal = np.vdot(template, clean)
    noise = [np.vdot(template, complex_normal(rng, clean.shape, noise_power))
             for rng in rngs]
    return float(np.abs(signal) ** 2 / np.mean(np.abs(noise) ** 2))


@dataclass
class DdMapReport:
    true_delay_bin: int
    est_delay_bin: int
    true_doppler_hz: float
    est_doppler_hz: float
    gamma_p_analytic_mc: float
    gamma_p_empirical: float
    gamma_p_analytic_full: float
    gamma_th: float
    solver_status: str
    mc_block_length: int


def run_dd_map(cfg: ExperimentConfig) -> DdMapReport:
    """Full sensing pipeline on one random channel realization.

    A trade-off beamformer is designed at isac_gamma_fraction of the ZF
    ceiling, a block of mc_block_length symbols is transmitted, the target
    echo is matched-filtered over the delays up to the guard (or up to the
    target, when it lies beyond the guard) inside the block and a Doppler
    window of +-8 resolution bins around the true shift (clipped to
    (-B/2, B/2]), and the peak-cell SNR is measured over `trials` fresh noise draws against
    the closed-form value.
    """
    s = cfg.scenario
    target = cfg.radar_target(cfg.rng(1, 1))
    channel = generate_multipath_channel(s, cfg.channel_gen, cfg.rng(1, 0))
    problem = beamforming.IsacProblem(channel, target.direction, target.gain,
                                      s.data_length, s.transmit_power_w,
                                      s.noise_power_w)
    gamma_th = cfg.isac_gamma_fraction * problem.gamma_zf_max
    sol = problem.solve(gamma_th)
    bf = sol.beamformer

    n_mc = min(s.data_length, cfg.mc_block_length)
    block = waveform.generate_symbols(cfg.rng(1, 2), n_mc, cfg.modulation)
    tx = waveform.build_dam_block(block, bf)
    t_s = s.symbol_duration_s
    # the noise-free echo, built once: the map's and each trial's noise add to it
    clean = apply_radar_channel(target, tx, t_s)
    echo = clean + complex_normal(cfg.rng(1, 3), clean.shape, s.noise_power_w)

    res = 1.0 / (n_mc * t_s)
    # every delay in [0, max(guard, true delay)] inside the block
    grid = sensing.SensingGrid.refine(0, res * round(target.doppler_hz / res), n_mc, t_s,
                                      delay_half_width=max(s.guard_length,
                                                           target.delay_symbols))
    ddmap = sensing.delay_doppler_map(echo, bf, block, target.direction, grid)
    est_delay, est_doppler, _ = sensing.estimate_delay_doppler(ddmap)

    template = sensing.matched_filter_template(
        bf, block, target.direction, target.delay_symbols, target.doppler_hz, t_s)
    gamma_emp = _empirical_snr(template, clean, s.noise_power_w,
                               (cfg.rng(1, 4 + t) for t in range(cfg.trials)))

    report = DdMapReport(
        true_delay_bin=target.delay_symbols, est_delay_bin=est_delay,
        true_doppler_hz=target.doppler_hz, est_doppler_hz=est_doppler,
        gamma_p_analytic_mc=sensing.sensing_snr(bf.beam_matrix, target.direction,
                                                target.gain, n_mc, s.noise_power_w),
        gamma_p_empirical=gamma_emp,
        gamma_p_analytic_full=sol.gamma_p,
        gamma_th=gamma_th, solver_status=sol.status, mc_block_length=n_mc)
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        sensing.export_map_csv(out / "dd_map.csv", ddmap,
                               comments=_header_lines(cfg, [f"n_mc={n_mc}"]))
        _write_csv(out / "dd_report.csv", cfg,
                   list(dataclasses.asdict(report)), [dataclasses.asdict(report)])
    return report


@dataclass
class OfdmCompareResult:
    rows: List[dict]
    dam_doppler_hit_rate: float
    ofdm_doppler_hit_rate: float
    papr_dam: float
    papr_ofdm: float


def run_ofdm_compare(cfg: ExperimentConfig) -> OfdmCompareResult:
    """Aligned waveform vs. OFDM radar at matched scenario parameters.

    One target, one DAM symbol block and one OFDM grid. Each scheme steers all
    its power at the target, in full (average-power regime) or derated by its
    PAPR bound, L streams or K subcarriers (peak-power regime); every design
    gets its analytic and Monte-Carlo output SNR. Per scheme: the PAPR of the
    transmitted signal, the ambiguity limits, and a paired fast-target demo at
    twice the subcarrier spacing, inside the aligned waveform's unambiguous
    Doppler span but far beyond OFDM's.
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
    power = s.transmit_power_w
    sigma2 = s.noise_power_w

    if k > n_mc:
        raise ConfigError(f"experiment.ofdm_subcarriers must be <= {n_mc}, the Monte-Carlo "
                          f"block length min(N, mc_block_length), got {k}")
    if k < 4:
        raise ConfigError(f"experiment.ofdm_subcarriers must be >= 4, so that the fast "
                          f"target's Doppler 2B/K lies within (-B/2, B/2], got {k}")
    a = steering_vector(theta, m)
    f_full = np.sqrt(power / (m * num_paths)) * np.tile(a[:, None], (1, num_paths))
    bf_full = waveform.DamBeamformer.aligned(f_full, np.arange(num_paths))
    bf_derated = waveform.DamBeamformer.aligned(f_full / np.sqrt(num_paths),
                                                np.arange(num_paths))
    ocfg = ofdm.OfdmConfig.steered(scen_mc, k, theta)
    ocfg_derated = ofdm.OfdmConfig.steered(scen_mc, k, theta, total_power=power / k)
    i_sym = ocfg.symbols_per_block

    # one DAM symbol block and one OFDM grid serve every design and the fast target
    block = waveform.generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation)
    tx_dam = waveform.build_dam_block(block, bf_full)
    tx_freq = waveform.generate_symbols(cfg.rng(2, 2), k * i_sym,
                                        cfg.modulation).symbols.reshape(k, i_sym, order="F")

    # (analytic, Monte-Carlo) output SNR of one design, one noise draw per generator
    def dam_snr(bf, rngs):
        tx = tx_dam if bf is bf_full else waveform.build_dam_block(block, bf)
        template = sensing.matched_filter_template(
            bf, block, theta, target.delay_symbols, target.doppler_hz, t_s)
        return (sensing.sensing_snr(bf.beam_matrix, theta, target.gain, n_mc, sigma2),
                _empirical_snr(template, apply_radar_channel(target, tx, t_s), sigma2, rngs))

    def ofdm_snr(config, rngs):
        # the unit-gain echo, normalized, is the matched filter
        template = ofdm.ofdm_radar_rx(config, dataclasses.replace(target, gain=1.0 + 0j),
                                      tx_freq)
        return (ofdm.ofdm_output_snr(config, theta, target.gain, sigma2),
                _empirical_snr(template / np.linalg.norm(template),
                               ofdm.ofdm_radar_rx(config, target, tx_freq), sigma2 / k, rngs))

    # Before the fast-target trials: in the reverse order the default run was
    # measured about 25 % slower. Monte-Carlo streams rng(2, 3..6, t): average
    # DAM, OFDM, then peak.
    designs = {"dam": (dam_snr, bf_full, bf_derated), "ofdm": (ofdm_snr, ocfg, ocfg_derated)}
    snrs = {(scheme, regime): snr(design, (cfg.rng(2, 3 + si + 2 * ri, t)
                                           for t in range(cfg.trials)))
            for si, (scheme, (snr, *pair)) in enumerate(designs.items())
            for ri, (regime, design) in enumerate(zip(("average_power", "peak_power"), pair))}

    # Fast-target demo: Doppler at twice the subcarrier spacing.
    f_fast = 2.0 * ocfg.subcarrier_spacing_hz
    fast = dataclasses.replace(target, doppler_hz=f_fast)
    res = 1.0 / (n_mc * t_s)
    grid = sensing.SensingGrid.refine(target.delay_symbols, res * round(f_fast / res),
                                      n_mc, t_s, delay_half_width=3)
    # noise-free echoes, built once; each trial adds its own keyed noise draw
    clean = apply_radar_channel(fast, tx_dam, t_s)
    oclean = ofdm.ofdm_radar_rx(ocfg, fast, tx_freq)
    dam_hits = 0
    ofdm_hits = 0
    for t in range(cfg.trials):
        echo = clean + complex_normal(cfg.rng(2, 9, t), clean.shape, sigma2)
        ddmap = sensing.delay_doppler_map(echo, bf_full, block, theta, grid)
        _, f_hat, _ = sensing.estimate_delay_doppler(ddmap)
        if abs(f_hat - f_fast) <= res:
            dam_hits += 1
        oecho = oclean + complex_normal(cfg.rng(2, 10, t), oclean.shape, sigma2 / k)
        _, f_hat_o, _ = ofdm.ofdm_delay_doppler_estimate(oecho, ocfg, tx_freq)
        if abs(f_hat_o - f_fast) <= ocfg.subcarrier_spacing_hz:
            ofdm_hits += 1

    dam_rate, ofdm_rate = dam_hits / cfg.trials, ofdm_hits / cfg.trials
    papr_dam = waveform.papr_empirical(tx_dam)
    papr_ofdm = waveform.papr_empirical(ofdm.ofdm_time_domain(tx_freq, ocfg.guard_length))
    schemes = {
        "dam": (num_paths, n_mc, sensing.dam_ambiguity_limits(scen_mc), papr_dam, dam_rate),
        "ofdm": (k, i_sym, ofdm.ofdm_ambiguity_limits(ocfg, s.wavelength_m), papr_ofdm,
                 ofdm_rate),
    }
    rows = []
    for (scheme, regime), (analytic, empirical) in snrs.items():
        k_or_l, i_or_n, lim, papr, rate = schemes[scheme]
        rows.append({"scheme": scheme, "regime": regime, "k_or_l": k_or_l, "i_or_n": i_or_n,
                     "analytic_snr_db": linear_to_db(analytic),
                     "empirical_snr_db": linear_to_db(empirical),
                     "max_range_m": lim.max_range_m,
                     "max_velocity_m_s": lim.max_velocity_m_s,
                     "range_resolution_m": lim.range_resolution_m,
                     "velocity_resolution_m_s": lim.velocity_resolution_m_s,
                     "papr_empirical": papr, "doppler_recovery_rate": rate})
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "ofdm_compare.csv", cfg,
                   list(rows[0]), rows,
                   extra=[f"n_mc={n_mc} peak_snr_ratio={n_mc / (num_paths * i_sym)!r} "
                          f"fast_doppler_hz={f_fast!r}"])
    return OfdmCompareResult(rows=rows, dam_doppler_hit_rate=dam_rate,
                             ofdm_doppler_hit_rate=ofdm_rate,
                             papr_dam=papr_dam, papr_ofdm=papr_ofdm)
