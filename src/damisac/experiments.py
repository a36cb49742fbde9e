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
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
from scipy.signal import find_peaks

from . import beamforming, ofdm, sensing, waveform
from .channel import (ChannelGenConfig, MultipathChannel, RadarTarget,
                      ScenarioConfig, apply_radar_channel,
                      generate_multipath_channel, steering_vector)
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
    """Resolved parameters for one batch run (defaults: the 28 GHz scenario)."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig.mmwave_default)
    channel_gen: ChannelGenConfig = field(default_factory=lambda: ChannelGenConfig(5))
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
        s = self.scenario
        return {
            "scenario": {"num_antennas": s.num_antennas,
                         "bandwidth_hz": s.bandwidth_hz,
                         "carrier_frequency_hz": s.carrier_frequency_hz,
                         "coherence_time_s": s.coherence_time_s,
                         "guard_length": s.guard_length,
                         "transmit_power_w": s.transmit_power_w,
                         "noise_power_w": s.noise_power_w},
            "channel": {"num_paths": self.channel_gen.num_paths,
                        "max_subpaths": self.channel_gen.max_subpaths,
                        "aod_sector_rad": list(self.channel_gen.aod_sector)},
            "target": dataclasses.asdict(self.target),
            "experiment": {"trials": self.trials, "seed": self.seed,
                           "gamma_th_grid_db": [float(g) for g in self.gamma_th_grid_db],
                           "mc_block_length": self.mc_block_length,
                           "isac_gamma_fraction": self.isac_gamma_fraction,
                           "sweep_num_paths": list(self.sweep_num_paths),
                           "ofdm_subcarriers": self.ofdm_subcarriers,
                           "beampattern_aods_deg": list(self.beampattern_aods_deg),
                           "modulation": self.modulation,
                           "strict_ambiguity": self.strict_ambiguity}}

    def config_hash(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def rng(self, *key: int) -> np.random.Generator:
        """Stream keyed by (seed, *key); stable under reordering of trials."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


def parse_gamma_grid(text: str) -> np.ndarray:
    """Parse "a:b:step" (dB, inclusive endpoints) into a grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("gamma_th_grid_db must look like start:stop:step (dB)")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"gamma_th_grid_db has non-numeric parts: {text!r}") from None
    if step <= 0 or stop < start:
        raise ConfigError("gamma_th_grid_db needs stop >= start and step > 0")
    return np.arange(start, stop + step / 2.0, step)


_SCENARIO_KEYS = {"bandwidth_hz", "carrier_frequency_hz", "coherence_time_s",
                  "guard_time_s", "guard_length", "num_antennas",
                  "transmit_power_dbm", "noise_psd_dbm_hz"}
_CHANNEL_KEYS = {"num_paths", "max_subpaths", "aod_sector_deg"}
_TARGET_KEYS = {"range_m", "rcs_m2", "direction_deg", "radial_velocity_m_s"}
_EXPERIMENT_KEYS = {"trials", "seed", "gamma_th_grid_db", "mc_block_length",
                    "isac_gamma_fraction", "sweep_num_paths", "ofdm_subcarriers",
                    "beampattern_aods_deg", "modulation", "strict_ambiguity"}


def _check_keys(section: str, given: dict, allowed: set) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown {section} field(s): {', '.join(sorted(unknown))}")


def load_config(path=None) -> ExperimentConfig:
    """Read a JSON experiment config; omitted fields fall back to defaults.

    dBm and degree fields are converted to watts and radians here, at the
    boundary. An empty file ({}) reproduces the default scenario exactly.
    """
    doc = {}
    if path is not None:
        text = Path(path).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    _check_keys("config", doc, {"scenario", "channel", "target", "experiment"})

    sc = dict(doc.get("scenario", {}))
    _check_keys("scenario", sc, _SCENARIO_KEYS)
    bandwidth = float(sc.get("bandwidth_hz", 100e6))
    if bandwidth <= 0:
        raise ConfigError("scenario.bandwidth_hz must be positive")
    guard_time = sc.get("guard_time_s")
    guard_length = sc.get("guard_length")
    if guard_time is None and guard_length is None:
        guard_time = 2e-6
    if guard_time is not None:
        n_p = guard_time * bandwidth
        if abs(n_p - round(n_p)) > 1e-6 * max(1.0, n_p):
            raise ConfigError(
                "scenario.guard_time_s is not an integer number of symbol periods")
        derived = int(round(n_p))
        if guard_length is not None and int(guard_length) != derived:
            raise ConfigError(
                f"scenario.guard_length={guard_length} inconsistent with "
                f"guard_time_s*bandwidth_hz={derived}")
        guard_length = derived
    try:
        scenario = ScenarioConfig(
            num_antennas=int(sc.get("num_antennas", 64)),
            bandwidth_hz=bandwidth,
            carrier_frequency_hz=float(sc.get("carrier_frequency_hz", 28e9)),
            coherence_time_s=float(sc.get("coherence_time_s", 1e-3)),
            guard_length=int(guard_length),
            transmit_power_w=float(dbm_to_watt(sc.get("transmit_power_dbm", 30.0))),
            noise_power_w=float(dbm_to_watt(sc.get("noise_psd_dbm_hz", -169.0))
                                * bandwidth))
    except ConfigError as e:
        raise ConfigError(f"scenario: {e}") from None

    ch = dict(doc.get("channel", {}))
    _check_keys("channel", ch, _CHANNEL_KEYS)
    sector_deg = ch.get("aod_sector_deg", (-60.0, 60.0))
    try:
        channel_gen = ChannelGenConfig(
            num_paths=int(ch.get("num_paths", 5)),
            max_subpaths=int(ch.get("max_subpaths", 3)),
            aod_sector=tuple(np.deg2rad(np.asarray(sector_deg, dtype=float))))
    except ConfigError as e:
        raise ConfigError(f"channel: {e}") from None

    tg = dict(doc.get("target", {}))
    _check_keys("target", tg, _TARGET_KEYS)
    target = TargetConfig(
        range_m=float(tg.get("range_m", 200.0)),
        rcs_m2=float(tg.get("rcs_m2", 1.0)),
        direction_rad=float(np.deg2rad(tg.get("direction_deg", 30.0))),
        radial_velocity_m_s=float(tg.get("radial_velocity_m_s", 15.0)))
    if target.range_m <= 0:
        raise ConfigError("target.range_m must be positive")
    if target.rcs_m2 <= 0:
        raise ConfigError("target.rcs_m2 must be positive")

    ex = dict(doc.get("experiment", {}))
    _check_keys("experiment", ex, _EXPERIMENT_KEYS)
    grid = ex.get("gamma_th_grid_db", "0:20:2")
    if isinstance(grid, str):
        grid = parse_gamma_grid(grid)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ConfigError("experiment.gamma_th_grid_db must be a 1-D list or a:b:step")
    cfg = ExperimentConfig(
        scenario=scenario, channel_gen=channel_gen, target=target,
        trials=int(ex.get("trials", 100)), seed=int(ex.get("seed", 0)),
        gamma_th_grid_db=grid,
        mc_block_length=int(ex.get("mc_block_length", 16384)),
        isac_gamma_fraction=float(ex.get("isac_gamma_fraction", 0.8)),
        sweep_num_paths=tuple(int(v) for v in ex.get("sweep_num_paths", (5, 10))),
        ofdm_subcarriers=int(ex.get("ofdm_subcarriers", 1024)),
        beampattern_aods_deg=tuple(float(v) for v in
                                   ex.get("beampattern_aods_deg",
                                          (-60.0, -31.0, -24.0, 18.0, 54.0))),
        modulation=str(ex.get("modulation", "qpsk")),
        strict_ambiguity=bool(ex.get("strict_ambiguity", True)))
    if cfg.trials < 1:
        raise ConfigError("experiment.trials must be >= 1")
    if not 0.0 <= cfg.isac_gamma_fraction <= 1.0:
        raise ConfigError("experiment.isac_gamma_fraction must be in [0, 1]")
    if cfg.mc_block_length < 1:
        raise ConfigError("experiment.mc_block_length must be >= 1")
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


def find_beam_peaks(angles_deg: np.ndarray, pattern_db: np.ndarray,
                    rel_threshold_db: float = 16.0,
                    min_separation_deg: float = 6.0) -> np.ndarray:
    """Mainlobe directions of a pattern in dB.

    Local maxima above (global max - rel_threshold_db), strongest first, with
    weaker peaks suppressed inside min_separation_deg of a kept one. The
    defaults keep beams over a 13 dB dynamic range while rejecting first
    sidelobes (-13.3 dB, within ~5.5 deg of an oblique mainlobe for a 64
    element half-wavelength array) of a dominant lobe.
    """
    idx, _ = find_peaks(pattern_db)
    idx = idx[pattern_db[idx] >= pattern_db.max() - rel_threshold_db]
    kept = []
    for i in idx[np.argsort(pattern_db[idx])[::-1]]:
        if all(abs(angles_deg[i] - angles_deg[j]) >= min_separation_deg for j in kept):
            kept.append(i)
    return np.sort(angles_deg[np.asarray(kept, dtype=int)]) if kept else np.array([])


@dataclass
class BeampatternResult:
    angles_deg: np.ndarray
    comm_db: np.ndarray
    sensing_db: np.ndarray
    isac_db: np.ndarray
    isac_first_path_db: np.ndarray
    gamma_zf_max: float
    gamma_th: float
    sca_status: str


def _pattern_db(beam_matrix: np.ndarray, angles_rad: np.ndarray,
                columns=None) -> np.ndarray:
    m = beam_matrix.shape[0]
    steering = np.stack([steering_vector(theta, m) for theta in angles_rad])
    resp = np.conj(steering) @ beam_matrix            # (n_angles, L): a^H f_l
    if columns is not None:
        resp = resp[:, columns]
    power = np.sum(np.abs(resp) ** 2, axis=1)
    return 10.0 * np.log10(np.maximum(power, 1e-300))


def run_beampattern(cfg: ExperimentConfig) -> BeampatternResult:
    """Transmit patterns of the three designs over a fixed-geometry channel.

    The channel has one unit plane wave per configured direction; the sensing
    threshold for the trade-off design is isac_gamma_fraction of the
    zero-forcing ceiling.
    """
    s = cfg.scenario
    directions = np.deg2rad(np.asarray(cfg.beampattern_aods_deg, dtype=float))
    channel = MultipathChannel.from_directions(
        directions, np.arange(directions.size), s.num_antennas)
    target = RadarTarget.from_geometry(
        s, cfg.target.range_m, cfg.target.rcs_m2, cfg.target.direction_rad,
        cfg.target.radial_velocity_m_s)
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
        gamma_zf_max=gamma_zf, gamma_th=gamma_th, sca_status=sol.status)
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
                          f"sca_status={sol.status}"])
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
    rows = []
    for li, num_paths in enumerate(cfg.sweep_num_paths):
        gen = dataclasses.replace(cfg.channel_gen, num_paths=num_paths)
        se_sum = np.zeros(grid_lin.size)
        feasible = np.zeros(grid_lin.size, dtype=int)
        infeasible = np.zeros(grid_lin.size, dtype=int)
        for trial in range(cfg.trials):
            rng = cfg.rng(0, li, trial)
            channel = generate_multipath_channel(s, gen, rng)
            target = RadarTarget.from_geometry(
                s, cfg.target.range_m, cfg.target.rcs_m2,
                cfg.target.direction_rad, cfg.target.radial_velocity_m_s,
                rng=rng)
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
    sca_status: str
    mc_block_length: int


def run_dd_map(cfg: ExperimentConfig) -> DdMapReport:
    """Full sensing pipeline on one random channel realization.

    A trade-off beamformer is designed at isac_gamma_fraction of the ZF
    ceiling, a block of mc_block_length symbols is transmitted, the target
    echo is matched-filtered over all guard delays and a Doppler window of
    +-8 resolution bins around the true shift, and the peak-cell SNR is
    measured over `trials` fresh noise draws against the closed-form value.
    """
    s = cfg.scenario
    channel = generate_multipath_channel(s, cfg.channel_gen, cfg.rng(1, 0))
    target = RadarTarget.from_geometry(
        s, cfg.target.range_m, cfg.target.rcs_m2, cfg.target.direction_rad,
        cfg.target.radial_velocity_m_s, rng=cfg.rng(1, 1))
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
    echo = apply_radar_channel(target, tx, t_s, s.noise_power_w, cfg.rng(1, 3),
                               guard_length=s.guard_length,
                               strict=cfg.strict_ambiguity)

    res = 1.0 / (n_mc * t_s)
    center = res * round(target.doppler_hz / res)
    doppler_bins = center + res * np.arange(-8, 9)
    grid = sensing.SensingGrid(np.arange(s.guard_length + 1), doppler_bins,
                               t_s, n_mc)
    ddmap = sensing.delay_doppler_map(echo, bf, block, target.direction, grid)
    est_delay, est_doppler, _ = sensing.estimate_delay_doppler(ddmap)

    template = sensing.matched_filter_template(
        bf, block, target.direction, target.delay_symbols, target.doppler_hz, t_s)
    clean = apply_radar_channel(target, tx, t_s, 0.0)
    signal = np.vdot(template, clean)
    draws = np.empty(cfg.trials, dtype=complex)
    for t in range(cfg.trials):
        noisy = apply_radar_channel(target, tx, t_s, s.noise_power_w,
                                    cfg.rng(1, 4 + t),
                                    guard_length=s.guard_length,
                                    strict=cfg.strict_ambiguity)
        draws[t] = np.vdot(template, noisy)
    noise_var = np.mean(np.abs(draws - signal) ** 2)
    gamma_emp = float(np.abs(signal) ** 2 / noise_var)

    report = DdMapReport(
        true_delay_bin=target.delay_symbols, est_delay_bin=est_delay,
        true_doppler_hz=target.doppler_hz, est_doppler_hz=est_doppler,
        gamma_p_analytic_mc=sensing.sensing_snr(bf.beam_matrix, target.direction,
                                                target.gain, n_mc, s.noise_power_w),
        gamma_p_empirical=gamma_emp,
        gamma_p_analytic_full=sol.gamma_p,
        gamma_th=gamma_th, sca_status=sol.status, mc_block_length=n_mc)
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

    Analytic and Monte-Carlo output SNR under average- and peak-power
    constraints (peak: each scheme derated by its own PAPR), measured PAPR,
    ambiguity limits, and a paired fast-target demo at twice the subcarrier
    spacing, inside the aligned waveform's unambiguous Doppler span but far
    beyond OFDM's.
    """
    s = cfg.scenario
    n_mc = min(s.data_length, cfg.mc_block_length)
    scen_mc = dataclasses.replace(
        s, coherence_time_s=(n_mc + s.guard_length) * s.symbol_duration_s)
    t_s = s.symbol_duration_s
    k = cfg.ofdm_subcarriers
    theta = cfg.target.direction_rad
    target = RadarTarget.from_geometry(
        s, cfg.target.range_m, cfg.target.rcs_m2, theta,
        cfg.target.radial_velocity_m_s, rng=cfg.rng(2, 0))
    num_paths = cfg.channel_gen.num_paths
    m = s.num_antennas
    power = s.transmit_power_w
    sigma2 = s.noise_power_w

    ocfg = ofdm.OfdmConfig.steered(scen_mc, k, theta)
    if ocfg.symbols_per_block < 1:
        raise ConfigError("ofdm_subcarriers too large for the coherence block")
    i_sym = ocfg.symbols_per_block

    # Sensing-oriented aligned-waveform design: every stream at the target.
    a = steering_vector(theta, m)
    f_full = np.sqrt(power / (m * num_paths)) * np.tile(a[:, None], (1, num_paths))
    bf_full = waveform.DamBeamformer.aligned(f_full, np.arange(num_paths))

    def dam_empirical(bf, trials_key):
        block = waveform.generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation)
        tx = waveform.build_dam_block(block, bf)
        template = sensing.matched_filter_template(
            bf, block, theta, target.delay_symbols, target.doppler_hz, t_s)
        clean = apply_radar_channel(target, tx, t_s, 0.0)
        signal = np.vdot(template, clean)
        draws = np.empty(cfg.trials, dtype=complex)
        for t in range(cfg.trials):
            noisy = apply_radar_channel(target, tx, t_s, sigma2,
                                        cfg.rng(2, trials_key, t))
            draws[t] = np.vdot(template, noisy)
        return float(np.abs(signal) ** 2 / np.mean(np.abs(draws - signal) ** 2)), tx

    def ofdm_empirical(config, trials_key):
        sym = waveform.generate_symbols(cfg.rng(2, 2), k * i_sym, cfg.modulation)
        tx_freq = sym.symbols.reshape(k, i_sym, order="F")
        template = ofdm.ofdm_radar_rx(config, dataclasses.replace(target, gain=1.0 + 0j),
                                      tx_freq, 0.0).symbols_rx
        tnorm = np.linalg.norm(template)
        signal = target.gain * tnorm
        draws = np.empty(cfg.trials, dtype=complex)
        for t in range(cfg.trials):
            echo = ofdm.ofdm_radar_rx(config, target, tx_freq, sigma2,
                                      cfg.rng(2, trials_key, t))
            draws[t] = np.vdot(template, echo.symbols_rx) / tnorm
        return float(np.abs(signal) ** 2 / np.mean(np.abs(draws - signal) ** 2)), tx_freq

    gamma_dam_avg = sensing.max_sensing_snr(m, n_mc, power, target.gain, sigma2)
    gamma_ofdm_avg = ofdm.ofdm_output_snr(ocfg, theta, target.gain, sigma2)
    emp_dam_avg, tx_dam = dam_empirical(bf_full, 3)
    emp_ofdm_avg, tx_freq = ofdm_empirical(ocfg, 4)

    peak = ofdm.peak_power_constrained_snr_comparison(
        ocfg, n_mc, num_paths, target.gain, sigma2, power)
    bf_derated = waveform.DamBeamformer.aligned(
        f_full / np.sqrt(num_paths), np.arange(num_paths))
    ocfg_derated = ofdm.OfdmConfig.steered(scen_mc, k, theta,
                                           total_power=power / k)
    emp_dam_peak, _ = dam_empirical(bf_derated, 5)
    emp_ofdm_peak, _ = ofdm_empirical(ocfg_derated, 6)

    papr_dam = waveform.papr_empirical(tx_dam)
    papr_ofdm = ofdm.ofdm_papr_empirical(cfg.rng(2, 7), k, i_sym,
                                         cfg.modulation, cp_length=s.guard_length)

    # Fast-target demo: Doppler at twice the subcarrier spacing.
    f_fast = 2.0 * ocfg.subcarrier_spacing_hz
    fast = dataclasses.replace(target, doppler_hz=f_fast)
    res = 1.0 / (n_mc * t_s)
    dop_bins = res * (round(f_fast / res) + np.arange(-8, 9))
    lo = max(0, target.delay_symbols - 3)
    grid = sensing.SensingGrid(np.arange(lo, target.delay_symbols + 4), dop_bins,
                               t_s, n_mc)
    block = waveform.generate_symbols(cfg.rng(2, 8), n_mc, cfg.modulation)
    tx_fast = waveform.build_dam_block(block, bf_full)
    dam_hits = 0
    ofdm_hits = 0
    for t in range(cfg.trials):
        echo = apply_radar_channel(fast, tx_fast, t_s, sigma2, cfg.rng(2, 9, t))
        ddmap = sensing.delay_doppler_map(echo, bf_full, block, theta, grid)
        _, f_hat, _ = sensing.estimate_delay_doppler(ddmap)
        if abs(f_hat - f_fast) <= res:
            dam_hits += 1
        oecho = ofdm.ofdm_radar_rx(ocfg, fast, tx_freq, sigma2, cfg.rng(2, 10, t))
        _, f_hat_o, _ = ofdm.ofdm_delay_doppler_estimate(oecho, ocfg, tx_freq)
        if abs(f_hat_o - f_fast) <= ocfg.subcarrier_spacing_hz:
            ofdm_hits += 1

    lam = s.wavelength_m
    lim_dam = sensing.dam_ambiguity_limits(scen_mc)
    lim_ofdm = ofdm.ofdm_ambiguity_limits(ocfg, lam)

    def row(scheme, regime, k_or_l, i_or_n, analytic, empirical, lim, papr, hit):
        return {"scheme": scheme, "regime": regime, "k_or_l": k_or_l,
                "i_or_n": i_or_n,
                "analytic_snr_db": linear_to_db(analytic),
                "empirical_snr_db": linear_to_db(empirical),
                "max_range_m": lim.max_range_m,
                "max_velocity_m_s": lim.max_velocity_m_s,
                "range_resolution_m": lim.range_resolution_m,
                "velocity_resolution_m_s": lim.velocity_resolution_m_s,
                "papr_empirical": papr, "doppler_recovery_rate": hit}

    dam_rate = dam_hits / cfg.trials
    ofdm_rate = ofdm_hits / cfg.trials
    rows = [
        row("dam", "average_power", num_paths, n_mc, gamma_dam_avg, emp_dam_avg,
            lim_dam, papr_dam, dam_rate),
        row("dam", "peak_power", num_paths, n_mc, peak.gamma_dam, emp_dam_peak,
            lim_dam, papr_dam, dam_rate),
        row("ofdm", "average_power", k, i_sym, gamma_ofdm_avg, emp_ofdm_avg,
            lim_ofdm, papr_ofdm, ofdm_rate),
        row("ofdm", "peak_power", k, i_sym, peak.gamma_ofdm, emp_ofdm_peak,
            lim_ofdm, papr_ofdm, ofdm_rate),
    ]
    if cfg.output_dir is not None:
        _write_csv(Path(cfg.output_dir) / "ofdm_compare.csv", cfg,
                   list(rows[0]), rows,
                   extra=[f"n_mc={n_mc} peak_snr_ratio={peak.ratio!r} "
                          f"fast_doppler_hz={f_fast!r}"])
    return OfdmCompareResult(rows=rows, dam_doppler_hit_rate=dam_rate,
                             ofdm_doppler_hit_rate=ofdm_rate,
                             papr_dam=papr_dam, papr_ofdm=papr_ofdm)
