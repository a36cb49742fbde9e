"""Batch-runner and CLI tests: config loading and validation, unit
conversions, RNG keying, peak finding, runner outputs, CSV determinism,
exit codes, and runs without scipy."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from damisac import (
    ChannelGenConfig,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    IsacProblem,
    MultipathChannel,
    RadarTarget,
    apply_radar_channel,
    build_dam_block,
    comm_snr,
    generate_multipath_channel,
    generate_symbols,
    isi_zf_mrt_beamformer,
    load_config,
    matched_filter_template,
    ofdm_time_domain,
    papr_empirical,
    parse_gamma_grid,
    run_beampattern,
    run_dd_map,
    run_ofdm_compare,
    run_se_sweep,
)
from damisac.cli import main
from damisac.experiments import _SCHEMA, _pattern_db
from scipy.signal import find_peaks

from beam_peaks import find_beam_peaks

EXPERIMENTS = ("beampattern", "se-sweep", "dd-map", "ofdm-compare")
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ----------------------------------------------------------------- config I/O

def test_defaults_match_empty_file(tmp_path):
    cfg = load_config(None)
    empty = load_config(write_config(tmp_path, {}))
    assert cfg.describe() == empty.describe()
    s = cfg.scenario
    assert s.bandwidth_hz == 100e6
    assert s.carrier_frequency_hz == 28e9
    assert s.num_antennas == 64
    assert s.block_length == 100_000
    assert s.guard_length == 200
    assert s.data_length == 99_800
    assert s.transmit_power_w == pytest.approx(1.0)
    assert s.noise_power_w == pytest.approx(10 ** (-19.9) * 1e8)
    assert cfg.channel_gen.num_paths == 5
    assert cfg.target.range_m == 200.0
    assert cfg.target.direction_rad == pytest.approx(np.pi / 6)
    assert np.array_equal(cfg.gamma_th_grid_db, np.arange(0.0, 21.0, 2.0))


def test_unit_conversions(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "scenario": {"transmit_power_dbm": 20.0},
        "target": {"direction_deg": 45.0},
        "channel": {"aod_sector_deg": [-30.0, 30.0]}}))
    assert cfg.scenario.transmit_power_w == pytest.approx(0.1)
    assert cfg.target.direction_rad == pytest.approx(np.pi / 4)
    assert cfg.channel_gen.aod_sector == pytest.approx(
        (-np.pi / 6, np.pi / 6))


def test_unknown_fields_are_named(tmp_path):
    with pytest.raises(ConfigError, match="bandwith_hz"):
        load_config(write_config(tmp_path, {"scenario": {"bandwith_hz": 1e8}}))
    with pytest.raises(ConfigError, match="scnario"):
        load_config(write_config(tmp_path, {"scnario": {}}))
    with pytest.raises(ConfigError, match="rcs"):
        load_config(write_config(tmp_path, {"target": {"rcs": 1.0}}))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": {,}}')
    with pytest.raises(ConfigError, match=r"line 1, column 15"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


def test_guard_consistency(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "scenario": {"guard_length": 200, "guard_time_s": 2e-6}}))
    assert cfg.scenario.guard_length == 200
    with pytest.raises(ConfigError, match="inconsistent"):
        load_config(write_config(tmp_path, {
            "scenario": {"guard_length": 150, "guard_time_s": 2e-6}}))
    with pytest.raises(ConfigError, match="integer number"):
        load_config(write_config(tmp_path, {
            "scenario": {"guard_time_s": 1.55e-8}}))


def test_experiment_validation(tmp_path):
    with pytest.raises(ConfigError, match="trials"):
        load_config(write_config(tmp_path, {"experiment": {"trials": 0}}))
    with pytest.raises(ConfigError, match="isac_gamma_fraction"):
        load_config(write_config(tmp_path,
                                 {"experiment": {"isac_gamma_fraction": 1.5}}))
    cfg = load_config(write_config(tmp_path, {
        "experiment": {"gamma_th_grid_db": [0.0, 5.0, 10.0]}}))
    assert np.array_equal(cfg.gamma_th_grid_db, [0.0, 5.0, 10.0])


def test_parse_gamma_grid():
    assert np.allclose(parse_gamma_grid("0:20:2"), np.arange(0.0, 21.0, 2.0))
    assert np.allclose(parse_gamma_grid("5:5:2"), [5.0])
    for bad in ("1:0:1", "a:b:c", "1:2", "0:10:0"):
        with pytest.raises(ConfigError):
            parse_gamma_grid(bad)


def test_config_hash_tracks_content(tmp_path):
    a = load_config(write_config(tmp_path, {}, "a.json"))
    b = load_config(write_config(tmp_path, {}, "b.json"))
    assert a.config_hash() == b.config_hash()
    c = load_config(write_config(tmp_path, {"experiment": {"seed": 1}}, "c.json"))
    assert c.config_hash() != a.config_hash()


DEFAULT_HASH = "9292ee34f8139a07"
# every JSON field set away from its default
ALL_FIELDS = {
    "scenario": {"num_antennas": 32, "bandwidth_hz": 2e8, "carrier_frequency_hz": 6e10,
                 "coherence_time_s": 5e-4, "guard_length": 100,
                 "transmit_power_dbm": 20.0, "noise_psd_dbm_hz": -170.0},
    "channel": {"num_paths": 3, "max_subpaths": 2, "aod_sector_deg": [-45, 45]},
    "target": {"range_m": 100.0, "rcs_m2": 2.0, "direction_deg": -10.0,
               "radial_velocity_m_s": -5.0},
    "experiment": {"trials": 7, "seed": 3, "gamma_th_grid_db": [1.0, 2.5],
                   "mc_block_length": 4096, "isac_gamma_fraction": 0.5,
                   "sweep_num_paths": [2, 4], "ofdm_subcarriers": 256,
                   "beampattern_aods_deg": [-10, 20], "modulation": "psk8",
                   "strict_ambiguity": False}}


def readme_config_example():
    section = README.read_text().split("### Config file", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_config_hashes_are_pinned(tmp_path):
    """The hash input is derived from the dataclasses; it must not move."""
    assert load_config(None).config_hash() == DEFAULT_HASH
    assert ExperimentConfig().config_hash() == DEFAULT_HASH
    readme = load_config(write_config(tmp_path, readme_config_example(), "readme.json"))
    assert readme.config_hash() == DEFAULT_HASH
    full = load_config(write_config(tmp_path, ALL_FIELDS, "all.json"))
    assert full.config_hash() == "da8d33c5d36443bb"
    assert full.scenario.guard_length == 100 and full.channel_gen.max_subpaths == 2
    assert full.sweep_num_paths == (2, 4) and full.strict_ambiguity is False


def test_readme_field_table_matches_the_reader(tmp_path):
    """One README row per JSON field, with the reader's JSON type, and a
    default that leaves the config hash where the dataclass defaults put it."""
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|[^|]*\|[^|]*\| `(.+)` \|$",
                      README.read_text(), re.M)
    assert sorted(row[:2] for row in rows) == sorted(
        (section, name) for section, rules in _SCHEMA.items() for name in rules)
    type_names = {int: "integer", float: "number", bool: "boolean", str: "string"}
    for section, name, json_type, default in rows:
        rule = _SCHEMA[section][name]
        if rule.items is None:
            assert json_type.strip() == type_names[rule.kind], name
        else:
            assert "list" in json_type and type_names[rule.kind] in json_type, name
        doc = {section: {name: json.loads(default)}}
        assert load_config(write_config(tmp_path, doc)).config_hash() == DEFAULT_HASH, name


def test_integral_numbers_only(tmp_path):
    cfg = load_config(write_config(tmp_path, {"scenario": {"num_antennas": 64.0},
                                              "experiment": {"trials": 1e2}}))
    assert cfg.scenario.num_antennas == 64 and type(cfg.scenario.num_antennas) is int
    assert cfg.config_hash() == DEFAULT_HASH
    for bad in ("64", 64.5, True, None, [64]):
        with pytest.raises(ConfigError, match=r"^scenario\.num_antennas must be an integer"):
            load_config(write_config(tmp_path, {"scenario": {"num_antennas": bad}}))


# Invalid configs, each with the field its error must name. Small trial and block
# counts keep a run short should a probe ever be accepted; with strict_ambiguity
# off, the guard rule cannot stand in for the block and Doppler checks.
SMALL = {"trials": 2, "mc_block_length": 1024, "gamma_th_grid_db": [0.0],
         "sweep_num_paths": [3], "ofdm_subcarriers": 256, "strict_ambiguity": False}
PROBES = [
    ("target.range_m", float("nan")), ("scenario.bandwidth_hz", float("nan")),
    ("scenario", None), ("experiment.trials", "abc"),
    ("channel.aod_sector_deg", [1]), ("channel.aod_sector_deg", "x"),
    ("experiment.beampattern_aods_deg", []), ("experiment.ofdm_subcarriers", 0),
    ("experiment.modulation", "qam16"), ("target.radial_velocity_m_s", 1e9),
    ("experiment.sweep_num_paths", []), ("experiment.strict_ambiguity", "false"),
    ("experiment.seed", 1.5), ("experiment.seed", -1), ("scenario.num_antennas", 2.7),
    ("experiment.mc_block_length", True), ("experiment.trials", "64"),
    ("target.range_m", 1e80), ("target.range_m", 1e-300),
    ("channel.max_subpaths", 2 ** 70), ("channel.max_subpaths", 1e11),
    ("channel.max_subpaths", 10_001),
    ("target.range_m", 1e6),         # a round-trip delay beyond the 1024-symbol block
    ("experiment.gamma_th_grid_db", [1e308]),   # a linear floor beyond the range of a float
]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("key,value", PROBES)
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, experiment, key, value):
    section, _, name = key.partition(".")
    doc = {"experiment": {k: v for k, v in SMALL.items() if k != name}}
    if name:
        doc.setdefault(section, {})[name] = value
    else:
        doc[section] = value
    assert main([experiment, "--config", str(write_config(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([0, 1, -1, 0.5, 1e9, 2 ** 64, "0:20:2", "qpsk", "psk8"])
                | st.text(max_size=8))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=8)
FIELD_NAMES = st.sampled_from(sorted({name for sec in ALL_FIELDS.values() for name in sec}
                                     | {"guard_time_s"})) | st.text(max_size=6)
SECTIONS = st.dictionaries(FIELD_NAMES, JSON_VALUES, max_size=6) | JSON_VALUES
CONFIGS = st.dictionaries(st.sampled_from(sorted(ALL_FIELDS)) | st.text(max_size=6),
                          SECTIONS, max_size=4)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=CONFIGS, overrides=st.dictionaries(FIELD_NAMES, JSON_VALUES, max_size=2))
def test_any_json_object_loads_or_raises_config_error(tmp_path_factory, doc, overrides):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = load_config(path, overrides)
    except ConfigError as e:
        message = str(e)
        assert (message.startswith(tuple(ALL_FIELDS) + ("config",))
                or message.endswith(": unknown config section")), message
    else:
        assert len(cfg.config_hash()) == 16


def test_rng_streams_keyed_and_reproducible():
    cfg = ExperimentConfig()
    a = cfg.rng(1, 2).standard_normal(8)
    b = cfg.rng(1, 2).standard_normal(8)
    c = cfg.rng(1, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- peak finder

def test_find_beam_peaks_synthetic():
    angles = np.arange(-90.0, 90.5, 0.5)

    def hump(center, peak_db, width):
        return peak_db - ((angles - center) / width) ** 2

    pattern = np.maximum.reduce([
        hump(-20.0, 0.0, 2.0),      # mainlobe
        hump(40.0, -6.0, 2.0),      # secondary mainlobe
        hump(-24.5, -3.0, 0.5),     # sidelobe close to the -20 lobe
        hump(60.0, -20.0, 2.0),     # below the dynamic-range threshold
        np.full_like(angles, -40.0)])
    got = find_beam_peaks(angles, pattern)
    assert np.allclose(got, [-20.0, 40.0])
    # with suppression radius shrunk, the nearby sidelobe shows up again
    got_fine = find_beam_peaks(angles, pattern, min_separation_deg=1.0)
    assert np.allclose(got_fine, [-24.5, -20.0, 40.0])


# -------------------------------------------------------------------- runners

@pytest.fixture(scope="module")
def beampattern_result(tmp_path_factory):
    cfg = load_config(None)
    cfg.output_dir = tmp_path_factory.mktemp("bp")
    return cfg, run_beampattern(cfg)


def test_beampattern_peaks(beampattern_result):
    cfg, res = beampattern_result
    comm = find_beam_peaks(res.angles_deg, res.comm_db)
    assert len(comm) == 5
    assert np.allclose(np.sort(comm), cfg.beampattern_aods_deg, atol=1.0)
    sens = find_beam_peaks(res.angles_deg, res.sensing_db)
    assert len(sens) == 1 and abs(sens[0] - 30.0) <= 1.0
    isac = find_beam_peaks(res.angles_deg, res.isac_db)
    assert len(isac) == 6
    # the trade-off solution keeps every path and adds the target lobe
    for aod in list(cfg.beampattern_aods_deg) + [30.0]:
        assert np.min(np.abs(isac - aod)) <= 1.0


def test_beampattern_comm_has_no_target_lobe(beampattern_result):
    # no local maximum inside the display dynamic range sits near the target
    _, res = beampattern_result
    idx, _ = find_peaks(res.comm_db, height=res.comm_db.max() - 16.0)
    local_max = res.angles_deg[idx]
    assert not np.any(np.abs(local_max - 30.0) <= 3.0)


def test_beampattern_threshold_and_csv(beampattern_result):
    cfg, res = beampattern_result
    assert res.gamma_zf_max > 0
    assert res.gamma_th == pytest.approx(0.8 * res.gamma_zf_max)
    assert res.solver_status == "optimal"
    lines = (cfg.output_dir / "beampattern.csv").read_text().splitlines()
    assert lines[0].startswith(f"# config_hash={cfg.config_hash()} seed=0")
    assert lines[1] == "# n_c=100000 n_p=200 n=99800"
    assert "gamma_zf_max_db=" in lines[2] and "solver_status=" in lines[2]
    assert lines[3].split(",")[0] == "angle_deg"
    assert len(lines) == 4 + res.angles_deg.size


def test_pattern_ignores_per_path_phases():
    # F and F diag(e^{j phi_l}) radiate the same pattern. In the zero-forcing
    # nulls a^H f_l is rounding, which the phases move by dB; the floor at the
    # rounding bound prints those cells alike.
    cfg = load_config(None)
    s = cfg.scenario
    directions = np.deg2rad(np.asarray(cfg.beampattern_aods_deg))
    channel = MultipathChannel.from_directions(directions, np.arange(directions.size),
                                               s.num_antennas)
    problem = IsacProblem(channel, cfg.target.direction_rad, 1.0, s.data_length,
                          s.transmit_power_w, s.noise_power_w)
    isac = problem.solve(cfg.isac_gamma_fraction * problem.gamma_zf_max).beamformer
    angles = np.deg2rad(np.arange(-90.0, 90.0 + 0.25, 0.5))
    rng = np.random.default_rng(0)
    for f in (problem.mrt.beam_matrix, problem.sensing.beam_matrix, isac.beam_matrix):
        for _ in range(5):
            turned = f * np.exp(2j * np.pi * rng.uniform(size=f.shape[1]))
            for columns in (None, [0]):
                assert np.max(np.abs(_pattern_db(f, angles, columns)
                                     - _pattern_db(turned, angles, columns))) <= 1e-9


def test_se_sweep_zero_threshold_equals_mrt(tmp_path):
    cfg = load_config(None)
    cfg.trials = 4
    cfg.sweep_num_paths = (3,)
    cfg.gamma_th_grid_db = np.array([-np.inf])   # 10^(-inf/10) = 0
    rows = run_se_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row["feasible"] == 4 and row["infeasible"] == 0
    s = cfg.scenario
    gen = dataclasses.replace(cfg.channel_gen, num_paths=3)
    se = []
    for trial in range(cfg.trials):
        channel = generate_multipath_channel(s, gen, cfg.rng(0, 0, trial))
        bf = isi_zf_mrt_beamformer(channel, s.transmit_power_w)
        gamma = comm_snr(bf, channel, s.noise_power_w)
        se.append(s.data_length / s.block_length * np.log2(1.0 + gamma))
    assert row["mean_se_bps_hz"] == pytest.approx(np.mean(se), rel=1e-9)


def test_se_sweep_counts_infeasible(tmp_path):
    cfg = load_config(None)
    cfg.trials = 2
    cfg.sweep_num_paths = (3,)
    cfg.gamma_th_grid_db = np.array([80.0])      # far above any ZF ceiling
    row = run_se_sweep(cfg)[0]
    assert row["infeasible"] == 2 and row["feasible"] == 0
    assert row["mean_se_bps_hz"] == 0.0


def test_dd_map_report(tmp_path):
    cfg = load_config(None)
    cfg.trials = 600
    cfg.mc_block_length = 8192
    cfg.output_dir = tmp_path
    rep = run_dd_map(cfg)
    assert rep.true_delay_bin == 133
    assert rep.est_delay_bin == 133
    assert rep.true_doppler_hz == pytest.approx(2 * 15.0 / cfg.scenario.wavelength_m)
    res = 1.0 / (rep.mc_block_length * cfg.scenario.symbol_duration_s)
    assert abs(rep.est_doppler_hz - rep.true_doppler_hz) <= res
    diff_db = 10 * np.log10(rep.gamma_p_empirical / rep.gamma_p_analytic_mc)
    assert abs(diff_db) < 0.5
    assert rep.gamma_p_analytic_full >= rep.gamma_th * (1 - 1e-6)
    assert (tmp_path / "dd_map.csv").exists()
    report_lines = (tmp_path / "dd_report.csv").read_text().splitlines()
    assert report_lines[0].startswith("# config_hash=")
    assert report_lines[1] == "# n_c=100000 n_p=200 n=99800"


def test_dd_map_empirical_snr_matches_full_echo_oracle():
    """The linear shortcut (one noise draw per trial through the template)
    against rebuilding every noisy echo from the same keyed streams."""
    cfg = load_config(None)
    cfg.trials = 12
    cfg.mc_block_length = 2048
    rep = run_dd_map(cfg)

    s = cfg.scenario
    channel = generate_multipath_channel(s, cfg.channel_gen, cfg.rng(1, 0))
    tg = cfg.target
    target = RadarTarget.from_geometry(s, tg.range_m, tg.rcs_m2, tg.direction_rad,
                                       tg.radial_velocity_m_s, rng=cfg.rng(1, 1))
    problem = IsacProblem(channel, target.direction, target.gain, s.data_length,
                          s.transmit_power_w, s.noise_power_w)
    bf = problem.solve(cfg.isac_gamma_fraction * problem.gamma_zf_max).beamformer
    block = generate_symbols(cfg.rng(1, 2), rep.mc_block_length, cfg.modulation)
    tx = build_dam_block(block, bf)
    t_s = s.symbol_duration_s
    template = matched_filter_template(bf, block, target.direction,
                                       target.delay_symbols, target.doppler_hz, t_s)
    signal = np.vdot(template, apply_radar_channel(target, tx, t_s, 0.0))
    draws = [np.vdot(template, apply_radar_channel(target, tx, t_s, s.noise_power_w,
                                                   cfg.rng(1, 4 + t), s.guard_length))
             for t in range(cfg.trials)]
    oracle = abs(signal) ** 2 / np.mean(np.abs(np.array(draws) - signal) ** 2)
    assert rep.gamma_p_empirical == pytest.approx(oracle, rel=1e-12)


def test_dd_map_rejects_target_beyond_guard():
    cfg = load_config(None)
    cfg.trials = 2
    cfg.mc_block_length = 1024
    cfg.target = dataclasses.replace(cfg.target, range_m=500.0)
    with pytest.raises(InfeasibleError):
        run_dd_map(cfg)


def test_dd_map_searches_up_to_a_target_beyond_the_guard(tmp_path):
    # with strict_ambiguity off, the delay window reaches the target at
    # delay 300, past the guard at 200
    cfg = load_config(write_config(tmp_path, {
        "target": {"range_m": 450, "rcs_m2": 1000},
        "experiment": {"strict_ambiguity": False}}))
    with pytest.warns(UserWarning, match="target delay 300 exceeds guard length 200"):
        rep = run_dd_map(cfg)
    assert rep.true_delay_bin == 300
    assert rep.est_delay_bin == rep.true_delay_bin


def test_ofdm_compare_result(tmp_path):
    cfg = load_config(None)
    cfg.trials = 50
    cfg.mc_block_length = 2048
    cfg.ofdm_subcarriers = 256
    # a stronger reflector keeps the reduced-length fast-target demo at a
    # comfortably detectable SNR
    cfg.target = dataclasses.replace(cfg.target, rcs_m2=25.0)
    cfg.output_dir = tmp_path
    res = run_ofdm_compare(cfg)
    assert len(res.rows) == 4
    schemes = {(r["scheme"], r["regime"]) for r in res.rows}
    assert schemes == {("dam", "average_power"), ("dam", "peak_power"),
                       ("ofdm", "average_power"), ("ofdm", "peak_power")}
    by = {(r["scheme"], r["regime"]): r for r in res.rows}
    # peak-power gap collapses to N / (L I)
    n_mc, l = 2048, cfg.channel_gen.num_paths
    i_sym = (n_mc + 200) // (256 + 200)
    gap_db = (by[("dam", "peak_power")]["analytic_snr_db"]
              - by[("ofdm", "peak_power")]["analytic_snr_db"])
    assert gap_db == pytest.approx(10 * np.log10(n_mc / (l * i_sym)), abs=1e-9)
    # analytic and empirical agree in every regime
    for r in res.rows:
        assert abs(r["analytic_snr_db"] - r["empirical_snr_db"]) < 1.5
    assert res.papr_ofdm > res.papr_dam
    assert res.dam_doppler_hit_rate >= 0.9
    assert res.ofdm_doppler_hit_rate < 0.5
    # the OFDM PAPR is measured on the stream the run sends: the grid drawn
    # from rng(2, 2), with its cyclic prefix
    grid = generate_symbols(cfg.rng(2, 2), 256 * i_sym, cfg.modulation).symbols
    stream = ofdm_time_domain(grid.reshape(256, i_sym, order="F"), 200)
    assert res.papr_ofdm == papr_empirical(stream)
    lines = (tmp_path / "ofdm_compare.csv").read_text().splitlines()
    assert lines[2].startswith("# n_mc=2048 peak_snr_ratio=")
    assert len(lines) == 4 + 4


# ------------------------------------------------------------------------ CLI

def small_sweep_config(tmp_path, **extra_experiment):
    doc = {"experiment": {"sweep_num_paths": [3], **extra_experiment}}
    return write_config(tmp_path, doc)


def test_cli_se_sweep_with_overrides(tmp_path, capsys):
    cfgfile = small_sweep_config(tmp_path)
    out = tmp_path / "out"
    code = main(["se-sweep", "--config", str(cfgfile), "--seed", "7",
                 "--trials", "2", "--gamma-th-grid", "0:6:6",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "se_sweep.csv").read_text().splitlines()
    assert "seed=7" in lines[0]
    assert lines[2] == "# trials=2"
    assert lines[3] == "gamma_th_db,num_paths,mean_se_bps_hz,feasible,infeasible"
    assert len(lines) == 4 + 2          # two grid points, one path count
    stdout = capsys.readouterr().out
    assert "mean SE" in stdout and "wrote CSV output" in stdout


CSVS = ["beampattern.csv", "dd_map.csv", "dd_report.csv", "ofdm_compare.csv", "se_sweep.csv"]


def test_cli_deterministic_output(tmp_path):
    cfgfile = write_config(tmp_path, {"experiment": SMALL})

    def run(name, seed):
        out = tmp_path / name
        for experiment in EXPERIMENTS:
            assert main([experiment, "--config", str(cfgfile), "--seed", str(seed),
                         "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def body(data):
        return [line for line in data.splitlines() if not line.startswith(b"#")]

    first, again, other = run("a", 7), run("b", 7), run("c", 8)
    assert sorted(first) == CSVS
    assert first == again
    for name in CSVS:
        # the beampattern geometry is fixed: no draw, so the seed changes only its header
        assert (body(other[name]) == body(first[name])) == (name == "beampattern.csv"), name


# a round-trip delay of 300 symbols against the default guard of 200
FAR_TARGET = {"target": {"range_m": 450, "rcs_m2": 1000}}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_target_beyond_the_guard_follows_strict_ambiguity(tmp_path, capsys, experiment):
    strict = write_config(tmp_path, FAR_TARGET, "strict.json")
    assert main([experiment, "--config", str(strict)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: target.range_m=450.0: target delay 300 exceeds guard length 200")
    lenient = write_config(tmp_path, {**FAR_TARGET, "experiment": SMALL}, "lenient.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([experiment, "--config", str(lenient)]) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "target.range_m=450.0: target delay 300 exceeds guard length 200: "
                      "echo spills into the next block")]


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {"scenario": {"bandwith_hz": 1e8}})
    assert main(["beampattern", "--config", str(bad)]) == 2
    assert "bandwith_hz" in capsys.readouterr().err
    malformed = tmp_path / "m.json"
    malformed.write_text("{bad json}")
    assert main(["beampattern", "--config", str(malformed)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["beampattern", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot be read" in capsys.readouterr().err
    # the flags pass the same checks as the experiment fields they override
    for flag, value in (("--gamma-th-grid", "oops"), ("--gamma-th-grid", "0:1e9:1e-9"),
                        ("--gamma-th-grid", "3000:3100:100"),
                        ("--trials", "0"), ("--seed", "-1"), ("--seed", str(2 ** 64))):
        assert main(["se-sweep", flag, value]) == 2
        key = flag[2:].replace("-", "_").replace("gamma_th_grid", "gamma_th_grid_db")
        assert capsys.readouterr().err.startswith(f"error: experiment.{key}")


def test_counts_beyond_the_block_exit_2(tmp_path, capsys):
    too_many_paths = write_config(tmp_path, {"channel": {"num_paths": 202}}, "paths.json")
    assert main(["dd-map", "--config", str(too_many_paths)]) == 2
    assert "num_paths=202" in capsys.readouterr().err
    subcarriers = write_config(tmp_path, {"experiment": {
        "mc_block_length": 512, "ofdm_subcarriers": 1024}}, "k.json")
    assert main(["ofdm-compare", "--config", str(subcarriers)]) == 2
    assert capsys.readouterr().err.startswith("error: experiment.ofdm_subcarriers")
    # a round-trip delay 2R/c * B beyond the range of a float
    far = write_config(tmp_path, {"scenario": {"bandwidth_hz": 1e300},
                                  "target": {"range_m": 1e70}}, "far.json")
    assert main(["beampattern", "--config", str(far)]) == 2
    assert capsys.readouterr().err.startswith("error: target.range_m")


def test_doppler_windows_near_the_interval_edge(tmp_path, capsys):
    # the +-8-bin windows are clipped to (-B/2, B/2], so these run
    fast = write_config(tmp_path, {"target": {"radial_velocity_m_s": 267000},
                                   "experiment": {"trials": 2, "mc_block_length": 1024}},
                        "fast.json")
    assert main(["dd-map", "--config", str(fast)]) == 0
    four = write_config(tmp_path, {"experiment": {
        "trials": 2, "mc_block_length": 1024, "ofdm_subcarriers": 4}}, "k4.json")
    assert main(["ofdm-compare", "--config", str(four)]) == 0
    capsys.readouterr()
    # K = 3 puts the fast target's Doppler 2B/K beyond B/2
    three = write_config(tmp_path, {"experiment": {
        "trials": 2, "mc_block_length": 1024, "ofdm_subcarriers": 3}}, "k3.json")
    assert main(["ofdm-compare", "--config", str(three)]) == 2
    assert capsys.readouterr().err.startswith("error: experiment.ofdm_subcarriers")


def test_delay_windows_near_the_block_end(tmp_path):
    # the delay windows stop at the last delay inside the Monte-Carlo block:
    # dd-map's [0, guard = 200] at a 100-symbol block, and ofdm-compare's
    # +-3 around a target at delay 1000 of a 1001-symbol block
    short = write_config(tmp_path, {"target": {"range_m": 10.0}, "experiment": {
        "trials": 2, "mc_block_length": 100}}, "short.json")
    assert main(["dd-map", "--config", str(short)]) == 0
    edge = write_config(tmp_path, {"target": {"range_m": 1500.0}, "experiment": {
        "trials": 2, "mc_block_length": 1001, "ofdm_subcarriers": 256,
        "strict_ambiguity": False}}, "edge.json")
    with pytest.warns(UserWarning, match="target delay 1000 exceeds guard length 200"):
        assert main(["ofdm-compare", "--config", str(edge)]) == 0


# Runs the four experiments in a fresh interpreter in which any scipy import
# raises, then reports the exit codes and every scipy module that got loaded.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import damisac
from damisac import cli
config, out, *experiments = sys.argv[1:]
codes = {e: cli.main([e, "--config", config, "--out", out, "--trials", "2",
                      "--gamma-th-grid", "0:4:2"]) for e in experiments}
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None]
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_experiments_run_without_scipy(tmp_path):
    config = write_config(tmp_path, {"experiment": {"mc_block_length": 1024}})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(config),
                           str(tmp_path / "out"), *EXPERIMENTS],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": dict.fromkeys(EXPERIMENTS, 0), "scipy": []}
    assert sorted(os.listdir(tmp_path / "out")) == [
        "beampattern.csv", "dd_map.csv", "dd_report.csv", "ofdm_compare.csv",
        "se_sweep.csv"]


def test_cli_infeasible_target_exits_2(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {
        "target": {"range_m": 500.0},
        "experiment": {"trials": 2, "mc_block_length": 1024}})
    assert main(["dd-map", "--config", str(cfgfile)]) == 2
    assert "error:" in capsys.readouterr().err
    # too few antennas to null the other paths
    antennas = write_config(tmp_path, {"scenario": {"num_antennas": 4}}, "m4.json")
    assert main(["se-sweep", "--config", str(antennas)]) == 2
    assert "num_antennas >= num_paths (4 < 5)" in capsys.readouterr().err


def test_cli_unknown_experiment_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])