"""Batch-runner and CLI tests: config loading and validation, unit
conversions, RNG keying, peak finding, runner outputs, CSV determinism,
exit codes, and runs without scipy."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from damisac import (
    C_LIGHT,
    ConfigError,
    DamBeamformer,
    DelayDopplerMap,
    ExperimentConfig,
    InfeasibleError,
    IsacProblem,
    MultipathChannel,
    OfdmConfig,
    SensingGrid,
    apply_radar_channel,
    build_dam_block,
    complex_normal,
    delay_doppler_map,
    estimate_delay_doppler,
    generate_multipath_channels,
    generate_symbols,
    load_config,
    matched_filter_template,
    ofdm_delay_doppler_estimate,
    ofdm_demodulate,
    ofdm_time_domain,
    papr_empirical,
    parse_gamma_grid,
    projected_dam_block,
    run_beampattern,
    run_dd_map,
    run_ofdm_compare,
    run_se_sweep,
    sensing_snr,
    steering_vector,
    template_gram,
)
from damisac import cli, experiments, sensing
from damisac.cli import main
from damisac.experiments import _SCHEMA, _pattern_db
from scipy.signal import find_peaks

from beam_peaks import find_beam_peaks
from dam_oracle import aligned_gain, correlation_matrix, dense_templates
from se_sweep_oracle import se_sweep_rows
from zf_oracle import zf_mrt

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


def test_guard_is_given_only_as_guard_length(tmp_path, capsys):
    # the guard is a count of symbols; a guard time is not a field, alone or
    # beside guard_length
    cfg = load_config(write_config(tmp_path, {"scenario": {"guard_length": 150}}))
    assert cfg.scenario.guard_length == 150
    for scenario in ({"guard_time_s": 2e-6}, {"guard_length": 200, "guard_time_s": 2e-6}):
        path = write_config(tmp_path, {"scenario": scenario})
        with pytest.raises(ConfigError, match=r"^scenario\.guard_time_s: unknown field$"):
            load_config(path)
        assert main(["beampattern", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: scenario.guard_time_s: unknown field\n"


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
    ("scenario.coherence_time_s", 1.000005e-3),  # 100 000.5 symbol periods
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


@st.composite
def run_scenarios(draw):
    """A scenario whose coherence time is a whole number n_c > N_p of symbol
    periods, so that the loader takes it, with a bandwidth log-uniform over
    [1e3, 1e12] Hz and powers within their +-500 dB(m) bounds; the @examples
    of the test pin both sides of the bounds."""
    guard, bandwidth = draw(st.integers(0, 300)), 10.0 ** draw(st.floats(3.0, 12.0))
    n_c = draw(st.integers(guard + 1, guard + 200_000))
    return {"num_antennas": draw(st.integers(1, 16)), "guard_length": guard,
            "bandwidth_hz": bandwidth, "carrier_frequency_hz": draw(st.floats(1e8, 1e12)),
            "coherence_time_s": n_c / bandwidth,
            "transmit_power_dbm": draw(st.floats(-500.0, 500.0)),
            "noise_psd_dbm_hz": draw(st.floats(-500.0, 500.0))}


@st.composite
def run_targets(draw, scenario):
    """Three times in four a target whose delay lies inside the scenario's
    guard, whose Doppler lies inside (-B/2, B/2] and whose round-trip gain
    lies inside [1e-100, 1e100]; else any range, RCS and velocity, most of
    them past the guard, the gain's bounds or the Doppler span."""
    bandwidth = scenario["bandwidth_hz"]
    wavelength = C_LIGHT / scenario["carrier_frequency_hz"]
    if draw(st.integers(0, 3)):
        # the delay 2 R B / c and f_d / B, drawn inside their bounds
        delay = draw(st.floats(0.01, scenario["guard_length"] + 0.49))
        range_m = delay * C_LIGHT / (2 * bandwidth)
        rcs = draw(st.floats(1e-3, 1e3))
        velocity = draw(st.floats(-0.49, 0.49)) * bandwidth * wavelength / 2
    else:
        range_m = draw(st.one_of(st.floats(1.0, 400.0), st.floats(1e-40, 1e40)))
        rcs = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)))
        velocity = draw(st.floats(-3e5, 3e5))
    return {"range_m": range_m, "rcs_m2": rcs, "direction_deg": draw(st.floats(-90.0, 90.0)),
            "radial_velocity_m_s": velocity}


# Small configs that pass every per-field check; the checks across fields (the
# guard, the block, the round-trip gain, the Doppler span, the sector order, the
# OFDM size) may still reject one with exit code 2.
RUN_CONFIGS = run_scenarios().flatmap(lambda scenario: st.fixed_dictionaries({
    "scenario": st.just(scenario),
    "channel": st.fixed_dictionaries({
        "num_paths": st.integers(1, 8), "max_subpaths": st.integers(1, 4),
        "aod_sector_deg": st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2)
                          .filter(lambda pair: pair[0] < pair[1])}),
    "target": run_targets(scenario),
    "experiment": st.fixed_dictionaries({
        "trials": st.integers(1, 3), "seed": st.integers(0, 2 ** 64 - 1),
        "gamma_th_grid_db": st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=3),
        "mc_block_length": st.integers(100, 1024),
        "isac_gamma_fraction": st.floats(0.0, 1.0),
        "sweep_num_paths": st.lists(st.integers(1, 8), min_size=1, max_size=2),
        "ofdm_subcarriers": st.integers(4, 100),
        "beampattern_aods_deg": st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=5),
        "modulation": st.sampled_from(["bpsk", "qpsk", "psk8", "gaussian"]),
        "strict_ambiguity": st.booleans()}),
}))


def _nonfinite_allowed(name, column, value, row):
    """The documented non-finite CSV values: se_sweep's mean SE with no feasible
    trial (nan) and the SNR in dB of an echo that misses the stream (-inf)."""
    if name == "se_sweep.csv":
        return column == "mean_se_bps_hz" and math.isnan(value) and row["feasible"] == "0"
    return name == "ofdm_compare.csv" and column == "empirical_snr_db" and value == -math.inf


def _small_run(dbm, psd):
    """A small run at transmit power dbm and noise PSD psd."""
    return {"scenario": {"transmit_power_dbm": dbm, "noise_psd_dbm_hz": psd},
            "channel": {"num_paths": 2},
            "experiment": {"trials": 1, "mc_block_length": 512, "ofdm_subcarriers": 64,
                           "sweep_num_paths": [2]}}


@settings(max_examples=50, derandomize=True, database=None,
          deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(doc=RUN_CONFIGS)
# powers whose SNR scales leave the float range, each of which must exit 2, and
# the bounds' corners, where P / sigma^2 is largest and smallest
@example(doc=_small_run(-3100.0, -169.0))
@example(doc=_small_run(-3180.0, -169.0))
@example(doc=_small_run(3000.0, -169.0))
@example(doc=_small_run(500.0, -500.0))
@example(doc=_small_run(-500.0, 500.0))
def test_any_small_valid_config_runs_or_exits_2(tmp_path_factory, doc):
    # every experiment through the CLI: exit 0, or 2 with a message that names
    # a field; no warning but the guard's; every CSV number finite or documented
    root = tmp_path_factory.mktemp("run")
    cfgfile = write_config(root, doc)
    for experiment in EXPERIMENTS:
        out, stderr = root / experiment, io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([experiment, "--config", str(cfgfile), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2), (experiment, err)
        for w in caught:
            assert w.category is UserWarning and "exceeds guard length" in str(w.message), \
                (experiment, w)
        if code == 2:
            field_name = re.match(r"error: (\w+)\.(\w+)", err)
            assert field_name and field_name[2] in _SCHEMA.get(field_name[1], ()), err
            continue
        for path in out.glob("*.csv"):
            lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            for row in csv.DictReader(lines):
                for column, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue            # a label or the solver status
                    assert math.isfinite(value) or _nonfinite_allowed(
                        path.name, column, value, row), (experiment, path.name, column, row)


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
    for f in (problem.solve(0.0).beamformer.beam_matrix,
              problem.solve(problem.gamma_zf_max).beamformer.beam_matrix, isac.beam_matrix):
        for _ in range(5):
            turned = f * np.exp(2j * np.pi * rng.uniform(size=f.shape[1]))
            for columns in (None, [0]):
                assert np.max(np.abs(_pattern_db(f, angles, columns)
                                     - _pattern_db(turned, angles, columns))) <= 1e-9


@pytest.mark.blas
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
        channel = generate_multipath_channels(s, gen, [cfg.rng(0, 0, trial)])[0]
        bf = zf_mrt(channel, s.transmit_power_w)
        gamma = np.abs(aligned_gain(bf, channel)) ** 2 / s.noise_power_w
        se.append(s.data_length / s.block_length * np.log2(1.0 + gamma))
    assert row["mean_se_bps_hz"] == pytest.approx(np.mean(se), rel=1e-9)


def test_se_sweep_counts_infeasible(tmp_path):
    cfg = load_config(None)
    cfg.trials = 2
    cfg.sweep_num_paths = (3,)
    cfg.gamma_th_grid_db = np.array([80.0])      # far above any ZF ceiling
    row = run_se_sweep(cfg)[0]
    assert row["infeasible"] == 2 and row["feasible"] == 0
    assert np.isnan(row["mean_se_bps_hz"])       # no feasible trial: no mean


def test_se_sweep_matches_the_one_solve_oracle(monkeypatch):
    # a grid across some trials' ZF ceilings (22.3-22.6 dB here), so feasible
    # and infeasible rows share a stacked call, and one above all of them;
    # with 7 * 3 rows per call the eight trials also split over three calls
    cfg = load_config(None)
    cfg.trials = 8
    cfg.sweep_num_paths = (5, 10)
    cfg.gamma_th_grid_db = np.array([0.0, 10.0, 22.4, 22.55, 22.6, 22.62, 30.0])
    oracle = se_sweep_rows(cfg)
    assert any(r["feasible"] and r["infeasible"] for r in oracle)
    assert any(r["feasible"] == 0 for r in oracle)
    for chunk_rows in (experiments._SWEEP_ROWS, 7 * 3):
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", chunk_rows)
        rows = run_se_sweep(cfg)
        assert len(rows) == len(oracle) == 14
        for row, want in zip(rows, oracle):
            for key in ("gamma_th_db", "num_paths", "feasible", "infeasible"):
                assert row[key] == want[key]
            assert row["mean_se_bps_hz"] == pytest.approx(want["mean_se_bps_hz"], rel=1e-12,
                                                          nan_ok=True)


def dd_map_scene(cfg):
    """The dd-map design, symbol block and target, rebuilt from its keyed streams."""
    s = cfg.scenario
    channel = generate_multipath_channels(s, cfg.channel_gen, [cfg.rng(1, 0)])[0]
    target = cfg.radar_target(cfg.rng(1, 1))
    problem = IsacProblem(channel, target.direction, target.gain, s.data_length,
                          s.transmit_power_w, s.noise_power_w)
    bf = problem.solve(cfg.isac_gamma_fraction * problem.gamma_zf_max).beamformer
    block = generate_symbols(cfg.rng(1, 2), min(s.data_length, cfg.mc_block_length),
                             cfg.modulation)
    return bf, block, target


def finite_block_snr(bf, block, target, noise_power):
    """|alpha|^2 c^H R_p c / sigma^2 with c^H = a^H F and R_p the stream
    correlation over the N - p samples a delay p keeps: the matched-filter SNR
    of one block's noise-free echo, whose expectation is |alpha|^2 N ||c||^2 / sigma^2."""
    c = np.conj(bf.beam_matrix.T) @ steering_vector(target.direction, bf.num_antennas)
    p = target.delay_symbols
    r_p = correlation_matrix(block, bf.delay_schedule, p, p)
    return abs(target.gain) ** 2 * np.vdot(c, r_p @ c).real / noise_power


def test_dd_map_report(tmp_path):
    cfg = load_config(None)
    cfg.mc_block_length = 8192
    cfg.output_dir = tmp_path
    rep = run_dd_map(cfg)
    assert rep["true_delay_bin"] == 133
    assert rep["est_delay_bin"] == 133
    assert rep["true_doppler_hz"] == pytest.approx(2 * 15.0 / cfg.scenario.wavelength_m)
    res = 1.0 / (rep["mc_block_length"] * cfg.scenario.symbol_duration_s)
    assert abs(rep["est_doppler_hz"] - rep["true_doppler_hz"]) <= res
    assert rep["gamma_p_empirical"] == pytest.approx(
        finite_block_snr(*dd_map_scene(cfg), cfg.scenario.noise_power_w), rel=1e-12)
    assert rep["gamma_p_analytic_full"] >= rep["gamma_th"] * (1 - 1e-6)
    assert (tmp_path / "dd_map.csv").exists()
    report_lines = (tmp_path / "dd_report.csv").read_text().splitlines()
    assert report_lines[0].startswith("# config_hash=")
    assert report_lines[1] == "# n_c=100000 n_p=200 n=99800"


@pytest.mark.parametrize("modulation", ["qpsk", "gaussian"])
def test_dd_map_empirical_snr_is_the_finite_block_form(modulation):
    """gamma_p_empirical is the exact SNR of the simulated block, not its
    expectation: it pins to the c^H R_p c form and sits off the analytic
    N ||c||^2 value by the block's own stream correlation."""
    cfg = load_config(None)
    cfg.mc_block_length = 2048
    cfg.modulation = modulation
    rep = run_dd_map(cfg)
    exact = finite_block_snr(*dd_map_scene(cfg), cfg.scenario.noise_power_w)
    assert rep["gamma_p_empirical"] == pytest.approx(exact, rel=1e-12)
    assert abs(exact / rep["gamma_p_analytic_mc"] - 1) > 1e-4


def test_dd_map_does_not_read_trials(tmp_path):
    # the map and the report below the header are the same for any trial count
    cfgfile = write_config(tmp_path, {"experiment": {"mc_block_length": 1024}})

    def body(trials):
        out = tmp_path / f"trials{trials}"
        assert main(["dd-map", "--config", str(cfgfile), "--trials", str(trials),
                     "--out", str(out)]) == 0
        return {name: [line for line in (out / name).read_bytes().splitlines()
                       if not line.startswith(b"#")]
                for name in ("dd_map.csv", "dd_report.csv")}

    assert body(1) == body(7)



def test_dd_map_at_the_ceiling_on_a_short_block_never_exits_1(tmp_path, capsys):
    # at isac_gamma_fraction 1.0 all power goes to one stream, whose delay
    # kappa can leave the delays near the guard with no template energy in a
    # 300-sample block. These seeds exited 1 with "zero template". The window
    # ends at the last delay that holds energy, and a truth past it (seeds 2
    # and 5; at seed 6 the truth is that delay) leaves no echo energy in the
    # block, so its empirical SNR is exactly 0: exit 0, never 1, and only
    # finite numbers in the CSVs.
    cfgfile = write_config(tmp_path, {"experiment": {"mc_block_length": 300,
                                                     "isac_gamma_fraction": 1.0}})
    empirical = {}
    for seed in (1, 2, 4, 5, 6):
        out = tmp_path / f"seed{seed}"
        code = main(["dd-map", "--config", str(cfgfile), "--seed", str(seed),
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        for name in ("dd_map.csv", "dd_report.csv"):
            rows = list(csv.reader(line for line in (out / name).read_text().splitlines()
                                   if not line.startswith("#")))
            for row in rows[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue            # the solver status
                    assert math.isfinite(value), (name, row)
        empirical[seed] = float(dict(zip(*rows))["gamma_p_empirical"])
    assert {seed for seed, value in empirical.items() if value == 0.0} == {2, 5}
    assert all(empirical[seed] > 0 for seed in (1, 4, 6)), empirical


def test_dd_map_with_every_stream_past_the_block_exits_2(tmp_path, capsys):
    # at the ceiling all power goes to one stream; at these seeds its delay
    # kappa lies past a 150-sample block, so the target sees none of it. These
    # runs exited 1 with "zero template"; seed 0 keeps a stream inside.
    cfgfile = write_config(tmp_path, {"scenario": {"guard_length": 265},
                                      "experiment": {"mc_block_length": 150,
                                                     "isac_gamma_fraction": 1.0}})
    for seed, expected in ((0, 0), (1, 2), (2, 2)):
        code = main(["dd-map", "--config", str(cfgfile), "--seed", str(seed)])
        err = capsys.readouterr().err
        assert code == expected, err
        if code:
            assert err.startswith("error: experiment.mc_block_length=150: "), err


def test_dd_map_default_window_is_every_delay_up_to_the_guard(tmp_path):
    cfg = load_config(None)
    cfg.output_dir = tmp_path
    run_dd_map(cfg)
    lines = [line for line in (tmp_path / "dd_map.csv").read_text().splitlines()
             if not line.startswith("#")]
    delays = [int(line.split(",", 1)[0]) for line in lines[1:]]
    assert delays == list(range(cfg.scenario.guard_length + 1))


def test_dd_map_csv_layout(tmp_path, monkeypatch):
    # the header is delay_bin, then the repr of each Doppler bin of the grid;
    # one row per delay, each cell 10 log10(max(|r|^2, 1e-300)) of the map
    maps = []

    def kept(*args):
        maps.append(delay_doppler_map(*args))
        return maps[-1]

    monkeypatch.setattr(sensing, "delay_doppler_map", kept)
    cfg = load_config(None)
    cfg.mc_block_length = 1024
    cfg.output_dir = tmp_path
    run_dd_map(cfg)
    ddmap, = maps
    lines = (tmp_path / "dd_map.csv").read_text().splitlines()
    assert lines[:3] == [f"# config_hash={cfg.config_hash()} seed=0",
                         "# n_c=100000 n_p=200 n=99800", "# n_mc=1024"]
    rows = list(csv.reader(lines[3:]))
    grid = ddmap.grid
    assert rows[0] == ["delay_bin"] + [repr(float(f)) for f in grid.doppler_bins_hz]
    power_db = 10 * np.log10(np.maximum(np.abs(ddmap.values) ** 2, 1e-300))
    assert rows[1:] == [[str(d)] + [repr(float(v)) for v in row]
                        for d, row in zip(grid.delay_bins, power_db)]


def test_unit_template_noise_variance():
    """The exact SNRs divide by sigma^2 ||u||^2; this checks that noise drawn
    the way the runs draw it has that variance through a unit template:
    sigma^2 for DAM (apply_radar_channel, per sample) and sigma^2 / K for OFDM
    per frequency-domain cell, which the runs draw directly: here the same
    time-domain noise goes through ofdm_demodulate, whose DFT / K leaves it.

    Over T draws, sum_t |r_t|^2 / v ~ Gamma(T, 1). By the Chernoff bound its
    mean m leaves [1 - e, 1 + e] with probability at most
    exp(-T (e - ln(1 + e))) + exp(-T (-e - ln(1 - e))); T = 1000, e = 0.2 give
    2.1e-8 per scheme, the false-fail probability over noise seeds. A factor 2
    (real against complex noise) or K (the per-cell scale) fails it."""
    trials, eps = 1000, 0.2
    false_fail = (math.exp(-trials * (eps - math.log1p(eps)))
                  + math.exp(-trials * (-eps - math.log1p(-eps))))
    assert false_fail < 3e-8
    cfg = load_config(None)
    s = cfg.scenario
    n_mc, k, num_paths, sigma2 = 1024, 64, cfg.channel_gen.num_paths, s.noise_power_w
    t_s = s.symbol_duration_s
    target = cfg.radar_target(cfg.rng(2, 0))
    theta = target.direction
    rng = np.random.default_rng(11)

    bf = DamBeamformer.steered(theta, s.num_antennas, s.transmit_power_w, np.arange(num_paths))
    block = generate_symbols(rng, n_mc, "qpsk")
    tx = build_dam_block(block, bf)
    u = matched_filter_template(bf, block, theta, target.delay_symbols, target.doppler_hz,
                                t_s)
    clean = np.vdot(u, apply_radar_channel(target, tx, t_s))
    r = [np.vdot(u, apply_radar_channel(target, tx, t_s, sigma2, rng)) - clean
         for _ in range(trials)]
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.mean(np.abs(r) ** 2) / sigma2 - 1) < eps

    scen_mc = dataclasses.replace(s, coherence_time_s=(n_mc + s.guard_length) * t_s)
    ocfg = OfdmConfig.steered(scen_mc, k, theta)
    grid = generate_symbols(rng, k * ocfg.symbols_per_block, "qpsk").symbols.reshape(
        k, ocfg.symbols_per_block, order="F")
    tx = ofdm_time_domain(ocfg, grid)
    u = ofdm_demodulate(ocfg, apply_radar_channel(dataclasses.replace(target, gain=1.0 + 0j),
                                                  tx, t_s))
    u /= np.linalg.norm(u)
    clean = np.vdot(u, ofdm_demodulate(ocfg, apply_radar_channel(target, tx, t_s)))
    r = [np.vdot(u, ofdm_demodulate(ocfg, apply_radar_channel(target, tx, t_s, sigma2, rng)))
         - clean for _ in range(trials)]
    assert abs(np.mean(np.abs(r) ** 2) / (sigma2 / k) - 1) < eps


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
    assert rep["true_delay_bin"] == 300
    assert rep["est_delay_bin"] == rep["true_delay_bin"]


def scheme_cells(rows, column):
    """{scheme: its cell in column}, the one value both of its regimes' rows hold."""
    cells = {(r["scheme"], r[column]) for r in rows}
    assert len(cells) == 2, cells
    return dict(cells)


def test_ofdm_compare_result(tmp_path):
    cfg = load_config(None)
    cfg.trials = 50
    cfg.mc_block_length = 2048
    cfg.ofdm_subcarriers = 256
    # a stronger reflector keeps the reduced-length fast-target demo at a
    # comfortably detectable SNR
    cfg.target = dataclasses.replace(cfg.target, rcs_m2=25.0)
    cfg.output_dir = tmp_path
    rows = run_ofdm_compare(cfg)
    assert len(rows) == 4
    schemes = {(r["scheme"], r["regime"]) for r in rows}
    assert schemes == {("dam", "average_power"), ("dam", "peak_power"),
                       ("ofdm", "average_power"), ("ofdm", "peak_power")}
    by = {(r["scheme"], r["regime"]): r for r in rows}
    # peak-power gap collapses to N / (L I)
    n_mc, l = 2048, cfg.channel_gen.num_paths
    i_sym = (n_mc + 200) // (256 + 200)
    gap_db = (by[("dam", "peak_power")]["analytic_snr_db"]
              - by[("ofdm", "peak_power")]["analytic_snr_db"])
    assert gap_db == pytest.approx(10 * np.log10(n_mc / (l * i_sym)), abs=1e-9)
    # the empirical SNRs are exact: OFDM's equals sensing_snr at its I symbols
    # and its noise sigma^2 / K, and each DAM row is the finite-block form of
    # the run's symbol block
    s, sigma2 = cfg.scenario, cfg.scenario.noise_power_w
    target = cfg.radar_target(cfg.rng(2, 0))
    block = generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation)
    a = steering_vector(target.direction, s.num_antennas)
    f_full = np.sqrt(s.transmit_power_w / (s.num_antennas * l)) * np.tile(a[:, None], (1, l))
    scen_mc = dataclasses.replace(s, coherence_time_s=(n_mc + 200) * s.symbol_duration_s)
    for regime, dam_scale, ofdm_power in (("average_power", 1.0, s.transmit_power_w),
                                          ("peak_power", l ** -0.5, s.transmit_power_w / 256)):
        bf = DamBeamformer.aligned(dam_scale * f_full, np.arange(l))
        ocfg = OfdmConfig.steered(dataclasses.replace(scen_mc, transmit_power_w=ofdm_power),
                                  256, target.direction)
        for scheme, want in (("dam", finite_block_snr(bf, block, target, sigma2)),
                             ("ofdm", sensing_snr(ocfg.beamformers, target.direction,
                                                  target.gain, ocfg.symbols_per_block,
                                                  sigma2 / 256))):
            got = 10 ** (by[(scheme, regime)]["empirical_snr_db"] / 10)
            assert got == pytest.approx(want, rel=1e-12), (scheme, regime)
    papr = scheme_cells(rows, "papr_empirical")
    rate = scheme_cells(rows, "doppler_recovery_rate")
    assert papr["ofdm"] > papr["dam"]
    assert rate["dam"] >= 0.9
    assert rate["ofdm"] == 0.0
    lines = (tmp_path / "ofdm_compare.csv").read_text().splitlines()
    assert lines[2].startswith("# n_mc=2048 peak_snr_ratio=")
    assert len(lines) == 4 + 4


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.blas
def test_ofdm_compare_peak_power_rows_are_the_derated_average_power_rows(tmp_path, seed):
    # the peak-power design is the full-power one scaled by 1/sqrt(L) or
    # 1/sqrt(K), so both its SNRs are the average-power ones less 10 log10(L)
    # or 10 log10(K) dB. The CSV takes 10 log10(x / L), this test
    # 10 log10(x) - 10 log10(L): they differ by the rounding of one quotient
    # and three logarithms of values below 1e3 dB, under 1e-12 dB
    cfg = load_config(None, {"seed": seed, "trials": 1})
    cfg.output_dir = tmp_path
    run_ofdm_compare(cfg)
    lines = (tmp_path / "ofdm_compare.csv").read_text().splitlines()
    rows = {(r["scheme"], r["regime"]): r
            for r in csv.DictReader(line for line in lines if not line.startswith("#"))}
    derate = {"dam": cfg.channel_gen.num_paths, "ofdm": cfg.ofdm_subcarriers}
    for scheme, bound in derate.items():
        average, peak = rows[(scheme, "average_power")], rows[(scheme, "peak_power")]
        assert int(peak["k_or_l"]) == bound
        for column in ("analytic_snr_db", "empirical_snr_db"):
            assert float(peak[column]) == pytest.approx(
                float(average[column]) - 10 * math.log10(bound), rel=0, abs=1e-12), \
                (scheme, column)


# the default config at two seeds; one antenna and one path with a prefix
# longer than the symbol and K + N_p = 207 odd; a wide array; many paths on
# one antenna with Gaussian symbols and a short guard
@pytest.mark.parametrize("doc, seed", [
    ({}, 0), ({}, 5),
    ({"scenario": {"num_antennas": 1}, "channel": {"num_paths": 1},
      "experiment": {"mc_block_length": 600, "ofdm_subcarriers": 7}}, 0),
    ({"scenario": {"num_antennas": 17}, "channel": {"num_paths": 3},
      "experiment": {"mc_block_length": 999, "ofdm_subcarriers": 5, "modulation": "psk8"}}, 3),
    ({"scenario": {"num_antennas": 1, "guard_length": 10}, "target": {"range_m": 12.0},
      "channel": {"num_paths": 4},
      "experiment": {"mc_block_length": 700, "ofdm_subcarriers": 8,
                     "modulation": "gaussian"}}, 2),
])
@pytest.mark.blas
def test_ofdm_compare_papr_is_that_of_the_m_row_transmits(tmp_path, doc, seed):
    # the run takes each PAPR from the sequence the target sees, a^H x[n]; its
    # designs are steered, x[n] = a(theta) u[n], so that is the PAPR of the
    # M-row transmit, built here. A per-sample power differs from the oracle's
    # by the rounding of M-term sums (a^H f_l or a^H w_k in the run, the axis-0
    # power sum here) and of the L-stream sum or the K-point inverse DFT (of
    # order log2 K): a relative (M + L + log2 K) eps in the peak and in the
    # mean, so twice that in their ratio
    cfg = load_config(write_config(tmp_path, doc), {"seed": seed, "trials": 1})
    papr = scheme_cells(run_ofdm_compare(cfg), "papr_empirical")
    s = cfg.scenario
    m, l, k = s.num_antennas, cfg.channel_gen.num_paths, cfg.ofdm_subcarriers
    n_mc = min(s.data_length, cfg.mc_block_length)
    theta = cfg.radar_target(cfg.rng(2, 0)).direction
    a = steering_vector(theta, m)
    f = np.sqrt(s.transmit_power_w / (m * l)) * np.tile(a[:, None], (1, l))
    dam = build_dam_block(generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation),
                          DamBeamformer.aligned(f, np.arange(l)))
    scen_mc = dataclasses.replace(s, coherence_time_s=(n_mc + s.guard_length)
                                  * s.symbol_duration_s)
    ocfg = OfdmConfig.steered(scen_mc, k, theta)
    grid = generate_symbols(cfg.rng(2, 2), k * ocfg.symbols_per_block, cfg.modulation)
    stream = ofdm_time_domain(ocfg, grid.symbols.reshape(k, -1, order="F"))
    tol = 2 * (m + l + math.log2(k)) * np.finfo(float).eps
    assert papr["dam"] == pytest.approx(papr_empirical(dam), rel=tol, abs=0)
    assert papr["ofdm"] == pytest.approx(papr_empirical(stream), rel=tol, abs=0)


def test_ofdm_compare_builds_no_array_transmit():
    # every echo and PAPR comes from the factored transmit, so at the default
    # M and n_mc the run's traced peak stays below one M x n_mc complex
    # transmit, 16 M n_mc bytes; building the DAM block or the OFDM stream
    # alone would reach it
    cfg = load_config(None)
    cfg.trials = 2
    s = cfg.scenario
    n_mc = min(s.data_length, cfg.mc_block_length)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_ofdm_compare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * s.num_antennas * n_mc


@pytest.mark.parametrize("n_p", [0, 200, 2000])
@pytest.mark.parametrize("k", [4, 64, 1024])
@pytest.mark.blas
def test_no_ofdm_doppler_bin_reaches_the_fast_target(tmp_path, k, n_p):
    # why ofdm-compare reports an OFDM fast-target rate of 0 without a trial:
    # the estimate is a bin of fftfreq(I, (K + N_p) T_s), all within
    # 1/(2 (K + N_p) T_s) <= df/2 of zero, so none lies within df of the fast
    # target at 2 df; N_p = 2000 puts the prefix beyond the symbol
    cfg = load_config(write_config(tmp_path, {"scenario": {"guard_length": n_p},
                                              "experiment": {"ofdm_subcarriers": k}}))
    s = cfg.scenario
    n_mc = min(s.data_length, cfg.mc_block_length)
    scen_mc = dataclasses.replace(s, coherence_time_s=(n_mc + n_p) * s.symbol_duration_s)
    ocfg = OfdmConfig.steered(scen_mc, k, cfg.target.direction_rad)
    assert ocfg.guard_length == n_p and ocfg.num_subcarriers == k
    df = ocfg.subcarrier_spacing_hz
    axis = np.fft.fftfreq(ocfg.symbols_per_block, ocfg.total_symbol_duration_s)
    assert np.all(np.abs(axis) <= df / 2)
    assert np.all(np.abs(axis - 2 * df) > df)


@pytest.mark.blas
def test_ofdm_compare_runs_no_ofdm_fast_target_trial(monkeypatch):
    # the OFDM rate is the constant above: no OFDM estimate and no OFDM noise
    # stream, rng(2, 10, t); each DAM trial draws from its own stream
    cfg = load_config(None)
    cfg.trials = 13
    cfg.mc_block_length = 2048
    cfg.ofdm_subcarriers = 256

    def no_estimate(*args):
        raise AssertionError("ofdm-compare made an OFDM estimate")

    keys = []
    real_rng = ExperimentConfig.rng

    def recorded_rng(self, *key):
        keys.append(key)
        return real_rng(self, *key)

    monkeypatch.setattr(experiments.ofdm, "ofdm_delay_doppler_estimate", no_estimate)
    monkeypatch.setattr(ExperimentConfig, "rng", recorded_rng)
    assert scheme_cells(run_ofdm_compare(cfg), "doppler_recovery_rate")["ofdm"] == 0.0
    assert not [key for key in keys if key[:2] == (2, 10)]
    assert sorted(keys) == [(2, 0), (2, 1), (2, 2)] + [(2, 9, t) for t in range(13)]


def fast_target_window(cfg):
    """run_ofdm_compare's DAM fast-target set-up, rebuilt by hand: the
    full-power aligned beamformer, the symbol block, the OFDM grid's
    configuration, the fast target at twice its subcarrier spacing with the
    resolution-spaced window around it, and its noise-free echo through the
    M-row transmit."""
    s = cfg.scenario
    n_mc = min(s.data_length, cfg.mc_block_length)
    t_s = s.symbol_duration_s
    k, l, m = cfg.ofdm_subcarriers, cfg.channel_gen.num_paths, s.num_antennas
    scen_mc = dataclasses.replace(s, coherence_time_s=(n_mc + s.guard_length) * t_s)
    target = cfg.radar_target(cfg.rng(2, 0))
    a = steering_vector(target.direction, m)
    bf = DamBeamformer.aligned(np.sqrt(s.transmit_power_w / (m * l)) * np.tile(a[:, None], (1, l)),
                               np.arange(l))
    ocfg = OfdmConfig.steered(scen_mc, k, target.direction)
    f_fast = 2.0 * ocfg.subcarrier_spacing_hz
    fast = dataclasses.replace(target, doppler_hz=f_fast)
    block = generate_symbols(cfg.rng(2, 1), n_mc, cfg.modulation)
    res = 1.0 / (n_mc * t_s)
    grid = SensingGrid.refine(target.delay_symbols, res * round(f_fast / res), n_mc, t_s,
                              delay_half_width=3)
    return SimpleNamespace(
        bf=bf, block=block, ocfg=ocfg, theta=target.direction, fast=fast, f_fast=f_fast,
        res=res, grid=grid, t_s=t_s, sigma2=s.noise_power_w,
        clean=apply_radar_channel(fast, build_dam_block(block, bf), t_s))


def fast_target_hit_rates_oracle(cfg):
    """The ofdm-compare fast-target trials one at a time in the sample domain:
    each trial draws its keyed noise over the whole echo for each scheme, then
    makes one map and one OFDM estimate."""
    w = fast_target_window(cfg)
    k, ocfg = cfg.ofdm_subcarriers, w.ocfg
    tx_freq = generate_symbols(cfg.rng(2, 2), k * ocfg.symbols_per_block,
                               cfg.modulation).symbols.reshape(k, -1, order="F")
    oclean = ofdm_demodulate(ocfg, apply_radar_channel(w.fast, ofdm_time_domain(ocfg, tx_freq),
                                                       w.t_s))
    dam_hits = ofdm_hits = 0
    for t in range(cfg.trials):
        echo = w.clean + complex_normal(cfg.rng(2, 9, t), w.clean.shape, w.sigma2)
        _, f_hat, _ = estimate_delay_doppler(
            delay_doppler_map(echo, w.bf, w.block, w.theta, w.grid))
        dam_hits += abs(f_hat - w.f_fast) <= w.res
        oecho = oclean + complex_normal(cfg.rng(2, 10, t), oclean.shape, w.sigma2 / k)
        _, f_hat_o, _ = ofdm_delay_doppler_estimate(oecho, ocfg, tx_freq)
        ofdm_hits += abs(f_hat_o - w.f_fast) <= ocfg.subcarrier_spacing_hz
    return dam_hits / cfg.trials, ofdm_hits / cfg.trials


# every Doppler bin of an N = 8 block in the fast target's window, which ends
# at B/2: the differences of its bins reach 7B/8 and must wrap into (-B/2, B/2]
EVERY_DOPPLER_BIN = {"experiment": {"mc_block_length": 8, "ofdm_subcarriers": 4, "trials": 5},
                     "scenario": {"guard_length": 2}, "target": {"range_m": 3}}
# a window clipped at B/2 to 9 of its 17 bins
CLIPPED_AT_HALF_BAND = {"experiment": {"mc_block_length": 64, "ofdm_subcarriers": 4},
                        "scenario": {"guard_length": 2}, "target": {"range_m": 3}}


@pytest.mark.parametrize("doc, num_doppler", [({}, 17), (CLIPPED_AT_HALF_BAND, 9),
                                              (EVERY_DOPPLER_BIN, 8)])
@pytest.mark.blas
def test_fast_target_cell_gram_is_the_dense_templates_gram(tmp_path, doc, num_doppler):
    # G from one lag product equals T^H T of the dense templates, and the
    # draws' factor C has C C^H = G, each to 1e-12
    w = fast_target_window(load_config(write_config(tmp_path, doc)))
    assert w.grid.shape[1] == num_doppler
    if doc:
        assert w.grid.doppler_bins_hz[-1] == 0.5 / w.t_s
    gram = template_gram(projected_dam_block(w.block, w.bf, w.theta), w.grid)
    t = dense_templates(w.block, w.bf, w.theta, w.grid)
    assert np.max(np.abs(gram - t.conj().T @ t)) <= 1e-12
    assert np.array_equal(gram, gram.conj().T)
    root = experiments._gram_root(gram)
    assert np.max(np.abs(root @ root.conj().T - gram)) <= 1e-12


def small_fast_target_window():
    cfg = load_config(None)
    cfg.mc_block_length, cfg.ofdm_subcarriers = 2048, 256
    return fast_target_window(cfg)


# a window from delay 0, whose lag product runs over the whole block; one
# delay (P = 1), whose tails are all empty; one at the last delay with a
# template, 2047 = N - 1; and unsorted delays with a repeat, whose entries
# past the diagonal come from the lag product as well
@pytest.mark.parametrize("delays", [range(7), [133], [2047], [9, 2, 5, 2]])
@pytest.mark.blas
def test_template_gram_of_any_delay_window_is_the_dense_templates_gram(delays):
    w = small_fast_target_window()
    grid = SensingGrid(list(delays), w.grid.doppler_bins_hz, w.t_s, w.grid.block_length)
    gram = template_gram(projected_dam_block(w.block, w.bf, w.theta), grid)
    t = dense_templates(w.block, w.bf, w.theta, grid)
    assert np.max(np.abs(gram - t.conj().T @ t)) <= 1e-12
    assert np.array_equal(gram, gram.conj().T)


@pytest.mark.blas
def test_template_gram_needs_doppler_bins_one_resolution_apart():
    # G is built from the Doppler differences (q - q') / (N T_s): a survey
    # grid, 1/(128 T_s) apart, or a window with a bin left out is refused
    w = small_fast_target_window()
    seen = projected_dam_block(w.block, w.bf, w.theta)
    n, bins = w.grid.block_length, w.grid.doppler_bins_hz
    for grid in (SensingGrid.survey(140, n, w.t_s),
                 SensingGrid(w.grid.delay_bins, np.delete(bins, 4), w.t_s, n)):
        with pytest.raises(ValueError, match=re.escape("f_0 + q / (N T_s)")):
            template_gram(seen, grid)


@pytest.mark.blas
def test_ofdm_compare_makes_one_map_and_one_lag_product(monkeypatch):
    # the fast target's noise-free map and the Gram's one lag product are the
    # run's only blocked map products: a map per window delay for G would
    # add seven
    calls = []

    def counted(name):
        real = getattr(sensing, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(sensing, name, call)

    for name in ("delay_doppler_map", "template_gram", "_blocked_map"):
        counted(name)
    run_ofdm_compare(load_config(None))
    assert sorted(calls) == ["_blocked_map"] * 2 + ["delay_doppler_map", "template_gram"]


@pytest.mark.blas
def test_fast_target_hits_match_the_dense_cell_oracle():
    # 13 trials at a reflector weak enough that the DAM rate is neither 0 nor
    # 1; the oracle builds each trial's cells from the dense templates T and
    # the trial's keyed P Q normals z: T^H clean + (T^H T)^(1/2) z
    cfg = load_config(None)
    cfg.trials = 13
    cfg.target = dataclasses.replace(cfg.target, rcs_m2=0.2)
    w = fast_target_window(cfg)
    t = dense_templates(w.block, w.bf, w.theta, w.grid)
    lam, v = np.linalg.eigh(t.conj().T @ t)
    root = v @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
    mean = t.conj().T @ w.clean
    hits = 0
    for trial in range(cfg.trials):
        z = complex_normal(cfg.rng(2, 9, trial), mean.size, w.sigma2)
        _, f_hat, _ = estimate_delay_doppler(
            DelayDopplerMap((mean + root @ z).reshape(w.grid.shape), w.grid))
        hits += abs(f_hat - w.f_fast) <= w.res
    assert 0 < hits < cfg.trials
    assert scheme_cells(run_ofdm_compare(cfg), "doppler_recovery_rate")["dam"] \
        == hits / cfg.trials


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.blas
def test_fast_target_rate_is_the_sample_domain_rate(seed):
    # the cell-domain draws are exact in distribution: over 4 000 trials their
    # DAM rate is within 4 standard deviations of the difference of two
    # independent binomial rates, sqrt(p (1 - p) (1/4000 + 1/400)) at the
    # pooled p, of the sample-domain oracle's over 400 trials. At N = 2048
    # the rate is about 0.53, and the bound about 0.105; white cells read
    # 0.65-0.71, and noise 1.5 dB too strong 0.41-0.45.
    def config(trials):
        cfg = load_config(None)
        cfg.seed, cfg.trials = seed, trials
        cfg.mc_block_length, cfg.ofdm_subcarriers = 2048, 256
        return cfg

    rate = scheme_cells(run_ofdm_compare(config(4000)), "doppler_recovery_rate")["dam"]
    oracle_rate, ofdm_rate = fast_target_hit_rates_oracle(config(400))
    assert ofdm_rate == 0.0
    pooled = (4000 * rate + 400 * oracle_rate) / 4400
    assert 0.2 < pooled < 0.8
    assert abs(rate - oracle_rate) <= 4 * math.sqrt(pooled * (1 - pooled) * (1 / 4000 + 1 / 400))


@pytest.mark.blas
def test_fast_target_memory_does_not_grow_with_trials():
    # the trials' cells are drawn and picked in chunks: the traced peak at
    # 20 000 trials stays within 4 chunks' cells, 16 P Q bytes per trial, of
    # the peak at one trial; one (trials, P Q) array of draws would be 38 MB
    def peak(trials):
        cfg = load_config(None)
        cfg.trials, cfg.mc_block_length, cfg.ofdm_subcarriers = trials, 2048, 256
        tracemalloc.start()
        try:
            run_ofdm_compare(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) < peak(1) + 4 * experiments._CELL_CHUNK * 16 * 7 * 17


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


@pytest.mark.parametrize("experiment", ["se-sweep", "ofdm-compare", "dd-map"])
def test_returned_rows_are_the_csv_rows(tmp_path, experiment):
    # the header holds each row's keys, and each line one row's values;
    # dd-map returns the one row of dd_report.csv
    cfg = load_config(write_config(tmp_path, {"experiment": SMALL}))
    cfg.output_dir = tmp_path
    rows = cli._RUNNERS[experiment](cfg)
    if experiment == "dd-map":
        rows, name = [rows], "dd_report.csv"
    else:
        name = experiment.replace("-", "_") + ".csv"
    lines = [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]
    table = list(csv.reader(lines))
    assert table[0] == list(rows[0])
    assert table[1:] == [[str(experiments._fmt(v)) for v in row.values()] for row in rows]


def test_cli_se_sweep_above_every_ceiling(tmp_path, capsys):
    # no trial can meet a 60 or 80 dB floor: the run succeeds and says so
    out = tmp_path / "out"
    code = main(["se-sweep", "--config", str(small_sweep_config(tmp_path)), "--trials", "3",
                 "--gamma-th-grid", "60:80:20", "--out", str(out)])
    assert code == 0
    lines = (out / "se_sweep.csv").read_text().splitlines()
    assert lines[4:] == ["60.0,3,nan,0,3", "80.0,3,nan,0,3"]
    stdout = capsys.readouterr().out
    assert stdout.count("mean SE n/a (0 feasible, 3 infeasible)") == 2


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


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_out_under_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch, experiment):
    # a run that exits 2 leaves no --out directory behind
    far = write_config(tmp_path, FAR_TARGET)
    assert main([experiment, "--config", str(far), "--out", str(tmp_path / "new")]) == 2
    capsys.readouterr()
    assert not (tmp_path / "new").exists()

    def no_run(cfg):
        """A runner that must not start."""
        raise AssertionError("the experiment ran")

    # --out naming a file, or a path under one, exits 2 before the run
    monkeypatch.setitem(cli._RUNNERS, experiment, no_run)
    (tmp_path / "file").write_text("kept")
    for out in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert main([experiment, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: "
                                                  f"{tmp_path / 'file'} is not a directory")
    assert (tmp_path / "file").read_text() == "kept"


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


def test_ofdm_compare_with_every_doppler_bin_in_its_window_exits_0(tmp_path, capsys):
    # the window's Doppler differences wrap into (-B/2, B/2]; unwrapped, the
    # run exited 1 on a grid bin beyond B/2
    cfgfile = write_config(tmp_path, EVERY_DOPPLER_BIN)
    assert main(["ofdm-compare", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ofdm_compare.csv").read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert len(rows) == 4
    for row in rows:
        for column, cell in row.items():
            if column not in ("scheme", "regime"):
                assert math.isfinite(float(cell)), (column, row)


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
        assert main(["ofdm-compare", "--config", str(edge), "--out", str(tmp_path)]) == 0
    # the OFDM stream is 2 (256 + 200) = 912 samples: its echo misses it, and
    # an echo with no energy has SNR 0, written as -inf dB
    lines = (tmp_path / "ofdm_compare.csv").read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert [r["empirical_snr_db"] for r in rows if r["scheme"] == "ofdm"] == ["-inf"] * 2
    assert all(math.isfinite(float(r["empirical_snr_db"])) for r in rows
               if r["scheme"] == "dam")


def test_ofdm_echo_past_the_prefix_loses_snr(tmp_path):
    # at delay 300, past the 200-sample cyclic prefix, each OFDM window takes
    # the previous symbol's tail and the first starts on 100 samples of
    # silence: the echo through the radar channel reads below the analytic SNR
    cfg = load_config(write_config(tmp_path, {**FAR_TARGET, "experiment": SMALL}))
    with pytest.warns(UserWarning, match="target delay 300 exceeds guard length 200"):
        rows = run_ofdm_compare(cfg)
    for r in rows:
        assert r["empirical_snr_db"] < r["analytic_snr_db"] - 1.0, r


# Runs the four experiments in a fresh interpreter in which any scipy import
# raises, then reports the exit codes and every scipy module that got loaded.
# Every fresh interpreter below runs with warnings as errors, so a warning in a
# default run or in the thread matrix fails the suite.
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


def _run_experiments_in_fresh_interpreter(script, tmp_path, out="out", **env_vars):
    config = write_config(tmp_path, {"experiment": {"mc_block_length": 1024}})
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, str(config),
                           str(tmp_path / out), *EXPERIMENTS],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_experiments_run_without_scipy(tmp_path):
    proc = _run_experiments_in_fresh_interpreter(WITHOUT_SCIPY, tmp_path)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": dict.fromkeys(EXPERIMENTS, 0), "scipy": []}
    assert sorted(os.listdir(tmp_path / "out")) == [
        "beampattern.csv", "dd_map.csv", "dd_report.csv", "ofdm_compare.csv",
        "se_sweep.csv"]


WITHOUT_NUMPY_MA = """
import sys
sys.modules["numpy.ma"] = None
import numpy as np
from damisac import channel, cli, load_config, sensing, waveform
config, out, *experiments = sys.argv[1:]
codes = {e: cli.main([e, "--config", config, "--out", out, "--trials", "2",
                      "--gamma-th-grid", "0:4:2"]) for e in experiments}
# the dd-survey library chain, at a small size
cfg = load_config(config)
sc, n = cfg.scenario, 2048
target = channel.RadarTarget.from_geometry(sc, cfg.target.range_m, cfg.target.rcs_m2,
                                           cfg.target.direction_rad,
                                           cfg.target.radial_velocity_m_s, rng=cfg.rng(3, 0))
bf = waveform.DamBeamformer.steered(target.direction, sc.num_antennas, sc.transmit_power_w,
                                    np.arange(3))
block = waveform.generate_symbols(cfg.rng(3, 1), n, cfg.modulation)
echo = channel.apply_radar_channel(target, waveform.build_dam_block(block, bf),
                                   sc.symbol_duration_s, sc.noise_power_w, cfg.rng(3, 2),
                                   guard_length=sc.guard_length)
grid = sensing.SensingGrid.survey(sc.guard_length, n, sc.symbol_duration_s)
ddmap = sensing.delay_doppler_map(echo, bf, block, target.direction, grid)
print(codes, ddmap.power().shape == grid.shape)
"""


def test_runs_never_import_numpy_ma(tmp_path):
    # numpy.ma costs 16-19 ms of import inside every run; no experiment and no
    # step of the survey pipeline may need it
    proc = _run_experiments_in_fresh_interpreter(WITHOUT_NUMPY_MA, tmp_path)
    assert proc.stdout.splitlines()[-1] == f"{dict.fromkeys(EXPERIMENTS, 0)} True"


RUN_MATRIX = """
import json, sys
sys.modules["scipy"] = None
from damisac import cli
out, runs = sys.argv[1], json.loads(sys.argv[2])
for name, argvs in runs.items():
    for argv in argvs:
        assert cli.main([*argv, "--out", f"{out}/{name}"]) == 0, argv
"""

# a block length whose projected waveform once took a thread-dependent BLAS
# path, a reflector weak enough that the fast-target DAM rate is neither 0
# nor 1, channels of up to 7 sub-paths a path, and symbols from the PSK table
# (psk8) and from CN(0, 1) (gaussian)
THREAD_MATRIX_CONFIGS = [{"experiment": {"mc_block_length": 11053}}, {"target": {"rcs_m2": 0.2}},
                         {"channel": {"max_subpaths": 7}}, {"experiment": {"modulation": "psk8"}},
                         {"experiment": {"modulation": "gaussian"}}]


def test_csvs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every CSV, the solver's included, is byte-identical at one and at two
    # OpenBLAS threads: the four experiments at seeds 0 and 5 and at seed 0
    # with each config above, and the benchmark's se-sweep run (20 trials,
    # seed 5). Each thread count runs in its own fresh interpreter, since the
    # variable must be set before numpy loads, so the pair is also a rerun:
    # ofdm-compare's 13 fast-target trials are drawn in the map's cells, and
    # 47 se-sweep trials over the 11-point default grid are stacks of 23, 23
    # and 1 channels
    runs = {f"seed{seed}": [[e, "--seed", str(seed)] for e in EXPERIMENTS] for seed in (0, 5)}
    for i, doc in enumerate(THREAD_MATRIX_CONFIGS):
        config = str(write_config(tmp_path, doc, f"config{i}.json"))
        runs[f"config{i}"] = [[e, "--seed", "0", "--config", config] for e in EXPERIMENTS]
    runs.update(se20=[["se-sweep", "--trials", "20", "--seed", "5"]],
                se47=[["se-sweep", "--trials", "47"]], ofdm13=[["ofdm-compare", "--trials", "13"]])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    procs = {}
    for threads in ("1", "2"):
        with open(tmp_path / f"err{threads}.txt", "w") as err:
            procs[threads] = subprocess.Popen(
                [sys.executable, "-W", "error", "-c", RUN_MATRIX, str(tmp_path / f"out{threads}"),
                 json.dumps(runs)], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                stdout=subprocess.DEVNULL, stderr=err)
    for threads, proc in procs.items():
        assert proc.wait(timeout=300) == 0, (tmp_path / f"err{threads}.txt").read_text()
    for name, argvs in runs.items():
        one, two = tmp_path / "out1" / name, tmp_path / "out2" / name
        names = sorted(os.listdir(one))
        assert len(names) == (5 if len(argvs) == 4 else 1) and names == sorted(os.listdir(two))
        for csv_name in names:
            assert (one / csv_name).read_bytes() == (two / csv_name).read_bytes(), (name, csv_name)


def test_cli_infeasible_target_exits_2(tmp_path, capsys):
    cfgfile = write_config(tmp_path, {
        "target": {"range_m": 500.0},
        "experiment": {"trials": 2, "mc_block_length": 1024}})
    assert main(["dd-map", "--config", str(cfgfile)]) == 2
    assert "error:" in capsys.readouterr().err
    # too few antennas to null the other paths
    antennas = write_config(tmp_path, {"scenario": {"num_antennas": 4}}, "m4.json")
    assert main(["se-sweep", "--config", str(antennas)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.num_antennas: ")
    assert "num_antennas >= num_paths (4 < 5)" in err


@pytest.mark.parametrize("experiment,doc,field_name", [
    # repeated directions: zero-forcing leaves no design, only rounding. The
    # near-repeats overflowed the MRT scale and wrote nan patterns
    ("beampattern", {"experiment": {"beampattern_aods_deg": [0.0, 0.0]}},
     "experiment.beampattern_aods_deg"),
    ("beampattern", {"experiment": {"beampattern_aods_deg": [90.0, -90.0]}},
     "experiment.beampattern_aods_deg"),
    ("beampattern", {"scenario": {"num_antennas": 4},
                     "experiment": {"beampattern_aods_deg": [0.0, 1.6e-157, 0.0]}},
     "experiment.beampattern_aods_deg"),
    # more paths than distinct delays in [0, guard]
    ("dd-map", {"scenario": {"guard_length": 2}, "target": {"range_m": 1.0}},
     "scenario.guard_length"),
    ("se-sweep", {"scenario": {"guard_length": 2}, "target": {"range_m": 1.0}},
     "scenario.guard_length"),
    ("dd-map", {"channel": {"aod_sector_deg": [10.0, -10.0]}}, "channel.aod_sector_deg"),
])
def test_cross_field_errors_name_the_json_field(tmp_path, capsys, experiment, doc, field_name):
    assert main([experiment, "--config", str(write_config(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_name}")


def test_beampattern_distinct_directions_still_run(tmp_path):
    doc = {"scenario": {"num_antennas": 4},
           "experiment": {"beampattern_aods_deg": [-90.0, 0.0, 1e-3, 89.0]}}
    assert main(["beampattern", "--config", str(write_config(tmp_path, doc))]) == 0


def test_cli_help_names_every_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: damisac <experiment> [options]")
    for name in ("beampattern", "se-sweep", "dd-map", "ofdm-compare"):
        assert name in out


def test_cli_unknown_experiment_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])