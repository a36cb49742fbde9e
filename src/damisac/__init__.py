"""Delay-aligned multipath waveforms for joint sensing and communication.

Per-path transmit beams are delayed so that all multipath arrivals stack on a
single lag, which removes inter-symbol interference without an OFDM-style
cyclic prefix and leaves the whole block usable for radar matched filtering.
The package covers channel and echo models, waveform construction, the
matched-filter delay-Doppler receiver, zero-forcing beamformer designs with
an exact communication-sensing trade-off solver, an OFDM radar baseline, and
a batch experiment CLI.
"""

from .beamforming import (IsacProblem, IsacSolution, SolutionReport,
                          isi_zf_mrt_beamformer, verify_solution)
from .channel import (ChannelGenConfig, MultipathChannel, RadarTarget,
                      ScenarioConfig, apply_comm_channel, apply_radar_channel,
                      complex_normal, generate_multipath_channel,
                      radar_round_trip_gain, steering_vector)
from .errors import ConfigError, DamIsacError, InfeasibleError
from .experiments import (ExperimentConfig, TargetConfig, load_config,
                          parse_gamma_grid, run_beampattern, run_dd_map,
                          run_ofdm_compare, run_se_sweep)
from .ofdm import (OfdmConfig, max_ofdm_output_snr, ofdm_ambiguity_limits,
                   ofdm_delay_doppler_estimate, ofdm_output_snr, ofdm_radar_rx,
                   ofdm_time_domain)
from .sensing import (AmbiguityLimits, DelayDopplerMap, SensingGrid,
                      correlation_matrix, dam_ambiguity_limits,
                      delay_doppler_map, estimate_delay_doppler,
                      export_map_csv, matched_filter_template, max_sensing_snr,
                      sensing_snr)
from .units import C_LIGHT, dbm_to_watt, linear_to_db
from .waveform import (DamBeamformer, SymbolBlock, assign_delays,
                       build_dam_block, comm_snr, decompose_received,
                       delayed_symbol_matrix, generate_symbols, papr_empirical,
                       transmit_power)

__version__ = "0.1.0"

