"""The SE sweep one trade-off solve at a time, as a test oracle.

run_se_sweep solves every (trial, floor) row of a path count in stacked
calls; the tests pin it to this loop over IsacProblem.solve, on the same
channel streams. Each gamma_c is read off the beamformer the solve returns,
|sum_l h_l^H f_l|^2 / sigma^2, not off the audit the solve reports.
"""

import dataclasses

import numpy as np

from damisac import ExperimentConfig, IsacProblem, generate_multipath_channels


def se_sweep_rows(cfg: ExperimentConfig) -> list:
    """The rows run_se_sweep returns, from one IsacProblem.solve per floor."""
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
            channel = generate_multipath_channels(s, gen, [cfg.rng(0, li, trial)])[0]
            problem = IsacProblem(channel, target.direction, target.gain, n,
                                  s.transmit_power_w, s.noise_power_w)
            for gi, gamma_th in enumerate(grid_lin):
                sol = problem.solve(float(gamma_th))
                if sol.status == "infeasible":
                    infeasible[gi] += 1
                    continue
                f = sol.beamformer.beam_matrix
                gain = sum(np.vdot(h_l, f[:, l]) for l, h_l in enumerate(channel.path_vectors))
                gamma_c = np.abs(gain) ** 2 / s.noise_power_w
                se_sum[gi] += (n / s.block_length) * np.log2(1.0 + gamma_c)
                feasible[gi] += 1
        for gi, g_db in enumerate(cfg.gamma_th_grid_db):
            rows.append({"gamma_th_db": float(g_db), "num_paths": num_paths,
                         "mean_se_bps_hz": se_sum[gi] / feasible[gi] if feasible[gi]
                         else float("nan"),
                         "feasible": int(feasible[gi]),
                         "infeasible": int(infeasible[gi])})
    return rows
