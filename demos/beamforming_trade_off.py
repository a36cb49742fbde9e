"""Communication-sensing trade-off on one random multipath channel.

The two endpoints are closed-form: leakage-free MRT maximizes the receive
SNR with zero sensing guarantee, and the leakage-free sensing design yields
the highest floor gamma_zf that remains feasible. Sweeping the floor between
them with the exact trade-off solver traces the Pareto front; each solution
is audited from first principles and printed with its gap to the dual bound.
"""

import numpy as np

from damisac.beamforming import IsacProblem
from damisac.channel import (
    ChannelGenConfig,
    RadarTarget,
    ScenarioConfig,
    generate_multipath_channels,
)

SEED = 3
NUM_PATHS = 5


def db(x: float) -> float:
    return 10.0 * np.log10(max(x, 1e-300))


def main() -> None:
    sc = ScenarioConfig.mmwave_default()
    rng = np.random.default_rng(SEED)
    channel = generate_multipath_channels(sc, ChannelGenConfig(NUM_PATHS), [rng])[0]
    target = RadarTarget.from_geometry(sc, range_m=200.0, rcs_m2=1.0,
                                       direction=np.pi / 6,
                                       radial_velocity_m_s=15.0)
    n = sc.data_length

    problem = IsacProblem(channel, target.direction, target.gain, n,
                          sc.transmit_power_w, sc.noise_power_w)
    gamma_c_best = problem.solve(0.0).gamma_c          # the MRT design
    gamma_zf = problem.gamma_zf_max
    # |alpha|^2 N M P / sigma^2: all power on the target direction
    ceiling = (abs(target.gain) ** 2 * n * sc.num_antennas * sc.transmit_power_w
               / sc.noise_power_w)
    print(f"{sc.num_antennas} antennas, {NUM_PATHS} paths, N = {n}")
    print(f"MRT endpoint:     gamma_c = {db(gamma_c_best):6.2f} dB")
    print(f"sensing ceiling:  gamma_p = {db(ceiling):6.2f} dB unconstrained, "
          f"{db(gamma_zf):6.2f} dB leakage-free")

    print("\n floor gamma_th |  gamma_c  |  gamma_p  | SE bps/Hz | dual gap")
    print(" " + "-" * 61)
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 1.0):
        gamma_th = frac * gamma_zf
        sol = problem.solve(gamma_th)
        assert sol.zf_residual < 1e-8
        assert sol.gamma_p - gamma_th >= -1e-6 * max(gamma_th, 1.0)
        se = np.log2(1.0 + sol.gamma_c)
        floor = f"{db(gamma_th):8.2f} dB" if gamma_th > 0 else "    (none) "
        print(f"   {floor} | {db(sol.gamma_c):6.2f} dB "
              f"| {db(sol.gamma_p):6.2f} dB | {se:9.3f} | "
              f"{(sol.dual_bound - sol.gamma_c) / sol.dual_bound:8.1e}")

    # pushing past the leakage-free ceiling is declared infeasible
    sol = problem.solve(1.05 * gamma_zf)
    print(f"\nfloor at 1.05 x gamma_zf: status = {sol.status}")


if __name__ == "__main__":
    main()
