"""Command line front end for the batch experiments.

Exit codes: 0 on success, 2 for configuration or feasibility errors (an
--out that names a file or a path under one among them, caught before the
run), 1 for internal errors only. --seed, --trials and --gamma-th-grid override the
experiment fields of the same names and pass the same checks.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ConfigError, InfeasibleError
from .experiments import (load_config, run_beampattern, run_dd_map,
                          run_ofdm_compare, run_se_sweep)

_RUNNERS = {
    "beampattern": run_beampattern,
    "se-sweep": run_se_sweep,
    "dd-map": run_dd_map,
    "ofdm-compare": run_ofdm_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    # each runner's summary: the first paragraph of its docstring
    summaries = "\n".join(f"  {name:<14}" + " ".join(runner.__doc__.split("\n\n")[0].split())
                          for name, runner in _RUNNERS.items())
    parser = argparse.ArgumentParser(
        prog="damisac", usage="%(prog)s <experiment> [options]",
        description="Batch experiments for delay-aligned multipath sensing "
                    "and communication.",
        epilog=f"experiments:\n{summaries}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=list(_RUNNERS), metavar="experiment",
                        help="the experiment to run, from the list below")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; omit for the default scenario")
    parser.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (unsigned 64-bit)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for CSV files")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the number of Monte Carlo trials; only se-sweep "
                             "and ofdm-compare read it")
    parser.add_argument("--gamma-th-grid", type=str, default=None, metavar="A:B:STEP",
                        help="sensing threshold grid in dB, inclusive; a grid that starts "
                             "below 0 dB takes the = form, --gamma-th-grid=-10:0:5")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {"seed": args.seed, "trials": args.trials, "gamma_th_grid_db": args.gamma_th_grid}
    try:
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        if args.out is not None:
            # checked before the run, which makes --out only when it writes
            near = next(p for p in (args.out, *args.out.parents) if p.exists())
            if not near.is_dir():
                raise ConfigError(f"--out {args.out}: {near} is not a directory")
        cfg.output_dir = args.out
        result = _RUNNERS[args.experiment](cfg)
    except (ConfigError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1
    _summarize(args.experiment, result, cfg)
    return 0


def _summarize(name: str, result, cfg) -> None:
    if cfg.output_dir is not None:
        print(f"wrote CSV output to {cfg.output_dir} (config {cfg.config_hash()})")
    if name == "beampattern":
        print(f"sensing ZF ceiling: {10 * math.log10(result.gamma_zf_max):.2f} dB, "
              f"solver status: {result.solver_status}")
    elif name == "se-sweep":
        for row in result:
            se = row["mean_se_bps_hz"]
            print(f"gamma_th={row['gamma_th_db']:g} dB L={row['num_paths']}: "
                  f"mean SE {'n/a' if math.isnan(se) else f'{se:.3f} bps/Hz'} "
                  f"({row['feasible']} feasible, {row['infeasible']} infeasible)")
    elif name == "dd-map":
        print(f"delay bin {result['est_delay_bin']} (true {result['true_delay_bin']}), "
              f"Doppler {result['est_doppler_hz']:.1f} Hz "
              f"(true {result['true_doppler_hz']:.1f} Hz)")
        print(f"peak SNR: empirical {result['gamma_p_empirical']:.1f}, analytic "
              f"{result['gamma_p_analytic_mc']:.1f} at N={result['mc_block_length']}")
    elif name == "ofdm-compare":
        for row in result:
            print(f"{row['scheme']:>4} {row['regime']:<13} analytic "
                  f"{row['analytic_snr_db']:7.2f} dB, empirical "
                  f"{row['empirical_snr_db']:7.2f} dB, PAPR "
                  f"{row['papr_empirical']:6.2f}, Doppler recovery "
                  f"{row['doppler_recovery_rate']:.2f}")


if __name__ == "__main__":
    sys.exit(main())
