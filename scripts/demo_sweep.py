"""Print the headline sweep table for the simulated bench.

Runs the analyzer sweep for an encoded +45 qubit three ways: correction
off, correction on, and a fully distinguishable control where the
interference is gone.  One row of visibilities and fidelities per run.
"""
import argparse

from loqec import ExperimentConfig, run_experiment


def sweep_row(name, **settings):
    result = run_experiment(ExperimentConfig(**settings))
    return (
        name,
        result.d1_d2.visibility,
        result.d1_d2.fit.phase_deg,
        result.d1_d3.visibility,
        result.d1_d3.fit.phase_deg,
        result.fidelity,
        result.fidelity_fit,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overlap", type=float, default=0.922,
                        help="pairwise photon indistinguishability (default 0.922)")
    parser.add_argument("--hwp", type=float, default=22.5,
                        help="qubit half-wave plate angle in degrees")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    base = {"qubit_hwp_angle": args.hwp, "overlap_v": args.overlap, "seed": args.seed}
    rows = [
        sweep_row("uncorrected", pc_enabled=False, **base),
        sweep_row("corrected", pc_enabled=True, **base),
        sweep_row("distinguishable", **{**base, "overlap_v": 0.0, "pc_enabled": True}),
    ]

    header = ("run", "vis D1:D2", "phase", "vis D1:D3", "phase", "F", "F(fit)")
    print(f"{header[0]:<16}" + "".join(f"{h:>11}" for h in header[1:]))
    for name, v2, ph2, v3, ph3, fid, ffit in rows:
        print(
            f"{name:<16}{v2:>11.4f}{ph2:>11.2f}{v3:>11.4f}{ph3:>11.2f}"
            f"{fid:>11.4f}{ffit:>11.4f}"
        )


if __name__ == "__main__":
    main()
