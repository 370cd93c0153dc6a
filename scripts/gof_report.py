#!/usr/bin/env python3
"""Run the averaged goodness-of-fit campaign for one balanced scenario and
print the report (small significance levels indicate strong detected
misfit in this testing convention)."""
import argparse

from nakasum.gof import gof_campaign
from nakasum.moments import EnsembleSpec, EqualCorrelation, ExponentialCorrelation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=("equal", "exp"), default="equal")
    parser.add_argument("--rho", type=float, default=0.2)
    parser.add_argument("--mz", type=int, default=1)
    parser.add_argument("--L", type=int, default=5)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--per-trial", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cls = EqualCorrelation if args.model == "equal" else ExponentialCorrelation
    spec = EnsembleSpec(fading_m=args.mz, powers=(1.0,) * args.L,
                        correlation=cls(args.rho))
    report = gof_campaign(spec, trials=args.trials, per_trial=args.per_trial,
                          seed=args.seed)
    print(report.to_json())


if __name__ == "__main__":
    main()
