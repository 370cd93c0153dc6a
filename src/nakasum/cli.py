"""Command-line interface.

Subcommands
-----------
match     fit the Gamma-sum proxy and print it as JSON
tables    regenerate the balanced-branch shape-parameter tables
pdf       envelope density over a grid
mgf       moment generating function at one point
outage    outage probability versus per-branch average SNR
ber       average error probability versus per-branch average SNR
validate  gof campaign | egc Monte-Carlo comparison | table of campaign levels
sample    export correlated envelope draws

Exit codes: 0 success, 2 validation/domain error, 3 numerical accuracy
error, 4 I/O error.

The correlation matrix file format is plain text: optional '#' comment
lines, then the dimension L on its own line, then L rows of L
space-separated sqrt-correlation entries.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import egc, gof, simkit
from .errors import (
    AccuracyError,
    NakasumError,
    TruncationError,
    ValidationError,
    _check_count,
)
from .gammasum import mgf as model_mgf
from .gammasum import pdf as model_pdf
from .linalg import CorrelationMatrix
from .matcher import match_parameters
from .moments import (
    ArbitraryCorrelation,
    EnsembleSpec,
    EqualCorrelation,
    ExponentialCorrelation,
)

__all__ = ["main", "read_corr_file", "write_corr_file"]

TABLE_RHOS = (0.0, 0.2, 0.4, 0.6, 0.8)
TABLE_MZ = (1, 2, 3)
TABLE_L = (2, 3, 4)


def _number(convert, token: str, where: str):
    """``convert(token)``; a malformed token raises ValidationError naming
    ``where``, the file or flag it came from."""
    try:
        return convert(token)
    except ValueError:
        raise ValidationError(
            f"{where}: {token!r} is not a valid {convert.__name__}") from None


def read_corr_file(path: str) -> CorrelationMatrix:
    rows: list[list[float]] = []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if dim is None:
                dim = _number(int, line, path)
                continue
            rows.append([_number(float, tok, path) for tok in line.split()])
    if dim is None:
        raise ValidationError(f"{path}: no dimension line found")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValidationError(f"{path}: expected {dim} rows of {dim} entries")
    return CorrelationMatrix(np.asarray(rows))


def write_corr_file(matrix: CorrelationMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.dim}\n")
        for row in matrix.entries:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Parse the 'start:stop:count' value of ``flag`` into a linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{flag} must be start:stop:count, got {text!r}")
    start, stop, count = (_number(convert, tok, flag)
                          for convert, tok in zip((float, float, int), parts))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"{flag} bounds must be finite, got {text!r}")
    _check_count(count, f"{flag} count", ValidationError)
    return np.linspace(start, stop, count)


def _parse_omega(text: str, L: int, mu: float | None) -> tuple[float, ...]:
    vals = tuple(_number(float, tok, "--omega") for tok in text.split(","))
    if mu is not None:
        if len(vals) != 1:
            raise ValidationError("--mu requires a scalar --omega (first-branch power)")
        return egc.power_profile(vals[0], mu, L)
    if len(vals) == 1:
        return vals * L
    if len(vals) != L:
        raise ValidationError(f"--omega lists {len(vals)} powers for {L} branches")
    return vals


def build_spec(args: argparse.Namespace) -> EnsembleSpec:
    if args.model == "arbitrary":
        if args.corr_file is None:
            raise ValidationError("--model arbitrary requires --corr-file")
        for flag, value in (("--rho", args.rho), ("--L", args.L)):
            if value is not None:
                raise ValidationError(f"{flag} cannot be combined with --corr-file")
        matrix = read_corr_file(args.corr_file)
        L = matrix.dim
        correlation = ArbitraryCorrelation(matrix)
    else:
        if args.corr_file is not None:
            raise ValidationError("--corr-file requires --model arbitrary")
        if args.rho is None:
            raise ValidationError(f"--model {args.model} requires --rho")
        if args.L is None:
            raise ValidationError("--L is required")
        L = args.L
        cls = EqualCorrelation if args.model == "equal" else ExponentialCorrelation
        correlation = cls(args.rho)
    powers = _parse_omega(args.omega, L, args.mu)
    return EnsembleSpec(fading_m=args.mz, powers=powers, correlation=correlation)


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows_to_text(rows: list[dict], header: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("equal", "exp", "arbitrary"), required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--corr-file", default=None)
    p.add_argument("--mz", type=int, required=True, help="integer fading parameter")
    p.add_argument("--L", type=int, default=None, help="branch count")
    p.add_argument("--omega", default="1",
                   help="branch powers: scalar or comma list (linear units)")
    p.add_argument("--mu", type=float, default=None,
                   help="exponential power-decay exponent (uses scalar --omega)")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--per-trial", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _receiver(args, modulation: str = "bpsk") -> egc.ReceiverSpec:
    # noise_psd=1.0: the curves read the per-branch SNR from the grid
    return egc.ReceiverSpec(build_spec(args), noise_psd=1.0, modulation=modulation)


def cmd_match(args) -> int:
    model = match_parameters(build_spec(args))
    _emit(model.to_json(), args.out)
    return 0


def cmd_tables(args) -> int:
    rows = []
    models = ("equal", "exp") if args.corr == "both" else (args.corr,)
    for corr in models:
        cls = EqualCorrelation if corr == "equal" else ExponentialCorrelation
        for mz in TABLE_MZ:
            for L in TABLE_L:
                for rho in TABLE_RHOS:
                    spec = EnsembleSpec(fading_m=mz, powers=(1.0,) * L,
                                        correlation=cls(rho))
                    rows.append({
                        "correlation": corr,
                        "rho": rho,
                        "mz": mz,
                        "L": L,
                        "m_r": match_parameters(spec).m_r,
                    })
    _emit(_rows_to_text(rows, ("correlation", "rho", "mz", "L", "m_r"),
                        args.format), args.out)
    return 0


def cmd_pdf(args) -> int:
    spec = build_spec(args)
    model = match_parameters(spec)
    grid = _parse_grid(args.r_grid, "--r-grid")
    rows = []
    meta = json.dumps({"branches": spec.branch_count,
                       "m_r": model.m_r, "omega_r": model.omega_r},
                      sort_keys=True)
    for r, value in zip(grid, model_pdf(model, grid)):
        rows.append({"r": float(r), "value": float(value),
                     "kind": "envelope-pdf", "meta": meta})
    _emit(_rows_to_text(rows, ("r", "value", "kind", "meta"), args.format), args.out)
    return 0


def cmd_mgf(args) -> int:
    model = match_parameters(build_spec(args))
    value = model_mgf(model, args.s)
    _emit(json.dumps({"s": args.s, "mgf": value}), args.out)
    return 0


def cmd_outage(args) -> int:
    rx = _receiver(args)
    threshold = args.threshold
    if args.threshold_db is not None:
        with np.errstate(over="ignore"):  # inf fails outage_curve's range check
            threshold = float(10.0 ** np.float64(args.threshold_db / 10.0))
    curve = egc.outage_curve(rx, _parse_grid(args.snr_grid, "--snr-grid"), threshold)
    _emit(_rows_to_text(curve.to_rows(), egc.CURVE_CSV_HEADER, args.format), args.out)
    return 0


def cmd_ber(args) -> int:
    rx = _receiver(args, args.mod)
    curve = egc.ber_curve(rx, _parse_grid(args.snr_grid, "--snr-grid"))
    _emit(_rows_to_text(curve.to_rows(), egc.CURVE_CSV_HEADER, args.format), args.out)
    return 0


def cmd_validate_gof(args) -> int:
    report = gof.gof_campaign(build_spec(args), trials=args.trials,
                              per_trial=args.per_trial, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0


def cmd_validate_table(args) -> int:
    """Campaign significance levels over the standard scenario grid."""
    cls = EqualCorrelation if args.model == "equal" else ExponentialCorrelation
    lines = [f"{'rho':>4} {'mz':>3} {'L':>3} {'alpha_cs':>10} {'alpha_ks':>10}"]
    for mz in (1, 3):
        for rho in (0.2, 0.7):
            for L in (2, 5):
                spec = EnsembleSpec(fading_m=mz, powers=(1.0,) * L,
                                    correlation=cls(rho))
                rep = gof.gof_campaign(spec, trials=args.trials,
                                       per_trial=args.per_trial, seed=args.seed)
                lines.append(f"{rho:>4} {mz:>3} {L:>3} "
                             f"{rep.alpha_cs:>10.4f} {rep.alpha_ks:>10.4f}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_validate_egc(args) -> int:
    rx = _receiver(args, args.mod)
    grid = _parse_grid(args.snr_grid, "--snr-grid")
    analytic = egc.ber_curve(rx, grid)
    simulated = simkit.simulate_egc_ber(rx, grid, n_bits=args.n_bits, seed=args.seed)
    rows = []
    for pa, ps in zip(analytic.points, simulated.points):
        rows.append({
            "snr_db": pa.snr_db,
            "analytic": pa.value,
            "simulated": ps.value,
            "stderr": ps.stderr,
        })
    _emit(_rows_to_text(rows, ("snr_db", "analytic", "simulated", "stderr"),
                        args.format), args.out)
    return 0


def cmd_sample(args) -> int:
    batch = simkit.sample_correlated_nakagami(build_spec(args), args.n, args.seed)
    simkit.save_batch(batch, args.out, fmt=args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False throughout: --mod must never read as --model
    parser = argparse.ArgumentParser(
        prog="nakasum", allow_abbrev=False,
        description="Correlated Nakagami-m envelope sums through a "
                    "moment-matched Gamma-sum model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, subs=sub) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("match", "fit the proxy model", cmd_match)
    _add_spec_flags(p)
    p.add_argument("--out", default=None)

    p = command("tables", "regenerate the balanced m_r tables", cmd_tables)
    p.add_argument("--corr", choices=("equal", "exp", "both"), default="both")
    _add_io_flags(p)

    p = command("pdf", "envelope density over a grid", cmd_pdf)
    _add_spec_flags(p)
    p.add_argument("--r-grid", default="0.1:5:50", help="start:stop:count")
    _add_io_flags(p)

    p = command("mgf", "MGF of the squared envelope at s below its pole", cmd_mgf)
    _add_spec_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out", default=None)

    p = command("outage", "outage probability vs per-branch SNR", cmd_outage)
    _add_spec_flags(p)
    p.add_argument("--snr-grid", default="0:20:11", help="dB grid start:stop:count")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--threshold", type=float, help="linear SNR threshold")
    g.add_argument("--threshold-db", type=float, help="SNR threshold in dB")
    _add_io_flags(p)

    p = command("ber", "average error probability vs per-branch SNR", cmd_ber)
    _add_spec_flags(p)
    p.add_argument("--mod", choices=("bpsk", "bfsk"), default="bpsk")
    p.add_argument("--snr-grid", default="0:20:11")
    _add_io_flags(p)

    jobs = sub.add_parser("validate", help="statistical validation runs",
                          allow_abbrev=False).add_subparsers(dest="job", required=True)

    p = command("gof", "averaged chi-square/K-S campaign (JSON report)",
                cmd_validate_gof, jobs)
    _add_spec_flags(p)
    _add_campaign_flags(p)

    p = command("egc", "analytic EGC error rate against Monte Carlo",
                cmd_validate_egc, jobs)
    _add_spec_flags(p)
    p.add_argument("--mod", choices=("bpsk", "bfsk"), default="bpsk")
    p.add_argument("--snr-grid", default="0:16:5")
    p.add_argument("--n-bits", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)

    p = command("table", "campaign significance levels over the standard "
                "scenario grid", cmd_validate_table, jobs)
    p.add_argument("--model", choices=("equal", "exp"), required=True)
    _add_campaign_flags(p)

    p = command("sample", "export correlated envelope draws", cmd_sample)
    _add_spec_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a flag that takes a number or a grid and a separate value that
    starts with one '-' (a negative grid start such as -5:20:6, or a number
    in exponent notation such as -1e-3, which argparse would read as an
    option) into one '--flag=value' token."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--snr-grid", "--r-grid", "--s", "--threshold-db") and (
                tok.startswith("-") and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (AccuracyError, TruncationError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except NakasumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
