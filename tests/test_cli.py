"""Command-line interface tests: flag validation, output formats,
determinism, and the correlation-file round trip."""
import csv
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from nakasum.cli import build_parser, main, read_corr_file, write_corr_file
from nakasum.egc import ReceiverSpec, ber_curve
from nakasum.linalg import CorrelationMatrix, greens_fit
from nakasum.moments import ArbitraryCorrelation, EnsembleSpec
from nakasum.simkit import load_batch, simulate_egc_ber


SPEC = ["--model", "equal", "--rho", "0.2", "--mz", "1", "--L", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, argv, flag):
    """argparse rejects ``argv`` with exit 2 and names ``flag`` on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and flag in captured.err


class TestMatch:
    def test_equal_correlation_cell(self, capsys):
        code, out, _ = run(capsys, "match", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--omega", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["m_r"] == pytest.approx(0.9195, abs=5e-4)

    def test_exponential_cell(self, capsys):
        code, out, _ = run(capsys, "match", "--model", "exp", "--rho", "0.8",
                           "--mz", "3", "--L", "4", "--omega", "1")
        assert code == 0
        assert json.loads(out)["m_r"] == pytest.approx(2.9072, abs=5e-4)

    def test_maximal_correlation_exact(self, capsys):
        code, out, _ = run(capsys, "match", "--model", "equal", "--rho", "1",
                           "--mz", "2", "--L", "3", "--omega", "1")
        assert code == 0
        assert json.loads(out)["m_r"] == 2.0

    def test_ratio_within_guard_of_one_exits_3(self, capsys):
        # exponential rho = 1 - 2^-53 puts the joint series' ratio within
        # 1e-9 of 1: TruncationError, an accuracy error
        code, out, err = run(capsys, "match", "--model", "exp", "--rho", repr(1.0 - 2.0 ** -53),
                             "--mz", "1", "--L", "4", "--omega", "1")
        assert code == 3
        assert out == "" and "ratio at or above 1" in err

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "match", "--model", "equal", "--rho", "1.5",
                           "--mz", "1", "--L", "2", "--omega", "1")
        assert code == 2
        assert "error" in err

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "model.json"
        code, _, err = run(capsys, "match", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--omega", "1",
                           "--out", str(target))
        assert code == 4
        assert "i/o error" in err

    def test_rho_with_corr_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        write_corr_file(CorrelationMatrix.identity(2), str(path))
        code, _, err = run(capsys, "match", "--model", "arbitrary",
                           "--rho", "0.2", "--corr-file", str(path),
                           "--mz", "1", "--omega", "1")
        assert code == 2

    def test_branch_count_with_corr_file_rejected(self, capsys, tmp_path):
        # the matrix fixes the branch count
        path = tmp_path / "m.txt"
        write_corr_file(CorrelationMatrix.identity(3), str(path))
        code, _, err = run(capsys, "match", "--model", "arbitrary",
                           "--corr-file", str(path), "--mz", "2", "--L", "5")
        assert code == 2
        assert "--L" in err


class TestTables:
    def test_full_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 90  # two tables of 45 cells
        eq = {(r["rho"], r["mz"], r["L"]): r["m_r"]
              for r in rows if r["correlation"] == "equal"}
        ex = {(r["rho"], r["mz"], r["L"]): r["m_r"]
              for r in rows if r["correlation"] == "exp"}
        assert eq[(0.2, 1, 2)] == pytest.approx(0.9195, abs=5e-4)
        assert ex[(0.6, 1, 4)] == pytest.approx(0.8817, abs=5e-4)
        # independence column identical between the two models
        for mz in (1, 2, 3):
            for L in (2, 3, 4):
                assert eq[(0.0, mz, L)] == pytest.approx(ex[(0.0, mz, L)],
                                                         rel=1e-12)

    def test_csv_json_same_numbers(self, capsys):
        code, csv_out, _ = run(capsys, "tables", "--corr", "equal",
                               "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, "tables", "--corr", "equal",
                                "--format", "json")
        assert code == 0
        lines = csv_out.strip().splitlines()[1:]
        csv_mr = [float(line.split(",")[-1]) for line in lines]
        json_mr = [r["m_r"] for r in json.loads(json_out)]
        assert csv_mr == json_mr


class TestCurves:
    def test_pdf_maximal_overlays_nakagami(self, capsys):
        code, out, _ = run(capsys, "pdf", "--model", "equal", "--rho", "1",
                           "--mz", "2", "--L", "3", "--omega", "1",
                           "--r-grid", "0.5:4:8", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        m, omega = 2.0, 9.0
        for row in rows:
            r = row["r"]
            want = ((m / omega) ** m * 2 * r ** (2 * m - 1)
                    / math.gamma(m) * math.exp(-m / omega * r * r))
            assert row["value"] == pytest.approx(want, abs=1e-8)

    def test_bfsk_matches_mgf_subcommand(self, capsys):
        args = ["--model", "exp", "--rho", "0.4", "--mz", "1", "--L", "3",
                "--omega", "1"]
        code, out, _ = run(capsys, "ber", *args, "--mod", "bfsk",
                           "--snr-grid", "0:0:1", "--format", "json")
        assert code == 0
        ber = json.loads(out)[0]["value"]
        # per-branch SNR 0 dB with unit powers puts the combiner power at
        # omega_r * gamma1 / L, which the mgf command sees with n0 = L
        code, out, _ = run(capsys, "mgf", *args, "--s", "-0.5")
        assert code == 0
        mgf_unit = json.loads(out)["mgf"]
        # recompute through the library for the rescaled model
        from nakasum.matcher import match_parameters
        from nakasum.gammasum import mgf as mgf_fn
        from nakasum.moments import EnsembleSpec, ExponentialCorrelation
        spec = EnsembleSpec(fading_m=1, powers=(1.0,) * 3,
                            correlation=ExponentialCorrelation(0.4))
        model = match_parameters(spec)
        scaled = model.scaled(model.omega_r / 3.0)
        assert ber == pytest.approx(0.5 * mgf_fn(scaled, -0.5), rel=1e-12)

    def test_outage_curve_runs(self, capsys):
        code, out, _ = run(capsys, "outage", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--omega", "1",
                           "--threshold", "1.0", "--snr-grid", "0:10:3",
                           "--format", "json")
        assert code == 0
        vals = [r["value"] for r in json.loads(out)]
        assert all(0 <= v <= 1 for v in vals)
        assert vals[0] > vals[-1]

    def test_outage_l1_incomplete_gamma(self, capsys):
        code, out, _ = run(capsys, "outage", "--model", "equal", "--rho", "0",
                           "--mz", "2", "--L", "1", "--omega", "1",
                           "--threshold", "1.0", "--snr-grid", "3:3:1",
                           "--format", "json")
        assert code == 0
        from scipy.special import gammainc
        got = json.loads(out)[0]["value"]
        gamma1 = 10.0 ** 0.3
        want = float(gammainc(2.0, 2.0 * 1.0 / gamma1))
        assert got == pytest.approx(want, abs=1e-7)


NEGATIVE_GRID_CALLS = {
    "outage": ["outage", "--model", "equal", "--rho", "0.3", "--mz", "2", "--L", "3",
               "--threshold-db", "-7.3", "--snr-grid", "-5:20:6"],
    "ber": ["ber", *SPEC, "--snr-grid", "-5:20:6", "--mod", "bfsk"],
    "validate-egc": ["validate", "egc", *SPEC, "--snr-grid", "-5:0:2",
                     "--n-bits", "10000"],
    # a negative radius is a domain error, reported by the command itself
    "pdf": ["pdf", *SPEC, "--r-grid", "-1:2:4"],
}


class TestNegativeGridStart:
    @pytest.mark.parametrize("name", NEGATIVE_GRID_CALLS)
    def test_separate_token_equals_joined_flag(self, capsys, name):
        argv = NEGATIVE_GRID_CALLS[name]
        at = next(i for i, tok in enumerate(argv) if tok.endswith("-grid"))
        joined = argv[:at] + [f"{argv[at]}={argv[at + 1]}"] + argv[at + 2:]
        got = run(capsys, *argv)
        assert got == run(capsys, *joined)
        assert got[0] == (2 if name == "pdf" else 0)

    def test_option_after_grid_flag_still_an_option(self, capsys):
        assert_usage_error(capsys, ["ber", *SPEC, "--snr-grid", "--mod", "bfsk"],
                           "--snr-grid")


class TestValidateAndSample:
    def test_validate_gof_deterministic(self, capsys, tmp_path):
        args = ("validate", "gof", "--model", "equal", "--rho", "1", "--mz", "1",
                "--L", "2", "--omega", "1",
                "--trials", "4", "--per-trial", "1500", "--seed", "5")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["n_trials"] == 4

    @pytest.mark.parametrize("mod", ["bpsk", "bfsk"])
    def test_validate_egc(self, capsys, mod):
        spec = ("--model", "exp", "--rho", "0.5", "--mz", "2", "--L", "3",
                "--omega", "1", "--mod", mod, "--snr-grid", "0:12:4")
        args = ("validate", "egc", *spec, "--n-bits", "20000", "--seed", "5")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert run(capsys, *args) == (0, out, "")
        lines = out.splitlines()
        assert lines[0] == "snr_db,analytic,simulated,stderr"
        rows = list(csv.DictReader(lines))
        assert [float(r["snr_db"]) for r in rows] == [0.0, 4.0, 8.0, 12.0]
        code, ber_out, _ = run(capsys, "ber", *spec)
        assert code == 0
        assert [r["analytic"] for r in rows] == [
            r["value"] for r in csv.DictReader(ber_out.splitlines())]
        for r in rows:
            assert abs(float(r["simulated"]) - float(r["analytic"])) < 0.5 * float(r["analytic"])

    def test_validate_egc_arbitrary_matrix(self, capsys, tmp_path):
        # the README's three-antenna matrix, through --corr-file; the rows
        # are the analytic and simulated curves of the direct library calls
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        text = re.search(r"```\n(# three antennas\n.*?)```", readme.read_text(), re.S).group(1)
        path = tmp_path / "corr.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "validate", "egc", "--model", "arbitrary",
                           "--corr-file", str(path), "--mz", "2", "--omega", "1",
                           "--snr-grid", "0:16:9", "--n-bits", "20000", "--seed", "0")
        assert code == 0
        rows = [[float(v) for v in row.values()] for row in csv.DictReader(out.splitlines())]
        ensemble = EnsembleSpec(fading_m=2, powers=(1.0,) * 3, correlation=ArbitraryCorrelation(
            CorrelationMatrix(np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.5], [0.2, 0.5, 1.0]]))))
        rx = ReceiverSpec(ensemble=ensemble, noise_psd=1.0)
        grid = np.linspace(0.0, 16.0, 9)
        analytic = ber_curve(rx, grid)
        simulated = simulate_egc_ber(rx, grid, n_bits=20_000, seed=0)
        assert rows == [[pa.snr_db, pa.value, ps.value, ps.stderr]
                        for pa, ps in zip(analytic.points, simulated.points)]

    def test_validate_table_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "table", "--model", "equal",
                           "--trials", "2", "--per-trial", "1000", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["rho", "mz", "L", "alpha_cs", "alpha_ks"]
        assert len(lines) == 9  # header + 2x2x2 scenario grid

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "0.9"), ("--mz", "2"), ("--L", "3"), ("--mu", "0.3"),
        ("--corr-file", "corr.txt")])
    def test_validate_table_rejects_ignored_flag(self, capsys, flag, value):
        assert_usage_error(capsys, ["validate", "table", "--model", "equal",
                                    flag, value, "--trials", "1",
                                    "--per-trial", "500"], flag)

    def test_validate_gof_negative_seed(self, capsys):
        code, out, err = run(capsys, "validate", "gof", "--model", "equal", "--rho", "0.3",
                             "--mz", "1", "--L", "2",
                             "--trials", "2", "--per-trial", "1000", "--seed", "-1")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "seed" in err

    def test_sample_binary_export(self, capsys, tmp_path):
        path = tmp_path / "draws.bin"
        code, _, _ = run(capsys, "sample", "--model", "exp", "--rho", "0.3",
                         "--mz", "1", "--L", "2", "--omega", "1",
                         "--n", "500", "--seed", "77", "--out", str(path))
        assert code == 0
        data, seed = load_batch(str(path))
        assert data.shape == (500, 2)
        assert seed == 77


class TestCorrFile:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "corr.txt"
        path.write_text("# test matrix\n3\n1 0.6 0.2\n0.6 1 0.5  # row\n0.2 0.5 1\n")
        m = read_corr_file(str(path))
        assert m.dim == 3
        assert m.entries[0, 1] == 0.6

    def test_fit_round_trip_stable(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("3\n1 0.6 0.2\n0.6 1 0.5\n0.2 0.5 1\n")
        fitted = greens_fit(read_corr_file(str(src)))
        out = tmp_path / "fit.txt"
        write_corr_file(fitted, str(out))
        again = greens_fit(read_corr_file(str(out)))
        np.testing.assert_allclose(again.entries, fitted.entries, atol=1e-12)

    def test_arbitrary_model_through_cli(self, capsys, tmp_path):
        path = tmp_path / "corr.txt"
        write_corr_file(CorrelationMatrix.exponential(0.4, 3), str(path))
        code, out, _ = run(capsys, "match", "--model", "arbitrary",
                           "--corr-file", str(path), "--mz", "2", "--omega", "1")
        assert code == 0
        # a Markov-product matrix fits itself, so this equals the
        # exponential-model cell
        assert json.loads(out)["m_r"] == pytest.approx(1.877, abs=5e-4)

    def test_profile_flag(self, capsys):
        code, out, _ = run(capsys, "match", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "3", "--omega", "2", "--mu", "0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["branch_count"] == 3


class TestMalformedInput:
    # each malformed number exits 2 with an error naming its file or flag
    @pytest.mark.parametrize("text", ["2\n1 0.5\n0.5 x\n", "2.0\n1 0.5\n0.5 1\n"],
                             ids=["entry", "dimension"])
    def test_corr_file(self, capsys, tmp_path, text):
        path = tmp_path / "corr.txt"
        path.write_text(text)
        code, _, err = run(capsys, "match", "--model", "arbitrary",
                           "--corr-file", str(path), "--mz", "1")
        assert code == 2
        assert err.startswith("error: ") and str(path) in err

    def test_corr_file_nan(self, capsys, tmp_path):
        path = tmp_path / "corr.txt"
        path.write_text("2\n1 nan\nnan 1\n")
        code, _, err = run(capsys, "match", "--model", "arbitrary",
                           "--corr-file", str(path), "--mz", "1")
        assert code == 2
        assert "entries must be finite" in err

    def test_r_grid(self, capsys):
        code, _, err = run(capsys, "pdf", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--r-grid", "1:2:x")
        assert code == 2
        assert "--r-grid" in err

    def test_snr_grid(self, capsys):
        code, _, err = run(capsys, "ber", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--snr-grid", "1:2:x")
        assert code == 2
        assert "--snr-grid" in err

    @pytest.mark.parametrize("grid", ["nan:10:3", "0:inf:3"])
    def test_snr_grid_not_finite(self, capsys, grid):
        code, _, err = run(capsys, "ber", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--snr-grid", grid)
        assert code == 2
        assert "--snr-grid" in err

    @pytest.mark.parametrize("command", [["ber"], ["outage", "--threshold", "1"]],
                             ids=["ber", "outage"])
    def test_snr_grid_overflow(self, capsys, command):
        code, _, err = run(capsys, *command, "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--snr-grid", "3100:3100:1")
        assert code == 2
        assert "SNR grid point 3100.0 dB" in err

    def test_mgf_nan(self, capsys):
        code, out, err = run(capsys, "mgf", "--model", "equal", "--rho", "0.2",
                             "--mz", "1", "--L", "2", "--s", "nan")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_omega(self, capsys):
        code, _, err = run(capsys, "match", "--model", "equal", "--rho", "0.2",
                           "--mz", "1", "--L", "2", "--omega", "1,a")
        assert code == 2
        assert "--omega" in err

    def test_outage_threshold_db_overflow(self, capsys):
        code, out, err = run(capsys, "outage", *SPEC, "--threshold-db", "4000")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "threshold" in err


class TestFlags:
    # every subcommand rejects a flag it does not read, abbreviations included
    @pytest.mark.parametrize("argv, flag", [
        (["match", *SPEC, "--mod", "exp"], "--mod"),
        (["ber", *SPEC, "--n0", "2"], "--n0"),
        (["validate", "gof", *SPEC, "--mod", "bfsk"], "--mod"),
        (["validate", "gof", *SPEC, "--format", "csv"], "--format"),
        (["validate", "egc", *SPEC, "--trials", "5"], "--trials"),
        (["validate", "table", "--model", "arbitrary"], "--model"),
        (["validate", "--kind", "gof", *SPEC], "--kind"),
    ], ids=["match-abbrev", "ber-n0", "gof-mod", "gof-format", "egc-trials",
            "table-arbitrary", "old-kind"])
    def test_rejected(self, capsys, argv, flag):
        assert_usage_error(capsys, argv, flag)

    def test_curve_csv_header(self, capsys):
        code, out, _ = run(capsys, "ber", *SPEC, "--snr-grid", "0:10:2")
        assert code == 0
        assert out.splitlines()[0] == "snr_db,value,kind,meta"

    @pytest.mark.parametrize("argv", [
        ("ber", *SPEC, "--snr-grid", "0:10:3"),
        ("tables", "--corr", "equal"),
        ("validate", "egc", *SPEC, "--snr-grid", "0:10:3", "--n-bits", "10000"),
    ], ids=["ber", "tables", "validate-egc"])
    def test_csv_rows_end_in_newline(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "\r" not in out
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ("match", *SPEC),
        ("mgf", *SPEC, "--s", "-0.5"),
        ("validate", "gof", *SPEC, "--trials", "2", "--per-trial", "500"),
    ], ids=["match", "mgf", "validate-gof"])
    def test_json_out_file_matches_stdout(self, capsys, tmp_path, argv):
        # a file gets the bytes stdout gets, the final newline included
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("}\n")
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_readme_examples_parse(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme.read_text(), re.S)
        commands = [line for line in block.group(1).replace("\\\n", " ").splitlines()
                    if line.startswith("nakasum ")]
        assert commands
        parser = build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line)[1:])
