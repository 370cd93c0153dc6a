"""Command-line interface tests: flag validation, output formats,
determinism, and the correlation-file round trip."""
import json
import math

import numpy as np
import pytest

from nakasum.cli import main, read_corr_file, write_corr_file
from nakasum.linalg import CorrelationMatrix, greens_fit
from nakasum.simkit import load_batch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestValidateAndSample:
    def test_validate_gof_deterministic(self, capsys, tmp_path):
        args = ("validate", "--model", "equal", "--rho", "1", "--mz", "1",
                "--L", "2", "--omega", "1", "--kind", "gof",
                "--trials", "4", "--per-trial", "1500", "--seed", "5")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["n_trials"] == 4

    def test_validate_table_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", "equal", "--table",
                           "--trials", "2", "--per-trial", "1000", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["rho", "mz", "L", "alpha_cs", "alpha_ks"]
        assert len(lines) == 9  # header + 2x2x2 scenario grid

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
