import json
import math
import re

import numpy as np
import pytest

from lossqfi.cli import _write_table, main


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestSweepPhi:
    def test_fock_and_coherent_row_count(self, tmp_path):
        code, text = run(tmp_path, "sweep-phi",
                         "--families", "fock:n=2,coherent:alpha=1",
                         "--phi", "0.05:1.52:30")
        lines = text.strip().split("\n")
        assert code == 0
        assert lines[0] == "family,phi,nbar,H,ultimate_bound"
        assert len(lines) == 61
        fock_rows = [ln for ln in lines[1:] if ln.startswith("fock")]
        assert len(fock_rows) == 30
        assert all(ln.split(",")[3] == "8" for ln in fock_rows)

    def test_qubit_matches_closed_form(self, tmp_path):
        code, text = run(tmp_path, "sweep-phi", "--families", "qubit:nbar=0.5",
                         "--phi", "0.1:1.5:15")
        assert code == 0
        for line in text.strip().split("\n")[1:]:
            _, phi, nbar, h, _ = line.rsplit(",", 4)
            expected = 4 * 0.5 * (1 - 0.5 * math.cos(float(phi)) ** 2)
            assert abs(float(h) - expected) < 1e-8

    def test_empty_family_list_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep-phi", "--families", "", "--phi", "0.1:1:5")
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ("sweep-phi", "--families", "fock:n=1,qubit:nbar=0.3",
                "--phi", "0.2:1.2:7")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second
        assert first.endswith("\n")

    def test_optimized_family(self, tmp_path):
        code, text = run(tmp_path, "sweep-phi", "--families",
                         "qutrit_opt:nbar=0.5", "--phi", "0.4:1.2:3")
        assert code == 0
        rows = text.strip().split("\n")[1:]
        assert len(rows) == 3
        for row in rows:
            h = float(row.split(",")[3])
            assert 0.0 < h <= 2.0 * (1 + 1e-6)


class TestSweepEnergy:
    def test_ordering_and_bound_columns(self, tmp_path):
        code, text = run(tmp_path, "sweep-energy",
                         "--families", "qubit,coherent",
                         "--nbar", "0.2:1:5", "--phi", "0.9")
        assert code == 0
        rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
        assert len(rows) == 10
        for row in rows:
            assert float(row[3]) <= float(row[4]) * (1 + 1e-6)

    def test_bad_phi_is_engine_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep-energy", "--families", "qubit",
                      "--nbar", "0.2:1:5", "--phi", "2.0")
        assert code == 1


class TestQfiCommand:
    def test_report_row(self, tmp_path):
        code, text = run(tmp_path, "qfi", "qubit:nbar=0.5", "--phi", "pi/3")
        assert code == 0
        header, row = text.strip().split("\n")
        cells = row.split(",")
        idx = header.split(",").index("qfi")
        # the probe label itself contains a quoted comma
        assert '"' in row
        assert abs(float(cells[idx + 1]) - 1.75) < 1e-9


class TestOptimizeCommand:
    def test_qutrit_record(self, tmp_path):
        code, text = run(tmp_path, "optimize", "--family", "qutrit",
                         "--nbar", "0.5", "--phi", "pi/4")
        assert code == 0
        header, row = (ln.split(",") for ln in text.strip().split("\n"))
        record = dict(zip(header, row))
        assert abs(float(record["best_qfi"]) - 1.598958287) < 1e-6
        assert record["converged"] == "true"


class TestSldDump:
    def test_fock_probe_rows(self, tmp_path):
        code, text = run(tmp_path, "sld-dump", "fock:n=2", "--phi", "0.6")
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for row in lines[1:]:
            cells = [float(c) for c in row.split(",")]
            amps = np.array(cells[1:4]) + 1j * np.array(cells[4:7])
            assert np.max(np.abs(amps)) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(np.abs(amps) > 1e-12) == 1

    def test_vacuum_single_zero_row(self, tmp_path):
        code, text = run(tmp_path, "sld-dump", "fock:n=0", "--phi", "0.7")
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == pytest.approx(0.0, abs=1e-12)


class TestSimulateCommand:
    def test_normalized_variance_band(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--n", "1", "--phi", "pi/4",
                         "--runs", "10000", "--reps", "200", "--seed", "7")
        assert code == 0
        header, row = text.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert 0.85 <= float(record["normalized_variance"]) <= 1.15

    def test_identical_seed_identical_bytes(self, tmp_path):
        args = ("simulate", "--n", "1", "--phi", "0.7", "--runs", "500",
                "--reps", "20", "--seed", "9")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second

    def test_too_few_runs_is_engine_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--n", "1", "--phi", "0.7",
                      "--runs", "10", "--reps", "200")
        assert code == 1


class TestRegionCommand:
    def test_small_grid_outputs(self, tmp_path):
        prefix = tmp_path / "reg"
        code = main(["region", "--eta", "0.2:1.4:13", "--r=-0.6:0.6:13",
                     "--phi", "pi/4", "--nbar", "0.4:0.6:2",
                     "--out", str(prefix)])
        region_file = tmp_path / "reg_region.csv"
        coverage_file = tmp_path / "reg_coverage.csv"
        curves = list(tmp_path.glob("reg_curve_phi*.csv"))
        assert region_file.exists() and coverage_file.exists()
        assert len(curves) == 1
        assert region_file.read_text().startswith("eta,r,nbar,beta\n")
        header = coverage_file.read_text().split("\n")[0]
        assert header == "phi,nbar,beta_opt,qfi_opt,covered,exception"
        assert code in (0, 1)  # sparse test lattice may miss coverage

    def test_empty_region_grid_is_usage_error(self, tmp_path):
        code = main(["region", "--eta", "0.2:1.4:1", "--r=-0.6:0.6:13",
                     "--out", str(tmp_path / "r")])
        assert code == 2


class TestBadInput:
    @pytest.mark.parametrize("phi", ["pi/0", "pi/"])
    def test_bad_fraction_is_engine_error(self, tmp_path, capsys, phi):
        code, text = run(tmp_path, "qfi", "fock:n=1", "--phi", phi)
        assert (code, text) == (1, "")
        assert f"cannot parse number {phi!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("qfi", "gaussian:eta=1,r=1,thta=0.3", "--phi", "0.5"),
         "gaussian does not take thta; it takes eta, r, theta"),
        (("qfi", "qubit:nbar=0.5,theta=0.2", "--phi", "0.5"),
         "qubit takes theta or nbar, not both"),
        (("sweep-phi", "--families", "qutrit_opt:nbar=0.5,kk=3", "--phi", "0.4:1.2:3"),
         "qutrit_opt does not take kk; it takes nbar"),
        (("sweep-energy", "--families", "coherent:alpha=5", "--nbar", "0.2:1:3",
          "--phi", "0.5"), "coherent does not take alpha; it takes no parameters"),
    ])
    def test_keys_a_family_does_not_take(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert (code, text) == (1, "")
        assert message in capsys.readouterr().err


class TestFormats:
    def test_json_is_valid_and_deterministic(self, tmp_path):
        args = ("qfi", "fock:n=2", "--phi", "0.6", "--format", "json")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second
        payload = json.loads(first)
        assert payload[0]["qfi"] == pytest.approx(8.0, abs=1e-9)

    def test_twelve_significant_digits(self, tmp_path):
        _, text = run(tmp_path, "qfi", "qubit:nbar=0.3", "--phi", "0.923456789")
        row = text.strip().split("\n")[1]
        phi_cell = row.split('",')[1].split(",")[0]
        assert phi_cell == "0.923456789"
        _, text = run(tmp_path, "qfi", "qubit:nbar=0.3", "--phi", "pi/3")
        row = text.strip().split("\n")[1]
        phi_cell = row.split('",')[1].split(",")[0]
        assert phi_cell == format(math.pi / 3, ".12g")

    def test_json_quotes_non_finite_values(self, tmp_path):
        out = tmp_path / "t.json"
        _write_table(["a", "b", "c", "d"],
                     [[float("nan"), math.inf, -math.inf, np.float64("nan")]],
                     str(out), "json")
        text = out.read_text()
        assert re.search(r":\s*-?(nan|inf)\b", text) is None
        row = json.loads(text)[0]
        assert row == {"a": "nan", "b": "inf", "c": "-inf", "d": "nan"}
