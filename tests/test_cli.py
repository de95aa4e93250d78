import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lossqfi
from lossqfi.cli import _write_table, build_parser, main


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

    def test_superposition_k4_reports_a_stationary_optimum(self, tmp_path):
        # the highest start here is not stationary; the optimum is chosen
        # among the starts that pass the stationarity certificate
        code, text = run(tmp_path, "optimize", "--family", "superposition", "--kmax", "4",
                         "--nbar", "0.1", "--phi", "1.2")
        assert code == 0
        header, row = (ln.split(",") for ln in text.strip().split("\n"))
        # within the 1e-9 tie of the uncertified start's H
        assert abs(float(dict(zip(header, row))["best_qfi"]) - 0.35283828202154116) <= 1e-9


class TestOptimizerEntries:
    @pytest.mark.parametrize("family,tag,params", [
        ("qutrit", "qutrit_opt", ""),
        ("gaussian", "gaussian_opt", ""),
        ("superposition", "superposition_k", "k=2"),
        ("cat", "cat_best", ""),
    ])
    def test_three_commands_agree(self, tmp_path, family, tag, params):
        # optimize, sweep-phi and sweep-energy reach each optimizer through
        # the same table entry, so all three print the same H at one point
        nbar, phi = "0.5", "0.6"
        _, text = run(tmp_path, "optimize", "--family", family, "--kmax", "2",
                      "--nbar", nbar, "--phi", phi)
        header, row = (ln.split(",") for ln in text.strip().split("\n"))
        best = dict(zip(header, row))["best_qfi"]
        spec = ",".join(p for p in (f"nbar={nbar}", params) if p)
        _, text = run(tmp_path, "sweep-phi", "--families", f"{tag}:{spec}",
                      "--phi", f"{phi}:1.2:2")
        by_phi = text.strip().split("\n")[1].rsplit(",", 4)
        energy = f"{tag}:{params}" if params else tag
        _, text = run(tmp_path, "sweep-energy", "--families", energy,
                      "--nbar", f"{nbar}:1:2", "--phi", phi)
        by_energy = text.strip().split("\n")[1].rsplit(",", 4)
        assert (by_phi[1], by_energy[1], by_energy[2]) == (phi, nbar, phi)
        assert by_phi[3] == by_energy[3] == best


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


    @pytest.mark.parametrize("argv,message", [
        (("sweep-phi", "--families", "superposition_k:k=x,nbar=0.5", "--phi", "0.3:0.5:2"),
         "superposition order k='x' is not an integer"),
        (("sweep-energy", "--families", "coherent", "--nbar=-1:1:3", "--phi", "0.5"),
         "coherent energy must be non-negative, got -1.0"),
        (("sweep-energy", "--families", "coherent", "--nbar=nan:1:3", "--phi", "0.5"),
         "bad range 'nan:1:3': its ends must be finite"),
        (("optimize", "--family", "cat", "--nbar", "nan", "--phi", "0.5"),
         "no cat state exists at nbar=nan"),
        (("optimize", "--family", "gaussian", "--nbar", "nan", "--phi", "0.5"),
         "energy must be positive"),
    ])
    def test_bad_values_exit_with_a_message(self, tmp_path, capsys, argv, message):
        # a bad order, a negative or NaN energy or a non-finite range end is
        # named, not raised from int(), math.sqrt or brentq as a traceback, or
        # reported as a cutoff overflow
        code, text = run(tmp_path, *argv)
        assert code in (1, 2) and text == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("qfi", "coherent:alpha=nan", "--phi", "0.5"),
         "coherent:alpha=nan: parameter alpha must be finite"),
        (("qfi", "gaussian:eta=inf,r=1", "--phi", "0.5"),
         "gaussian:eta=inf,r=1,theta=0: parameter eta must be finite"),
        (("qfi", "cat:alpha=inf", "--phi", "0.5"), "parameter alpha must be finite"),
        (("sld-dump", "subtracted:eta=1,r=nan", "--phi", "0.5"),
         "parameter r must be finite"),
        (("sweep-phi", "--families", "gaussian:eta=1,r=1,theta=inf", "--phi", "0.3:0.5:2"),
         "parameter theta_rel must be finite"),
    ])
    def test_non_finite_probe_parameter_is_named(self, tmp_path, capsys, argv, message):
        # rejected before any construction: no cutoff advice and no
        # numpy warning from arithmetic on the non-finite value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, *argv)
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert message in err
        assert "cutoff" not in err

    def test_the_loss_domain_is_no_option(self, tmp_path, capsys):
        # the domain edge is the constant channel.PHI_MIN: --phi-min is a
        # usage error, and an angle below the edge is refused by name
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "fock:n=2", "--phi", "0.6", "--phi-min", "1e-6"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, text = run(tmp_path, "qfi", "fock:n=2", "--phi", "5e-4")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: phi=0.0005 outside [0.001, pi/2 - 0.001]\n"
        # a sweep checks its angles together and names the first one outside
        code, text = run(tmp_path, "sweep-phi", "--families", "fock:n=1",
                         "--phi", "0.0005:0.2:3")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: phi=0.0005 outside [0.001, pi/2 - 0.001]\n"


    def test_a_failed_engine_check_exits_with_a_message(self, tmp_path, capsys, monkeypatch):
        # a hot-path check that raises ArithmeticError, such as the
        # superposition search's stationarity check, is an engine error
        def failing(*args, **kwargs):
            raise ArithmeticError("planted: the real optimum is not stationary")

        monkeypatch.setattr(lossqfi.cli, "optimize_superposition", failing)
        code, text = run(tmp_path, "optimize", "--family", "superposition",
                         "--nbar", "0.5", "--phi", "0.7")
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: planted: the real optimum is not stationary\n"
        assert "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("sld-dump", "gaussian:eta=1,r=1", "--phi", "0.6"),
        ("sweep-phi", "--families", "fock:n=2,gaussian:eta=1,r=1,subtracted:eta=1,r=0.4",
         "--phi", "0.2:1.4:4"),
    ])
    def test_output_is_independent_of_the_blas_thread_count(self, argv):
        src = str(Path(lossqfi.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from lossqfi.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv], env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") > 4


class TestOptions:
    def test_seed_only_where_it_is_read_and_no_cutoff_options(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        seeded = {name for name, p in commands.items() if "--seed" in p._option_string_actions}
        assert seeded == {"sweep-phi", "sweep-energy", "optimize", "simulate"}
        for p in commands.values():
            assert not {"--cutoff-cap", "--tail-tol"} & set(p._option_string_actions)

    def test_a_state_past_the_level_guard_is_an_engine_error(self, tmp_path, capsys):
        code, text = run(tmp_path, "qfi", "gaussian:eta=0,r=3", "--phi", "0.5")
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert "lower its energy or its squeezing" in err
        assert "--" not in err


class TestImports:
    def test_the_cli_runs_without_scipy(self):
        # the package runs on numpy alone: neither the import nor a command
        # that solves for a cat amplitude and builds coherent amplitudes
        # loads any scipy module; and neither the default region map nor a
        # coverage check on it loads numpy.ma, which np.unique imports
        src = str(Path(lossqfi.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "\n".join([
            "import sys",
            "def scipy_modules():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "import lossqfi.cli",
            "assert not scipy_modules(), scipy_modules()",
            "code = lossqfi.cli.main(['optimize', '--family', 'cat', '--nbar', '2',"
            " '--phi', '0.5'])",
            "assert code == 0, code",
            "assert not scipy_modules(), scipy_modules()",
            "region = lossqfi.degauss.region_map()",
            "lossqfi.degauss.coverage_check([0.4], [0.3], region)",
            "assert 'numpy.ma' not in sys.modules",
        ])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("family,nbar,phi,best_qfi")


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
