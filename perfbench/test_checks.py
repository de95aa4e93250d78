"""The benchmark's output checks accept right outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q

Right outputs are made two ways: from oracle.py alone (fast, no program
involved), and by running lossqfi on small inputs through the worker's own
operation code. Each corruption must be rejected.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402


def _coeff_text(c):
    return f"{c.real:.12g}{c.imag:+.12g}j"


# -- records made from the oracle alone -------------------------------------

def superposition_record(nbar=0.5, phi=0.7, better=True):
    """The better (or worse) of the qubit and the 0-2 qutrit, embedded in four
    levels: the better one's QFI equals the lower bound max(qubit, qutrit02)."""
    qubit_wins = oracle.qubit_qfi(nbar, phi) >= oracle.qutrit02_qfi(nbar, phi)
    beta = math.pi / 2 if qubit_wins == better else 0.0
    c = np.append(oracle.qutrit_amplitudes(nbar, beta), 0.0)
    row = {"family": "superposition", "nbar": nbar, "phi": phi,
           "best_qfi": oracle.qfi(c, phi), "ultimate_bound": 4 * nbar}
    row.update({f"c{m}": _coeff_text(v) for m, v in enumerate(c)})
    return {"kind": "superposition", "nbar": nbar, "phi": phi}, [row]


def gaussian_record(eta=0.5, r=0.3, theta=0.0, phi=0.4):
    nbar = eta ** 2 + math.sinh(r) ** 2
    row = {"family": "gaussian", "nbar": nbar, "phi": phi,
           "best_qfi": oracle.qfi(oracle.gaussian_amplitudes(eta, r, theta), phi),
           "ultimate_bound": 4 * nbar, "eta": eta, "r": r, "theta_rel": theta}
    return {"kind": "gaussian", "nbar": nbar, "phi": phi}, [row]


SWEEP_FAMILIES = ["coherent:alpha=0.8", "gaussian:eta=0.6,r=0.7,theta=1.0",
                  "subtracted:eta=0.9,r=0.4"]


def sweep_record():
    op = {"kind": "sweep", "families": SWEEP_FAMILIES, "phi_range": [0.05, 1.5, 4]}
    rows = []
    for family in SWEEP_FAMILIES:
        amps, nbar = checks.sweep_probe_amplitudes(family)
        for phi in np.linspace(0.05, 1.5, 4):
            h = oracle.coherent_qfi(nbar, phi) if amps is None else oracle.qfi(amps, phi)
            rows.append({"family": family, "phi": float(phi), "nbar": nbar, "H": h,
                         "ultimate_bound": 4 * nbar})
    return op, rows


def region_record():
    grid = [0.0, 0.2, 0.5, 0.9, 1.5]
    e, r = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    nbar, beta, norm2 = oracle.truncated_subtracted_coords(e, r)
    keep = (norm2 > 0) & (nbar <= 1.0)
    out = {"points": {"eta": e[keep].tolist(), "r": r[keep].tolist(),
                      "nbar": nbar[keep].tolist(), "beta": beta[keep].tolist()},
           "skipped": int(np.sum(norm2 == 0)), "eta_grid": grid, "r_grid": grid}
    return {"kind": "region_map", "lattice": [len(grid), len(grid)]}, out


def coverage_record():
    phis, nbars = [0.3, 1.0], [0.2, 0.6]
    points = []
    for phi in phis:
        for nbar in nbars:
            q, q02 = oracle.qubit_qfi(nbar, phi), oracle.qutrit02_qfi(nbar, phi)
            points.append({"phi": phi, "nbar": nbar, "beta_opt": math.pi / 2 if q >= q02 else 0.0,
                           "qfi_opt": max(q, q02), "covered": True, "exception": False})
    return {"kind": "coverage", "phis": phis, "nbars": nbars}, {"points": points, "passed": True}


RECORDS = [superposition_record, gaussian_record, sweep_record, region_record, coverage_record]


@pytest.mark.parametrize("make", RECORDS, ids=lambda f: f.__name__)
def test_right_outputs_pass(make):
    op, out = make()
    assert checks.check(op, out) == []


def _corrupt(make, edit):
    op, out = make()
    out = copy.deepcopy(out)
    edit(op, out)
    return checks.check(op, out)


def _set(container, key, fn):
    container[key] = fn(container[key])


CORRUPTIONS = {
    # superposition
    "superposition QFI off by 1e-4": (superposition_record,
                                      lambda op, o: _set(o[0], "best_qfi", lambda h: h + 1e-4)),
    "superposition coefficients off the energy slice": (
        superposition_record, lambda op, o: _set(o[0], "c1", lambda c: _coeff_text(complex(c) * 1.001))),
    "superposition nbar misprinted": (superposition_record,
                                      lambda op, o: _set(o[0], "nbar", lambda b: b + 1e-6)),
    "superposition below max(qubit, qutrit02)": (
        lambda: superposition_record(better=False), lambda op, o: None),
    "superposition missing coefficient": (superposition_record, lambda op, o: o[0].pop("c3")),
    "superposition two rows": (superposition_record, lambda op, o: o.append(o[0])),
    # gaussian
    "gaussian QFI off by 1e-4": (gaussian_record,
                                 lambda op, o: _set(o[0], "best_qfi", lambda h: h - 1e-4)),
    "gaussian parameters off the energy slice": (gaussian_record,
                                                 lambda op, o: _set(o[0], "r", lambda r: r + 1e-4)),
    "gaussian squeezing phase changed": (gaussian_record,
                                         lambda op, o: _set(o[0], "theta_rel", lambda t: t + 0.1)),
    "gaussian above 4 nbar": (gaussian_record,
                              lambda op, o: _set(o[0], "best_qfi", lambda h: 4 * o[0]["nbar"] * 1.01)),
    # sweep
    "sweep coherent row off by 1e-4": (sweep_record, lambda op, o: _set(o[1], "H", lambda h: h + 1e-4)),
    "sweep gaussian row off by 1e-4": (sweep_record, lambda op, o: _set(o[5], "H", lambda h: h + 1e-4)),
    "sweep subtracted nbar off": (sweep_record, lambda op, o: _set(o[9], "nbar", lambda b: b + 1e-4)),
    "sweep rows reordered": (sweep_record, lambda op, o: o.reverse()),
    "sweep row missing": (sweep_record, lambda op, o: o.pop()),
    # region map
    "region point with swapped coordinates": (region_record, lambda op, o: _swap_point(o)),
    "region beta off by 1e-5": (region_record, lambda op, o: o["points"]["beta"].__setitem__(
        0, o["points"]["beta"][0] + 1e-5)),
    "region point dropped, not counted as skipped": (region_record, lambda op, o: [
        o["points"][k].pop() for k in ("eta", "r", "nbar", "beta")]),
    "region point off the lattice": (region_record, lambda op, o: o["points"]["eta"].__setitem__(
        0, o["points"]["eta"][0] + 0.05)),
    "region point above nbar 1 kept": (region_record, lambda op, o: _keep_bright_point(o)),
    "region lattice smaller than asked": (region_record, lambda op, o: o.update(
        eta_grid=o["eta_grid"][:-1])),
    # coverage
    "coverage qfi_opt off by 1e-4": (coverage_record, lambda op, o: _set(
        o["points"][2], "qfi_opt", lambda h: h + 1e-4)),
    "coverage beta_opt changed": (coverage_record, lambda op, o: _set(
        o["points"][0], "beta_opt", lambda b: abs(b - 0.3))),
    "coverage failed": (coverage_record, lambda op, o: o.update(passed=False)),
    "coverage point missing": (coverage_record, lambda op, o: o["points"].pop()),
    "coverage passed despite a miss": (coverage_record, lambda op, o: o["points"][1].update(covered=False)),
}


def _swap_point(out):
    pts = out["points"]
    i = next(k for k, (e, r) in enumerate(zip(pts["eta"], pts["r"])) if e != r and e in out["r_grid"]
             and r in out["eta_grid"] and r >= 0)
    pts["eta"][i], pts["r"][i] = pts["r"][i], pts["eta"][i]


def _keep_bright_point(out):
    e, r = 1.5, 0.0
    nbar, beta, _ = oracle.truncated_subtracted_coords(np.array([e]), np.array([r]))
    assert nbar[0] > 1.0 and (e, r) not in zip(out["points"]["eta"], out["points"]["r"])
    for key, value in zip(("eta", "r", "nbar", "beta"), (e, r, nbar[0], beta[0])):
        out["points"][key].append(float(value))


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_is_rejected(name):
    make, edit = CORRUPTIONS[name]
    problems = _corrupt(make, edit)
    assert problems, name
    assert not any(isinstance(p, checks.KnownFault) for p in problems), name


# -- the known cutoff fault of region_map and the run's verdict --------------

def near_origin_record(cut=((0.01, 0.0),)):
    """A lattice around the origin where the points in ``cut`` show the
    cutoff fault: beta = pi/2 exactly and the nbar of the state without its
    level-3 part."""
    eta_grid, r_grid = [0.01, 0.05, 0.2], [-0.002, 0.0, 0.3]
    e, r = (a.ravel() for a in np.meshgrid(eta_grid, r_grid, indexing="ij"))
    nbar, beta, _ = oracle.truncated_subtracted_coords(e, r)
    cut_nbar, _, _ = oracle.truncated_subtracted_coords(e, r, drop_level3=True)
    for i, point in enumerate(zip(e.tolist(), r.tolist())):
        if point in cut:
            nbar[i], beta[i] = cut_nbar[i], math.pi / 2
    out = {"points": {"eta": e.tolist(), "r": r.tolist(), "nbar": nbar.tolist(),
                      "beta": beta.tolist()},
           "skipped": 0, "eta_grid": eta_grid, "r_grid": r_grid}
    return {"kind": "region_map", "lattice": [3, 3]}, out


def _kinds(problems):
    return [isinstance(p, checks.KnownFault) for p in problems]


def test_cutoff_fault_symptom_is_a_known_fault():
    assert _kinds(checks.check(*near_origin_record())) == [True]
    assert checks.check(*near_origin_record(cut=())) == []


def test_cutoff_symptom_outside_the_fault_box_is_rejected():
    # beta = pi/2 at eta = 0.2 is not the documented fault
    assert _kinds(checks.check(*near_origin_record(cut=((0.2, 0.0),)))) == [False]


def test_fault_box_point_with_a_wrong_nbar_is_rejected():
    op, out = near_origin_record()
    i = list(zip(out["points"]["eta"], out["points"]["r"])).index((0.01, 0.0))
    out["points"]["nbar"][i] += 1e-4
    assert _kinds(checks.check(op, out)) == [False]


def test_more_fault_points_than_measured_are_rejected(monkeypatch):
    monkeypatch.setattr(checks, "CUTOFF_FAULT_MAX", 1)
    problems = checks.check(*near_origin_record(cut=((0.01, 0.0), (0.05, 0.0))))
    assert _kinds(problems) == [False]


def test_tally_counts_a_known_fault_as_failed_but_expected():
    op, out = near_origin_record()
    assert checks.tally([op], [{"ok": True, "output": out}])[:3] == (1, 1, 0)


def test_tally_counts_a_raising_operation_as_unexpected():
    op, out = gaussian_record()
    error = "Traceback (most recent call last):\nRuntimeError: boom\n"
    completed, failed, unexpected, problems = checks.tally(
        [op, op], [{"ok": True, "output": out}, {"ok": False, "error": error}])
    assert (completed, failed, unexpected) == (1, 1, 1)
    assert problems == ["gaussian: RuntimeError: boom"]


def test_tally_counts_a_wrong_output_and_a_missing_result_as_unexpected():
    op, out = gaussian_record()
    out[0]["best_qfi"] += 1e-4
    assert checks.tally([op, op], [{"ok": True, "output": out}])[:3] == (1, 2, 2)
    assert checks.tally([op], [])[:3] == (0, 1, 1)


# -- outputs of the program itself, on small inputs -------------------------

lossqfi = pytest.importorskip("lossqfi")
import lossqfi.cli  # noqa: E402
import worker  # noqa: E402


def _program(op, maps=None):
    return worker.parse_output(op["kind"], worker.run_op(lossqfi, op, [] if maps is None else maps))


def test_program_sweep_passes():
    op = {"kind": "sweep", "families": SWEEP_FAMILIES, "phi_range": [0.05, 1.5, 5]}
    assert checks.check(op, _program(op)) == []


def test_program_gaussian_optimum_passes():
    op = {"kind": "gaussian", "nbar": 0.1, "phi": 0.9}
    out = _program(op)
    assert checks.check(op, out) == []
    out[0]["best_qfi"] += 1e-4
    assert checks.check(op, out)


def test_program_region_and_coverage_pass_away_from_the_origin():
    grid = np.array([0.3, 0.6, 1.0])
    region = lossqfi.degauss.region_map(grid, np.array([-0.4, 0.0, 0.4]))
    op = {"kind": "region_map", "lattice": [3, 3]}
    assert checks.check(op, worker.parse_output("region_map", region)) == []
    op = {"kind": "coverage", "phis": [0.8], "nbars": [0.3, 0.6]}
    report = lossqfi.degauss.coverage_check(op["phis"], op["nbars"], region)
    out = worker.parse_output("coverage", report)
    # a three-point lattice need not cover the curve; every other check holds
    problems = checks.check(op, out)
    assert [p for p in problems if "reported a miss" not in p] == []


def test_region_check_reports_the_cutoff_fault_near_the_origin():
    # D(0.025)|0> is cut at three levels (its level-3 population, 4e-11, is
    # below the 1e-10 tail tolerance), so the subtracted state loses its
    # level 2 and the program reports beta = pi/2 exactly; the closed form
    # gives atan(sqrt(2) / eta) = 1.5531
    region = lossqfi.degauss.region_map(np.array([0.025]), np.array([0.0]))
    out = worker.parse_output("region_map", region)
    assert out["points"]["beta"] == [math.pi / 2]
    _, beta, _ = oracle.truncated_subtracted_coords(np.array([0.025]), np.array([0.0]))
    assert abs(beta[0] - math.atan(math.sqrt(2) / 0.025)) < 1e-12
    problems = checks.check({"kind": "region_map", "lattice": [1, 1]}, out)
    assert _kinds(problems) == [True]
