"""Command-line interface: figure-style data sweeps, single-point QFI
reports, probe optimization, region maps, SLD dumps and Monte Carlo runs.

All output is CSV or JSON data with fixed 12-significant-digit formatting;
identical inputs and seed produce byte-identical files. Exit codes: 0 on
success, 1 on engine or domain errors, 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import namedtuple

import numpy as np

from .channel import PHI_MIN, LossParameter
from .degauss import coverage_check, default_region_grids, region_map
from .errors import CutoffOverflowError, DegenerateStateError, DomainError
from .estimation import _qfi_stack, qfi, sld
from .fock import mean_photon
from .montecarlo import simulate_fock_estimation
from .optimize import (best_cat, optimize_gaussian, optimize_qutrit,
                       optimize_superposition)
from .probes import _FAMILIES, _fnum, _parse_kv, build_probe, parse_probe, probe_label

USAGE_ERROR = 2
ENGINE_ERROR = 1


class ConfigError(Exception):
    """Bad command configuration (exit 2)."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".12g")


def _csv_cell(value) -> str:
    cell = _fmt(value)
    return f'"{cell}"' if "," in cell else cell


def _write_table(headers, rows, out, fmt):
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(_csv_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        chunks = []
        for row in rows:
            fields = []
            for key, value in zip(headers, row):
                if isinstance(value, str):
                    fields.append(f'"{key}": "{value}"')
                elif isinstance(value, (bool, np.bool_)):
                    fields.append(f'"{key}": {_fmt(value)}')
                elif isinstance(value, float) and not math.isfinite(value):
                    fields.append(f'"{key}": "{_fmt(value)}"')
                else:
                    fields.append(f'"{key}": {_fmt(value)}')
            chunks.append("  {" + ", ".join(fields) + "}")
        text = "[\n" + ",\n".join(chunks) + "\n]\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_range(text: str) -> np.ndarray:
    """Inclusive range start:stop:count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop = _fnum(parts[0]), _fnum(parts[1])
        count = int(parts[2])
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    if count < 2:
        raise ConfigError("range needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"bad range {text!r}: its ends must be finite")
    return np.linspace(start, stop, count)


def _split_families(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    # parameterized specs contain '=' after a ':'; re-join fragments that
    # belong to the same spec (commas inside key=value lists)
    merged: list[str] = []
    for item in items:
        if merged and "=" in item and ":" not in item:
            merged[-1] += "," + item
        else:
            merged.append(item)
    if not merged:
        raise ConfigError("family list is empty")
    return merged


# One fixed-energy optimizer: its `optimize --family` name, its sweep tag, the
# sweep keys it takes besides nbar, its call at (nbar, loss, superposition
# order k, seed), and the extra columns `optimize` prints from its best
# parameters.
_Optimizer = namedtuple("_Optimizer", "family tag keys run columns")
_OPTIMIZERS = (
    _Optimizer("qutrit", "qutrit_opt", (),
               lambda nbar, loss, k, seed: optimize_qutrit(nbar, loss),
               lambda p: [("beta", p["beta"])]),
    _Optimizer("gaussian", "gaussian_opt", (),
               lambda nbar, loss, k, seed: optimize_gaussian(nbar, loss),
               lambda p: [(key, p[key]) for key in ("squeeze_fraction", "theta_rel", "eta", "r")]),
    _Optimizer("superposition", "superposition_k", ("k",),
               lambda nbar, loss, k, seed: optimize_superposition(k, nbar, loss, seed=seed),
               lambda p: [(f"c{m}", f"{c.real:.12g}{c.imag:+.12g}j")
                          for m, c in enumerate(p["coefficients"])]),
    _Optimizer("cat", "cat_best", (),
               lambda nbar, loss, k, seed: best_cat(nbar, loss),
               lambda p: [("alpha", p["alpha"]), ("sign", p["sign"])]),
)
_OPTIMIZER_FAMILIES = {opt.family: opt for opt in _OPTIMIZERS}
_OPTIMIZER_TAGS = {opt.tag: opt for opt in _OPTIMIZERS}


def _order(kv: dict) -> int:
    """The superposition order k of a sweep tag (3 when absent)."""
    text = kv.get("k", "3")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"superposition order k={text!r} is not an integer") from None


def _sweep_phi_rows(family: str, phis, args):
    head, _, body = family.partition(":")
    opt = _OPTIMIZER_TAGS.get(head)
    if opt is None:
        state = build_probe(parse_probe(family))
        nbar = mean_photon(state)
        hs = _qfi_stack(np.tile(state.amplitudes, (len(phis), 1)), phis)
        return [[family, p, nbar, h, 4.0 * nbar] for p, h in zip(phis, hs)]
    kv = _parse_kv(head, body, ("nbar",) + opt.keys)
    if "nbar" not in kv:
        raise ConfigError(f"family {family!r} needs an nbar parameter")
    nbar = _fnum(kv["nbar"])
    rows = []
    for p in phis:
        res = opt.run(nbar, LossParameter(p), _order(kv), args.seed)
        rows.append([family, p, res.nbar, res.best_qfi, 4.0 * res.nbar])
    return rows


def cmd_sweep_phi(args) -> int:
    families = _split_families(args.families)
    phis = (_parse_range(args.phi) if args.phi else
            np.linspace(PHI_MIN, math.pi / 2 - PHI_MIN, 25))
    rows = []
    for family in families:
        rows.extend(_sweep_phi_rows(family, phis, args))
    _write_table(["family", "phi", "nbar", "H", "ultimate_bound"], rows,
                 args.out, args.format)
    return 0


def _sweep_energy_value(tag: str, nbar: float, loss, args):
    head, _, body = tag.partition(":")
    opt = _OPTIMIZER_TAGS.get(head)
    if opt is not None:
        kv = _parse_kv(head, body, opt.keys)
        return opt.run(nbar, loss, _order(kv), args.seed).best_qfi
    if head not in _FAMILIES or _FAMILIES[head].from_nbar is None:
        raise ConfigError(f"unknown energy-sweep family {tag!r}")
    _parse_kv(head, body, ())
    return qfi(_FAMILIES[head].from_nbar(nbar), loss).qfi


def cmd_sweep_energy(args) -> int:
    families = _split_families(args.families)
    nbars = _parse_range(args.nbar)
    loss = LossParameter(_fnum(args.phi))
    rows = []
    for family in families:
        for nbar in nbars:
            h = _sweep_energy_value(family, float(nbar), loss, args)
            rows.append([family, float(nbar), loss.phi, h, 4.0 * float(nbar)])
    _write_table(["family", "nbar", "phi", "H", "ultimate_bound"], rows,
                 args.out, args.format)
    return 0


def cmd_qfi(args) -> int:
    spec = parse_probe(args.probe)
    rep = qfi(spec, LossParameter(_fnum(args.phi)), runs=args.runs)
    headers = ["probe", "phi", "nbar", "qfi", "ultimate_bound",
               "crlb_variance", "ultimate_variance", "runs", "method"]
    ult_var = 1.0 / (4.0 * rep.nbar * rep.runs) if rep.nbar > 0 else math.inf
    rows = [[probe_label(spec), rep.phi.phi, rep.nbar, rep.qfi,
             rep.ultimate_bound, rep.crlb_variance, ult_var, rep.runs,
             rep.method]]
    _write_table(headers, rows, args.out, args.format)
    return 0


def cmd_optimize(args) -> int:
    loss = LossParameter(_fnum(args.phi))
    opt = _OPTIMIZER_FAMILIES[args.family]
    res = opt.run(args.nbar, loss, args.kmax, args.seed)
    extras = opt.columns(res.best_params)
    headers = (["family", "nbar", "phi", "best_qfi", "ultimate_bound",
                "starts", "converged", "seed"] + [k for k, _ in extras])
    rows = [[res.family, res.nbar, loss.phi, res.best_qfi, 4.0 * res.nbar,
             res.starts, res.converged, res.seed] + [v for _, v in extras]]
    _write_table(headers, rows, args.out, args.format)
    return 0


def cmd_region(args) -> int:
    etas = _parse_range(args.eta) if args.eta else None
    rs = _parse_range(args.r) if args.r else None
    if (etas is None) != (rs is None):
        defaults = default_region_grids()
        etas = defaults[0] if etas is None else etas
        rs = defaults[1] if rs is None else rs
    phis = ([_fnum(t) for t in args.phi.split(",")] if args.phi else
            [math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
             math.pi / 2 - PHI_MIN])
    nbars = _parse_range(args.nbar) if args.nbar else np.linspace(0.05, 0.95, 19)
    region = region_map(etas, rs)
    ext = args.format
    prefix = args.out or "region"
    fields = ["eta", "r", "nbar", "beta"]
    _write_table(fields, zip(*(region.points[name].tolist() for name in fields)),
                 f"{prefix}_region.{ext}", args.format)
    report = coverage_check([LossParameter(p) for p in phis], nbars, region)
    for p in phis:
        loss = LossParameter(p)
        rows = [[c.phi, c.nbar, c.beta_opt, c.qfi_opt]
                for c in report.points if c.phi == loss.phi]
        _write_table(["phi", "nbar", "beta_opt", "H_opt"], rows,
                     f"{prefix}_curve_phi{loss.phi:.6g}.{ext}", args.format)
    _write_table(["phi", "nbar", "beta_opt", "qfi_opt", "covered", "exception"],
                 [[c.phi, c.nbar, c.beta_opt, c.qfi_opt, c.covered, c.exception]
                  for c in report.points],
                 f"{prefix}_coverage.{ext}", args.format)
    if not report.passed:
        misses = report.failures
        sys.stderr.write(f"coverage failed at {len(misses)} non-exception points\n")
        return ENGINE_ERROR
    return 0


def cmd_sld_dump(args) -> int:
    spec = parse_probe(args.probe)
    loss = LossParameter(_fnum(args.phi))
    operator = sld(build_probe(spec), loss)
    dim = operator.matrix.shape[0]
    headers = ["eigenvalue"] + [f"re_{m}" for m in range(dim)] + \
              [f"im_{m}" for m in range(dim)]
    rows = []
    for k in range(dim):
        vec = operator.spectrum.eigenvectors[:, k]
        rows.append([operator.spectrum.eigenvalues[k]]
                    + [v.real for v in vec] + [v.imag for v in vec])
    _write_table(headers, rows, args.out, args.format)
    return 0


def cmd_simulate(args) -> int:
    rep = simulate_fock_estimation(args.n, LossParameter(_fnum(args.phi)),
                                   args.runs, args.reps, seed=args.seed)
    headers = ["n", "phi_true", "runs", "repetitions", "seed", "phi_hat_mean",
               "empirical_variance", "crlb", "normalized_variance",
               "boundary_clips"]
    rows = [[rep.n, rep.phi_true, rep.runs, rep.repetitions, rep.seed,
             rep.phi_hat_mean, rep.empirical_variance, rep.crlb,
             rep.normalized_variance, rep.boundary_clips]]
    _write_table(headers, rows, args.out, args.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lossqfi",
        description="QFI toolkit for loss estimation in bosonic channels")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None)
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, seed=False, **kwargs):
        return sub.add_parser(name, parents=[shared, seeded] if seed else [shared], **kwargs)

    p = add_parser("qfi", help="QFI of a single probe at one loss value")
    p.add_argument("probe")
    p.add_argument("--phi", required=True)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=cmd_qfi)

    p = add_parser("sweep-phi", seed=True, help="QFI versus loss for probe families")
    p.add_argument("--families", required=True)
    p.add_argument("--phi", default=None, help="start:stop:count")
    p.set_defaults(func=cmd_sweep_phi)

    p = add_parser("sweep-energy", seed=True, help="QFI versus energy at fixed loss")
    p.add_argument("--families", required=True)
    p.add_argument("--nbar", required=True, help="start:stop:count")
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_sweep_energy)

    p = add_parser("optimize", seed=True, help="optimize one family at fixed energy")
    p.add_argument("--family", required=True,
                   choices=tuple(_OPTIMIZER_FAMILIES))
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(func=cmd_optimize)

    p = add_parser("region", help="attainable-region map and coverage")
    p.add_argument("--eta", default=None, help="start:stop:count")
    p.add_argument("--r", default=None, help="start:stop:count")
    p.add_argument("--phi", default=None, help="comma list")
    p.add_argument("--nbar", default=None, help="start:stop:count")
    p.set_defaults(func=cmd_region)

    p = add_parser("sld-dump", help="optimal measurement of a probe")
    p.add_argument("probe")
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_sld_dump)

    p = add_parser("simulate", seed=True, help="Monte Carlo photon-counting runs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return USAGE_ERROR
    except (DomainError, DegenerateStateError, CutoffOverflowError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return ENGINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
