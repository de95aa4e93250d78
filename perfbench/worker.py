"""Runs one workload's operations against lossqfi in this process.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS pinned
to one thread. Reads ``{"ops": [...], "trace": bool}`` on stdin, runs every
operation in order inside one timed phase, and writes one JSON object with
the raw outputs, the wall time of the timed phase, the peak resident memory
and, when traced, the per-layer totals. Output parsing happens after the
timed phase; checking happens in run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cli(lossqfi, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lossqfi.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lossqfi {' '.join(argv)} exited with {code}")
    return out.getvalue()


def run_op(lossqfi, op, maps):
    """Run one operation; returns its raw output (parsed after timing).

    ``maps`` holds the region maps made so far; a coverage operation checks
    the latest one, as the `region` command does.
    """
    kind = op["kind"]
    if kind == "superposition":
        return _cli(lossqfi, ["optimize", "--family", "superposition", "--kmax", "3",
                              "--nbar", repr(op["nbar"]), "--phi", repr(op["phi"]),
                              "--format", "json"])
    if kind == "gaussian":
        return _cli(lossqfi, ["optimize", "--family", "gaussian", "--nbar", repr(op["nbar"]),
                              "--phi", repr(op["phi"]), "--format", "json"])
    if kind == "sweep":
        lo, hi, count = op["phi_range"]
        return _cli(lossqfi, ["sweep-phi", "--families", ",".join(op["families"]),
                              "--phi", f"{lo!r}:{hi!r}:{count}", "--format", "json"])
    if kind == "region_map":
        maps.append(lossqfi.degauss.region_map())
        return maps[-1]
    if kind == "coverage":
        return lossqfi.degauss.coverage_check(op["phis"], op["nbars"], maps[-1])
    raise ValueError(f"unknown operation kind {kind!r}")


def parse_output(kind, raw):
    """Plain-data form of an operation's output."""
    if kind == "region_map":
        return {"points": {f: raw.points[f].tolist() for f in ("eta", "r", "nbar", "beta")},
                "skipped": int(raw.skipped), "eta_grid": raw.eta_grid.tolist(),
                "r_grid": raw.r_grid.tolist()}
    if kind == "coverage":
        return {"points": [{"phi": p.phi, "nbar": p.nbar, "beta_opt": p.beta_opt,
                            "qfi_opt": p.qfi_opt, "covered": p.covered,
                            "exception": p.exception} for p in raw.points],
                "passed": bool(raw.passed)}
    return json.loads(raw)


def main() -> int:
    request = json.load(sys.stdin)
    import lossqfi
    import lossqfi.cli

    src = Path.cwd() / "src"
    if Path(lossqfi.__file__).resolve().parent != (src / "lossqfi").resolve():
        sys.stderr.write(f"lossqfi imported from {lossqfi.__file__}, not from {src}\n")
        return 2
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # one trivial command first, so lazy first-call work is not timed
    _cli(lossqfi, ["qfi", "fock:n=1", "--phi", "0.5"])
    if tracer is not None:
        tracer.reset()
    raws, maps, op_s = [], [], []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for op in request["ops"]:
        op_start = time.perf_counter()
        try:
            raws.append((True, run_op(lossqfi, op, maps)))
        except Exception:  # a failing operation is counted, not fatal
            raws.append((False, traceback.format_exc(limit=3)))
        op_s.append(time.perf_counter() - op_start)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results = []
    for op, (ok, raw) in zip(request["ops"], raws):
        if ok:
            results.append({"ok": True, "output": parse_output(op["kind"], raw)})
        else:
            results.append({"ok": False, "error": raw})
    payload = {
        "wall_s": wall,
        "op_s": op_s,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
        "results": results,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
