"""Benchmark of lossqfi's three headline computations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's operations run in one child
process (worker.py) with BLAS and OpenMP pinned to one thread; this process
generates the inputs from the seed, checks every output against oracle.py,
and prints one JSON line last: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A line before it reports the run's
state: operations attempted and failed, the machine, and a host-speed
reference timed on a fixed numpy kernel just before and just after the
workload.

Each run does a fixed list of operations whose length depends only on
``--seconds`` (through the nominal operation costs below), never on how
fast the host is, so every run of a workload does the same amount of work.
"""

from __future__ import annotations

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# each run's state, result line, inputs and trace totals, for diagnosis
OUT_DIR = BENCH_DIR / "out"

# nominal single-thread seconds per operation, used only to size the fixed
# operation list from --seconds
NOMINAL_OP_S = {"low_energy_optima": 11.0, "gaussian_optima": 7.0, "region_coverage": 25.0}
SETUP_SAMPLES = 9
SETUP_CODE = ("import sys\nfrom lossqfi.cli import main\n"
              "sys.exit(main(['qfi', 'fock:n=1', '--phi', '0.5']))\n")
WORKER_TIMEOUT_S = 150
PHI_LO, PHI_HI = 0.1, 1.47
JITTER = 0.05
SWEEP_POINTS = 40
# the `region` command's defaults: the (eta, r) lattice size and the coverage grid
REGION_LATTICE = [220, 259]
REGION_PHIS = [math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2 - 1e-3]
REGION_NBARS = np.linspace(0.05, 0.95, 19).tolist()


def _design(rng, n, lo, hi, reverse=False):
    """n points of [lo, hi], one near the centre of each of n equal strata.

    The seed moves each point by at most JITTER of a stratum width, so runs
    with different seeds run different inputs but nearly the same work: the
    cost of an operation grows with the energy and the loss, and a wider
    draw would make a run's length depend on its seed.
    """
    width = (hi - lo) / n
    vals = lo + width * (np.arange(n) + 0.5 + rng.uniform(-JITTER, JITTER, size=n))
    return [float(v) for v in (vals[::-1] if reverse else vals)]


def make_ops(workload: str, seed: int, seconds: int) -> list[dict]:
    """The fixed list of operations of one run; the same seed gives the same list."""
    rng = np.random.default_rng([seed, sorted(NOMINAL_OP_S).index(workload)])
    n = max(1, round(seconds / NOMINAL_OP_S[workload]))
    if workload == "low_energy_optima":
        nbars = _design(rng, n, 0.05, 1.0)
        phis = _design(rng, n, PHI_LO, PHI_HI, reverse=True)
        return [{"kind": "superposition", "nbar": b, "phi": p} for b, p in zip(nbars, phis)]
    if workload == "gaussian_optima":
        nbars = _design(rng, n, 0.0, 1.5)
        phis = _design(rng, n, PHI_LO, PHI_HI, reverse=True)
        ops = [{"kind": "gaussian", "nbar": b, "phi": p} for b, p in zip(nbars, phis)]
        u = (0.5 + rng.uniform(-JITTER, JITTER, size=7)).tolist()
        families = [f"coherent:alpha={0.5 + 0.7 * u[0]!r}",
                    f"gaussian:eta={0.6 + 0.4 * u[1]!r},r={0.7 + 0.3 * u[2]!r},"
                    f"theta={2 * math.pi * u[3]!r}",
                    f"subtracted:eta={0.8 + 0.4 * u[4]!r},r={0.3 + 0.3 * u[5]!r}"]
        lo = 0.02 + 0.08 * u[6]
        ops.append({"kind": "sweep", "families": families,
                    "phi_range": [lo, math.pi / 2 - lo, SWEEP_POINTS]})
        return ops
    if workload == "region_coverage":
        return [{"kind": "region_map", "lattice": REGION_LATTICE},
                {"kind": "coverage", "phis": REGION_PHIS, "nbars": REGION_NBARS}] * n
    raise ValueError(f"unknown workload {workload!r}")


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(samples: int) -> float:
    """Median wall time of fresh interpreters that import lossqfi and run one
    trivial command; a first, untimed interpreter compiles the bytecode."""
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=30, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(ops, trace: bool) -> dict:
    request = json.dumps({"ops": ops, "trace": trace})
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], input=request,
                          capture_output=True, text=True, cwd=ROOT, env=_child_env(),
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_reference() -> dict:
    """Median seconds of a fixed numpy kernel (eigh of one 64x64 Hermitian
    matrix, 100 times) that does not call lossqfi; for diagnosis only."""
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = a + a.conj().T
    reps = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(100):
            np.linalg.eigh(h)
        reps.append(time.perf_counter() - start)
    return {"eigh64x100_s": statistics.median(reps)}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": PINNED_ENV,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def layer_metrics(trace: dict, n_ops: int) -> dict:
    """Per-layer metrics from the worker's trace totals, per operation."""
    calls, self_s, dim_sum, nested = (trace["calls"], trace["self_s"], trace["dim_sum"],
                                      trace["nested"])

    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, seconds in self_s.items():
        out[f"{name}.self_s"] = (per_op(seconds), "s")
    for name in ("fock.displaced_squeezed_vacuum", "estimation.qfi_of_state"):
        out[f"{name}.calls"] = (per_op(calls[name]), "count")
        out[f"{name}.dim_mean"] = (ratio(dim_sum[name], calls[name]), "levels")
    out["probes.build_probe.calls"] = (per_op(calls["probes.build_probe"]), "count")
    for opt in ("optimize_superposition", "optimize_qutrit", "optimize_gaussian"):
        evals = nested.get(f"optimize.{opt}>estimation.qfi_of_state", 0)
        out[f"optimize.{opt}.evals"] = (per_op(evals), "count")
    out["optimize.optimize_gaussian.builds_per_eval"] = (ratio(
        nested.get("optimize.optimize_gaussian>fock.displaced_squeezed_vacuum", 0),
        nested.get("optimize.optimize_gaussian>estimation.qfi_of_state", 0)), "ratio")
    # the lattice counts are per region_map call: they describe one map
    maps = calls["degauss.region_map"]
    out["degauss.region_map.points"] = (ratio(trace["region_points"], maps), "count")
    out["degauss.region_map.skipped"] = (ratio(trace["region_skipped"], maps), "count")
    out["degauss.region_map.fallbacks"] = (ratio(
        nested.get("degauss.region_map>fock.displaced_squeezed_vacuum", 0), maps), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lossqfi" / "__init__.py").is_file():
        sys.stderr.write(f"no lossqfi sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    ops = make_ops(args.workload, args.seed, args.seconds)
    try:
        setup_s = None if args.trace else measure_setup(SETUP_SAMPLES)
        reference_before = host_reference()
        result = run_worker(ops, bool(args.trace))
        reference_after = host_reference()
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"workload {args.workload} did not complete: {exc}\n")
        return 1

    completed, failed, unexpected, problems = checks.tally(ops, result["results"])
    state = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "attempted": len(ops), "failed": failed, "unexpected": unexpected,
             "problems": problems[:10],
             "timed_wall_s": result["wall_s"], "timed_cpu_s": result["cpu_s"],
             "op_s": result["op_s"], "machine": machine(),
             "host_reference": {"before": reference_before, "after": reference_after}}
    print("state " + json.dumps(state))

    if args.trace:
        metrics = layer_metrics(result["trace"], len(ops))
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (completed / result["wall_s"], "1/s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    line = {"correct": unexpected == 0,
            "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"state": state, "result": line, "ops": ops,
                                  "trace": result["trace"]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
