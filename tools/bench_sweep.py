"""Run perfbench's operation lists over many seeds and report what broke.

    python tools/bench_sweep.py [--root CHECKOUT] [--against OTHER_CHECKOUT]
                                [--workloads NAME ...] [--seeds 1:100]
                                [--seconds 30] [--jobs 1]

For every workload and seed this builds the run's operation list with
``perfbench/run.py``'s ``make_ops``, runs it in one worker with
``run_worker`` (untraced) and judges the results with ``checks.tally``, as
one ``perfbench/run.py`` run does, but without timing anything or writing
run records. ``--root`` names the checkout whose ``perfbench/`` and ``src/``
are used (default: the one holding this file), so two checkouts can be
swept with the same tool. Nothing under ``perfbench/`` is changed.

For each workload it prints the seeds whose worker crashed, the seeds where
the oracle raised inside ``tally`` (``run.py`` calls ``tally`` outside its
``try``, so such a run exits 1 whatever the program printed), and the
failed and unexpected operations with their seeds and first problem. It
exits 1 if any worker crashed, any oracle raised or any operation was
unexpected.

With ``--against`` it sweeps the same seeds on a second checkout too, with
that checkout's own ``perfbench/`` and ``src/``, prints both reports, and
then every seed whose outcome differs between the two: a worker crash, an
oracle raise, or a different count of failed or unexpected operations. It
then exits 1 on any difference, and 0 otherwise, whatever the two reports
hold.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def _load(root: Path):
    """``root``'s perfbench run and checks modules. A second checkout loads
    fresh copies, since its run.py imports checks, and checks oracle, by
    plain name."""
    for name in ("run", "checks", "oracle"):
        sys.modules.pop(name, None)
    sys.path.insert(0, str(root / "perfbench"))
    try:
        return importlib.import_module("run"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(root / "perfbench"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep_one(run, checks, workload: str, seed: int, seconds: int) -> dict:
    """One seed of one workload: {"crash"} or {"oracle"} or the tally counts."""
    ops = run.make_ops(workload, seed, seconds)
    try:
        result = run.run_worker(ops, False)
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
        return {"crash": str(exc).strip().splitlines()[-1]}
    try:
        _, failed, unexpected, problems = checks.tally(ops, result["results"])
    except Exception as exc:  # the oracle itself failed
        return {"oracle": f"{type(exc).__name__}: {exc}"}
    return {"attempted": len(ops), "failed": failed, "unexpected": unexpected,
            "problem": str(problems[0])[:160] if problems else ""}


def _kind(o: dict) -> str:
    """A seed's outcome as it is compared between two checkouts."""
    if "crash" in o:
        return "worker crash"
    if "oracle" in o:
        return "oracle raised"
    return f"{o['failed']} failed, {o['unexpected']} unexpected of {o['attempted']}"


def differences(workload: str, ours: dict, theirs: dict, other: Path) -> int:
    """Print every seed whose outcome differs between the two checkouts, with
    the first line of each side's problem; returns how many differ."""
    differ = [s for s in sorted(ours) if _kind(ours[s]) != _kind(theirs[s])]
    print(f"{workload}: {len(differ)} of {len(ours)} seeds differ from {other}: {differ}")
    for seed in differ:
        print(f"    seed {seed}:")
        for side, o in (("here", ours[seed]), ("there", theirs[seed])):
            why = o.get("crash") or o.get("oracle") or o.get("problem")
            print(f"      {side}: {_kind(o)}" + (f": {why[:160]}" if why else ""))
    return len(differ)


def report(workload: str, outcomes: dict) -> bool:
    """Print one workload's summary; True when nothing went wrong."""
    crashes = {s: o["crash"] for s, o in outcomes.items() if "crash" in o}
    oracle = {s: o["oracle"] for s, o in outcomes.items() if "oracle" in o}
    judged = {s: o for s, o in outcomes.items() if "failed" in o}
    failed = {s: o for s, o in judged.items() if o["failed"]}
    unexpected = {s: o for s, o in judged.items() if o["unexpected"]}
    ops = sum(o["attempted"] for o in judged.values())
    print(f"{workload}: {len(outcomes)} seeds, {len(judged)} judged, {ops} operations")
    print(f"  worker crashes: {len(crashes)} {sorted(crashes)}")
    for seed, msg in sorted(crashes.items()):
        print(f"    seed {seed}: {msg}")
    print(f"  oracle raised in tally: {len(oracle)} {sorted(oracle)}")
    for seed, msg in sorted(oracle.items()):
        print(f"    seed {seed}: {msg[:160]}")
    print(f"  failed operations: {sum(o['failed'] for o in failed.values())} "
          f"in seeds {sorted(failed)}")
    print(f"  unexpected operations: {sum(o['unexpected'] for o in unexpected.values())} "
          f"in seeds {sorted(unexpected)}")
    for seed, o in sorted(failed.items()):
        print(f"    seed {seed}: {o['failed']} failed, {o['unexpected']} unexpected: {o['problem']}")
    return not (crashes or oracle or unexpected)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", type=Path,
                        help="a second checkout: sweep it too and report every seed that differs")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1:100", help="inclusive range LO:HI")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--jobs", type=int, default=1, help="workers run at once")
    args = parser.parse_args(argv)
    sides = [(args.root.resolve(), _load(args.root.resolve()))]
    if args.against:
        sides.append((args.against.resolve(), _load(args.against.resolve())))
    workloads = args.workloads or sorted(sides[0][1][0].NOMINAL_OP_S)
    seeds = _seeds(args.seeds)
    clean, differ = True, 0
    for workload in workloads:
        swept = []
        for root, (run, checks) in sides:
            with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
                found = pool.map(lambda s: sweep_one(run, checks, workload, s, args.seconds), seeds)
                swept.append(dict(zip(seeds, found)))
            if args.against:
                print(f"[{root}]")
            clean &= report(workload, swept[-1])
        if args.against:
            differ += differences(workload, swept[0], swept[1], sides[1][0])
    if args.against:
        return 1 if differ else 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
