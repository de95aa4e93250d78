"""A fixed corpus of `lossqfi` commands, and a diff of two of its runs.

    python tools/cli_corpus.py run SRC OUTDIR
    python tools/cli_corpus.py diff OLD_DIR NEW_DIR

``run`` executes every command of CORPUS in a fresh interpreter with
``SRC`` (a tree holding the ``lossqfi`` package, such as a checkout's
``src``) on PYTHONPATH and one BLAS thread. Each command runs in its own
directory ``OUTDIR/<name>``, which receives its stdout, stderr, exit code
and any files it writes. ``diff`` compares two such directories file by
file: it counts the identical files and, for each other file, prints the
number of differing numbers with the largest absolute and relative change,
or says where the text itself differs. It exits 1 if any file differs.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

# (name, arguments), run in this order; directory i holds command i
CORPUS = [
    ("qfi-fock", "qfi fock:n=2 --phi 0.6"),
    ("qfi-qubit", "qfi qubit:nbar=0.5 --phi pi/3"),
    ("qfi-qutrit", "qfi qutrit:nbar=0.7,beta=0.8 --phi 0.9"),
    ("qfi-superposition", "qfi superposition:c=0.5/0.5/0.5/0.5 --phi 0.7"),
    ("qfi-coherent", "qfi coherent:alpha=1 --phi 0.4"),
    ("qfi-coherent-complex", "qfi coherent:alpha=0.6+0.8j --phi 1.1"),
    ("qfi-coherent-cap300", "qfi coherent:alpha=3 --phi 0.5"),
    ("qfi-cat-even", "qfi cat:alpha=1.2,sign=+ --phi 0.5"),
    ("qfi-cat-odd", "qfi cat:alpha=1,sign=- --phi 0.4"),
    ("qfi-cat-large", "qfi cat:alpha=2.5,sign=- --phi 1.2"),
    ("qfi-gaussian", "qfi gaussian:eta=1,r=1,theta=0.7 --phi 0.6"),
    ("qfi-subtracted", "qfi subtracted:eta=1,r=0.4 --phi 0.8"),
    ("qfi-truncsub-json", "qfi truncsub:eta=1,r=0.4,levels=3 --phi 0.8 --format json"),
    ("sweep-phi-fig1", "sweep-phi --families fock:n=2,coherent:alpha=1 --phi 0.05:1.52:30"),
    ("sweep-phi-fixed", "sweep-phi --families gaussian:eta=1,r=0.8,subtracted:eta=1,r=0.4,"
                        "qubit:nbar=0.3 --phi 0.05:1.52:12"),
    ("sweep-phi-opt", "sweep-phi --families qutrit_opt:nbar=0.5,gaussian_opt:nbar=1 "
                      "--phi 0.2:1.4:5"),
    ("sweep-phi-opt2", "sweep-phi --families superposition_k:k=3,nbar=0.6,cat_best:nbar=1.3 "
                       "--phi 0.2:1.4:4"),
    ("sweep-phi-default-json", "sweep-phi --families fock:n=1 --format json"),
    ("sweep-energy-fig2", "sweep-energy --families qubit,qutrit_opt,superposition_k:k=3 "
                          "--nbar 0.05:1:20 --phi pi/4"),
    ("sweep-energy-json", "sweep-energy --families gaussian_opt,cat_best,coherent "
                          "--nbar 0.2:1:5 --phi 0.5 --format json"),
    ("sweep-energy-fock", "sweep-energy --families fock --nbar 1:4:4 --phi 0.9"),
    ("optimize-gaussian", "optimize --family gaussian --nbar 0.5 --phi pi/4"),
    ("optimize-gaussian-large", "optimize --family gaussian --nbar 5 --phi 0.6"),
    ("optimize-qutrit", "optimize --family qutrit --nbar 0.5 --phi 0.6"),
    ("optimize-superposition", "optimize --family superposition --kmax 3 --nbar 0.5 --phi pi/4"),
    ("optimize-superposition-k4", "optimize --family superposition --kmax 4 --nbar 0.1 --phi 1.2"),
    ("optimize-cat", "optimize --family cat --nbar 2 --phi 0.5"),
    ("optimize-cat-json", "optimize --family cat --nbar 0.3 --phi 1.0 --format json"),
    ("simulate", "simulate --n 1 --phi pi/4 --runs 10000 --reps 200 --seed 7"),
    ("region-small", "region --eta 0:1.5:12 --r=-1:1:12 --phi 0.4,1.1 --nbar 0.1:0.9:5 "
                     "--out small"),
    ("region-default", "region --out fig3"),
    ("error-phi", "qfi fock:n=2 --phi 2.0"),
    ("error-family", "qfi nosuch:x=1 --phi 0.5"),
    ("error-key", "qfi fock:n=2,alpha=1 --phi 0.5"),
    ("error-qubit", "qfi qubit:theta=0.3,nbar=0.5 --phi 0.5"),
    ("error-missing-nbar", "sweep-phi --families qutrit_opt --phi 0.2:1:3"),
    ("error-energy-family", "sweep-energy --families gaussian:eta=1 --nbar 0.1:1:3 --phi 0.5"),
    ("error-runs", "simulate --n 1 --phi 0.5 --runs 10 --reps 5"),
    ("error-qutrit-energy", "optimize --family qutrit --nbar 1.5 --phi 0.5"),
    ("sld-fock2", "sld-dump fock:n=2 --phi 0.8"),
    ("sld-fock0", "sld-dump fock:n=0 --phi 0.5"),
    ("sld-qubit", "sld-dump qubit:nbar=0.5 --phi 0.78"),
    ("sld-superposition-complex", "sld-dump superposition:c=0.5/0.5j/-0.5/0.5 --phi 0.8"),
    ("sld-truncsub", "sld-dump truncsub:eta=1,r=0.4,levels=3 --phi 0.6"),
    ("sld-qutrit", "sld-dump qutrit:nbar=0.7,beta=0.8 --phi 0.9"),
    ("sld-cat-odd", "sld-dump cat:alpha=1,sign=- --phi 0.4"),
    ("sld-gaussian-1-1", "sld-dump gaussian:eta=1,r=1 --phi 0.6"),
    ("sld-gaussian-05-03", "sld-dump gaussian:eta=0.5,r=0.3 --phi 0.6"),
    ("sld-coherent", "sld-dump coherent:alpha=0.7 --phi 0.5"),
    ("sld-subtracted", "sld-dump subtracted:eta=1,r=0.4 --phi 0.6"),
    ("error-phi-edge", "qfi fock:n=2 --phi 5e-4"),
    ("optimize-gaussian-past-guard", "optimize --family gaussian --nbar 30 --phi 0.6"),
    # H is flat in the squeeze fraction to ~1e-8 near phi = pi/2
    ("optimize-gaussian-flat", "optimize --family gaussian --nbar 1 --phi 1.5697963"),
    # the grid end x = 1 beats the golden-section polish
    ("optimize-gaussian-grid-end", "optimize --family gaussian --nbar 1.3 --phi 0.26"),
    # one angle of a sweep outside the loss domain
    ("sweep-phi-bad-angle", "sweep-phi --families fock:n=1 --phi 0.0005:0.2:3"),
    # three commands that exit 0 with wrong digits: the core's error at the
    # domain edge (exact 1.999994), the Fock cutoff (exact 4 sin(0.7)^2 =
    # 1.66006571420 at nbar 1), and a real-slice optimum that a complex state
    # beats (4.99568801746)
    ("optimize-gaussian-phi-edge", "optimize --family gaussian --nbar 0.5 --phi 0.001"),
    ("qfi-coherent-cutoff", "qfi coherent:alpha=1 --phi 0.7"),
    ("optimize-superposition-complex-ridge",
     "optimize --family superposition --kmax 3 --nbar 1.4 --phi 0.7357142857142858"),
    # a large complex amplitude, and one past the level guard: above
    # |alpha|^2 of about 1416 the vacuum amplitude underflows, so the
    # message's lower bound on the energy reads 1024
    ("qfi-coherent-large-complex", "qfi coherent:alpha=12+9j --phi 0.3"),
    ("error-coherent-overflow", "qfi coherent:alpha=40 --phi 0.5"),
    # qutrit optima at the ends of the loss domain, where the core errs by up
    # to 1e-6 relative and so ranks the grid differently from the exact form
    ("optimize-qutrit-phi-min", "optimize --family qutrit --nbar 0.666 --phi 0.001"),
    ("optimize-qutrit-phi-max", "optimize --family qutrit --nbar 0.666 --phi 1.5697963267948966"),
    ("sweep-phi-qutrit-ends", "sweep-phi --families qutrit_opt:nbar=0.3 "
                              "--phi 0.001:1.5697963267948966:25"),
    # the output's smallest eigenvalue pair sums to 8.9e-13, below the core's
    # support threshold, which drops it (exact 0.00136468051400)
    ("qfi-qutrit-mask", "qfi qutrit:nbar=0.005,beta=1.4944 --phi 0.2"),
    # an optimum on the beta = 0 edge of the grid, where the last comparison
    # of grid point and polish decides whether beta prints as 0
    ("optimize-qutrit-beta-edge", "optimize --family qutrit --nbar 0.05 --phi pi/16"),
    # k = 3 optima that only the seeded starts reach: from the warm starts
    # alone the search ends at 4.86656484131 and 6.88215941276
    ("optimize-superposition-seeded", "optimize --family superposition --kmax 3 "
                                      "--nbar 1.2673 --phi 0.3989"),
    ("optimize-superposition-seeded-2", "optimize --family superposition --kmax 3 "
                                        "--nbar 1.7455 --phi 0.3271"),
    # two wrong answers of the core's support mask: a near-vacuum qubit at
    # heavy loss (exact 0.000399999519275) and a qutrit optimum below
    # nbar = 1e-6 (exact 3.99999200001e-12)
    ("qfi-qubit-mask", "qfi qubit:nbar=0.0001 --phi 1.5697"),
    ("optimize-qutrit-vacuum", "optimize --family qutrit --nbar 1e-12 --phi 0.001"),
    # the superposition search at the two ends of the loss domain: at the upper end
    # it exits 1, not stationary (a residual of 2.8e-6, where the reduced Hessian is
    # not negative definite); at the lower end it stops 1.9e-7 below a higher optimum
    ("optimize-superposition-phi-max", "optimize --family superposition --kmax 4 --nbar 1.5 "
                                       "--phi 1.5697963267948967"),
    ("optimize-superposition-phi-min", "optimize --family superposition --kmax 3 --nbar 0.001 "
                                       "--phi 0.001"),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(src: Path, outdir: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for i, (name, args) in enumerate(CORPUS):
        where = outdir / f"{i:02d}-{name}"
        where.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "lossqfi.cli", *args.split()],
                              cwd=where, env=env, capture_output=True, text=True)
        (where / "stdout").write_text(proc.stdout)
        (where / "stderr").write_text(proc.stderr)
        (where / "exit").write_text(f"{proc.returncode}\n")
        print(f"{where.name}: exit {proc.returncode}")
    return 0


def _compare(old: str, new: str) -> str:
    """One line on how two texts differ: their numbers, or their words."""
    old_words, new_words = NUMBER.split(old), NUMBER.split(new)
    old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
    if old_words != new_words or len(old_nums) != len(new_nums):
        pairs = zip(old.splitlines() + [""], new.splitlines() + [""])
        line = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        return "text differs" if line is None else f"text differs from line {line + 1}"
    moved, largest_abs, largest_rel = 0, 0.0, 0.0
    for a, b in zip(old_nums, new_nums):
        if a == b:
            continue
        x, y = float(a), float(b)
        moved += 1
        largest_abs = max(largest_abs, abs(x - y))
        if x != y:
            largest_rel = max(largest_rel, abs(x - y) / max(abs(x), abs(y)))
    return (f"{moved} of {len(old_nums)} numbers differ, largest change "
            f"{largest_abs:.3g} absolute, {largest_rel:.3g} relative")


def diff(old_dir: Path, new_dir: Path) -> int:
    names = sorted({p.relative_to(d) for d in (old_dir, new_dir)
                    for p in d.rglob("*") if p.is_file()})
    same = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_dir if old.is_file() else new_dir}")
        elif old.read_bytes() == new.read_bytes():
            same += 1
        else:
            print(f"{name}: {_compare(old.read_text(), new.read_text())}")
    print(f"{same} of {len(names)} files identical")
    return 0 if same == len(names) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("run", "diff"):
        sys.stderr.write(__doc__)
        return 2
    action = run if argv[0] == "run" else diff
    return action(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main())
