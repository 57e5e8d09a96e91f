#!/usr/bin/env python3
"""Run a fixed list of dspread commands against two source trees and report
every exit code, stdout line and stderr line that differs.

    python3 scripts/diff_cli.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts
(for example a ``git archive`` of the parent commit and this tree). Each
command runs as ``python3 -m dspread.cli ...`` with PYTHONPATH set to one
tree. File inputs are written once to a temporary directory, and the
packaged n = 4 and n = 6 corpora are read from PARENT_SRC, so both trees
see the same bytes. After the fixed list come the jobs of every perfbench workload at
seed 1, on inputs that perfbench/gen.py writes to the same temporary
directory (imported without writing bytecode next to it). Exits 0 when
every command agrees and 1 otherwise.
"""

from __future__ import annotations

import difflib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
PERFBENCH_SEED = 1

# the complement of a perfect matching on 40 vertices, in graph6: 2^20
# maximum cliques, so the clique search runs out of its node budget, and
# independence number 2
COCKTAIL_PARTY_40 = ("g]~v~z~~v~~}~~~~^~~~}~~~~~v~~~~~z~~~~~~v~~~~~~}~~~~~~~~^~~~~~~~}~~~~~"
                     "~~~~v~~~~~~~~~z~~~~~~~~~~v~~~~~~~~~~}~~~~~~~~~~~~^~~~~~~~~~~~}")

# {n4}, {n6}: the packaged n = 4 and n = 6 bipartite corpora; {late}: a corpus file whose last
# graph is disconnected; {missing}: a path that does not exist; {cocktail}:
# a corpus file holding COCKTAIL_PARTY_40; {colon}: a corpus file whose name
# holds ":", so it also reads as a (bad) family spec
COMMANDS = [
    "analyze Bg",
    "analyze kbip:2,3",
    "analyze kbip:2,3 --alpha-grid 0,0.25,1",
    "analyze cycle:60",
    "analyze Bg --format tsv",
    "analyze A?",
    "analyze Bg --alpha 1.5",
    "analyze cycle:63 --alpha 0",
    "analyze path:62 --alpha 0.5",
    "analyze complete:62 --alpha 0.25",
    "analyze kbip:2,3 --alpha 0.5 --alpha-grid 0,1",
    "analyze complete:300 --alpha 0",
    "analyze star:6 --alpha 0.5",
    "analyze split:3,7 --format tsv",
    "analyze {colon}",
    "bounds path:20",
    "bounds kbip:1,3 --alpha 0.1",
    "bounds complete:4 --alpha 0.5",
    "bounds complete:4 --alpha 0.5 --format tsv",
    "bounds Bw --alpha 0",
    "bounds {n6}",
    "bounds {late}",
    "bounds complete:4 --tol nan",
    "bounds complete:4 --tol -1",
    "bounds complete:4 --tol inf",
    "bounds path:45",
    "bounds path:70 --alpha 0.5",
    "bounds @ --alpha 0.3",
    "bounds A_ --alpha 0.3 --format tsv",
    "bounds Bw --alpha 0.3",
    "bounds path:45 --alpha 0.3 --format tsv",
    "bounds cycle:4 --alpha 0.5",
    "bounds split:2,4 --alpha 0.5 --format tsv",
    "bounds Bg --tol 1e308",
    "analyze Bg --alpha -0",
    "bounds cycle:200 --alpha 0.5",
    "bounds {cocktail} --alpha 0.5",
    "bounds {cocktail}",
    "bounds star:7",
    "bounds kbip:3,5",
    "bounds path:30 --alpha 0.5",
    "bounds {colon} --alpha 0.5",
    "sweep --seed-random 6,3,0.5 --alphas 0.1234567,0.1234568",
    "sweep --seed-random 10,200,0.5 --seed 1",
    "sweep --corpus {n6} --alphas 0,0.5,1",
    "sweep --corpus {missing}",
    "sweep --corpus {late}",
    "sweep --seed-random 5,3,2",
    "sweep --seed-random 0,3,0.5",
    "sweep --seed-random 45,2,0.2",
    "sweep --seed-random 70,2,0.3",
    "sweep --seed-random 62,3,0.1",
    "sweep --corpus {n6} --alphas=-0,0.5",
    "sweep --seed-random 10,300,0.2",
    "sweep --seed-random 5,1,0.5 --alphas=",
    "sweep --corpus= --seed-random 4,1,0.9",
    "sweep --seed-random= --corpus {n4}",
    "sweep --seed-random 5,0,0.5",
    "conjecture --n 4 --alpha 0",
    "conjecture --n 5 --alpha 0.5",
    "conjecture --n 6 --alpha 0.5",
    "conjecture --n 6 --alpha 0",
    "conjecture --n 9 --alpha 0",
    "conjecture --n 4 --alpha 0 --corpus=",
    "-h",
    "analyze -h",
    "bounds -h",
    "sweep -h",
    "conjecture -h",
]


def run(src: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.pop("SPREAD_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "dspread.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def perfbench_jobs(directory: Path) -> list[list[str]]:
    """The argv of every job of every perfbench workload at PERFBENCH_SEED,
    with its inputs written under directory."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [job["argv"] for workload in gen.WORKLOADS
            for job in gen.make_jobs(workload, PERFBENCH_SEED, directory / workload)["jobs"]]


def main(parent: str, change: str) -> int:
    trees = [Path(parent).resolve(), Path(change).resolve()]
    for tree in trees:
        if not (tree / "dspread" / "cli.py").is_file():
            print(f"error: {tree} holds no dspread package", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        late = Path(tmp) / "late_disconnected.g6"
        late.write_text("Bg\nBw\nC~\nA?\n", encoding="ascii")
        cocktail = Path(tmp) / "cocktail_party_40.g6"
        cocktail.write_text(COCKTAIL_PARTY_40 + "\n", encoding="ascii")
        colon = Path(tmp) / "graphs:v2.g6"
        colon.write_text("Bg\nBw\nC~\n", encoding="ascii")
        data = trees[0] / "dspread" / "data"
        files = {"n4": data / "bipartite_connected_n4.g6",
                 "n6": data / "bipartite_connected_n6.g6",
                 "late": late, "missing": Path(tmp) / "missing.g6", "cocktail": cocktail,
                 "colon": colon}
        commands = [(command, command.format(**files).split()) for command in COMMANDS]
        commands += [(" ".join(argv).replace(tmp, "{tmp}"), argv)
                     for argv in perfbench_jobs(Path(tmp) / "perfbench")]
        for command, argv in commands:
            (code_a, *streams_a), (code_b, *streams_b) = (run(tree, argv) for tree in trees)
            if code_a == code_b and streams_a == streams_b:
                print(f"same  {command}")
                continue
            differing += 1
            print(f"DIFF  {command}")
            if code_a != code_b:
                print(f"  exit code {code_a} -> {code_b}")
            for stream, a, b in zip(("stdout", "stderr"), streams_a, streams_b):
                diff = difflib.unified_diff(a.splitlines(), b.splitlines(), f"parent {stream}",
                                            f"change {stream}", n=0, lineterm="")
                for line in diff:
                    print(f"  {line}")
    print(f"{len(commands) - differing} of {len(commands)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
