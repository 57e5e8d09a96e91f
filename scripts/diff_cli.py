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
every command agrees and 1 otherwise. scripts/unreached.py runs the same
commands(), in process.
"""

from __future__ import annotations

import difflib
import importlib.util
import os
import random
import shlex
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
PERFBENCH_SEED = 1

# the complement of a perfect matching on 40 vertices, in graph6: 2^20
# maximum cliques, all of one transmission sum, which the clique search
# finishes in 183 nodes, and independence number 2
COCKTAIL_PARTY_40 = ("g]~v~z~~v~~}~~~~^~~~}~~~~~v~~~~~z~~~~~~v~~~~~~}~~~~~~~~^~~~~~~~}~~~~~"
                     "~~~~v~~~~~~~~~z~~~~~~~~~~v~~~~~~~~~~}~~~~~~~~~~~~^~~~~~~~~~~~}")

# encode_graph6(family("cycle", 63)): the smallest order in the long form
CYCLE_63 = ("~??~hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@????C????"
            "G????G????C????@?????G?????_????@?????@??????_?????G?????@??????C??????G????"
            "??G??????C??????@???????G???????_??????@???????@????????_???????G???????@???"
            "?????C????????G????????G????????C????????@?????????G?????????_????????@?????"
            "????@??????????o?????????G")

# {n4}, {n6}: the packaged n = 4 and n = 6 bipartite corpora; {late}: a corpus file whose last
# graph is disconnected; {missing}: a path that does not exist; {colonpath}:
# a path that does not exist, in a missing directory, whose name holds ":"; {cocktail}:
# a corpus file holding COCKTAIL_PARTY_40; {colon}: a corpus file whose name
# holds ":", so it also reads as a (bad) family spec; {malformed}: a corpus
# file whose second line has nonzero padding bits; {long}: a corpus file
# holding CYCLE_63, a long-form graph6 line; {mixed}, {apart} and
# {connected}: the three corpus files of mixed_orders(); {n6x4}: the n = 6
# corpus four times over (68 graphs); {wide}: {n6x4} and then the path on
# 150 vertices, so one block mixes orders far apart; {empty}: a corpus file holding only a
# comment; {nonascii}: a corpus file whose second line holds byte 0xE9;
# {dir}: the temporary directory itself; {nonbip}: the n = 4 corpus and
# then K4; {incomplete}: the n = 4 corpus without its K_{2,2}; {c40}: a
# corpus file holding the 40-cycle; {dense}: a corpus file holding K_1001,
# 500,500 edges. Each command is split with shlex, so a quoted argument may
# hold whitespace.
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
    # extreme alphas: tiny entries that sym_eigen zeroes in the stack itself,
    # and alphas near 1, where the expanded forms of four bound formulas cancel
    "bounds path:30 --alpha 1e-300",
    "analyze path:62 --alpha-grid 0,1e-300,0.9999999999999999,1",
    "bounds cycle:40 --alpha 0.99999999",
    "bounds cycle:100 --alpha 0.99999999",
    "bounds kbip:7,7 --alpha 0.9999999",
    "bounds cycle:300 --alpha 0.99999999",
    "bounds complete:300 --alpha 0.9999999999",
    "bounds kbip:150,150 --alpha 0.9999999999",
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
    # too few edges on average for a connected draw: refused before any draw
    "sweep --seed-random 2000,1,0.0005",
    "sweep --seed-random 500,1,0.001",
    # dense graphs with many maximum cliques of unequal transmission sums
    "sweep --seed-random 36,8,0.7 --alphas 0,0.5,1",
    "conjecture --n 4 --alpha 0",
    "conjecture --n 5 --alpha 0.5",
    "conjecture --n 6 --alpha 0.5",
    "conjecture --n 6 --alpha 0",
    "conjecture --n 9 --alpha 0",
    "conjecture --n 4 --alpha 0 --corpus=",
    # two blocks of one order; a corpus whose first bad graph is of the wrong order
    "conjecture --n 6 --alpha 0.5 --corpus {n6x4}",
    "conjecture --n 6 --alpha 0 --corpus {mixed}",
    "-h",
    "analyze -h",
    "bounds -h",
    "sweep -h",
    "conjecture -h",
    "analyze 'kbip: 2,3'",
    "analyze 'Bg\t' --format tsv",
    "bounds 'path:4\t' --alpha 0.5 --format tsv",
    # one malformed graph6 input per parse error
    "analyze Bgg",
    "analyze Bh",
    "analyze B",
    "analyze '~'",
    "analyze '~~'",
    "analyze '~???'",
    "analyze '?'",
    "analyze 'B!'",
    "analyze 'Bé'",
    "analyze '>>graph6<<'",
    "bounds {malformed}",
    "sweep --corpus {malformed}",
    "analyze {long} --alpha 0",
    "bounds {long} --alpha 0.5",
    # graphs of orders 1..70 in mixed order, disconnected ones among them
    "sweep --corpus {mixed}",
    "bounds {mixed} --alpha 0.5",
    "analyze {mixed} --alpha 0.5",
    "sweep --corpus {apart}",
    "bounds {apart}",
    "analyze {apart}",
    # the connected graphs of {mixed}: two blocks, each of mixed orders
    "bounds {connected}",
    "analyze {connected}",
    # multi-graph TSV: rows of many graphs, and of two blocks of mixed orders
    "bounds {n6} --format tsv",
    "bounds {connected} --alpha 0.5 --format tsv",
    "analyze {connected} --format tsv",
    # a block whose orders lie far apart: 68 graphs of order 6 and one of order 150
    "bounds {wide} --alpha 0.5",
    "bounds {wide} --alpha 0.5 --format tsv",
    "analyze {wide} --alpha-grid 0,1",
    # a corpus with no graph: no context reaches evaluate() or solve_spectra()
    "bounds {empty}",
    "bounds {empty} --format tsv",
    "analyze {empty}",
    "analyze {empty} --format tsv",
    "sweep --corpus {empty}",
    # refused input, each an exit 2: family specs, unreadable corpora, and
    # conjecture corpora that are not the exhaustive set of one order
    "analyze foo:3",
    "analyze kbip:3",
    "analyze cycle:2",
    "analyze path:2001",
    "analyze complete:1001",
    "analyze {nonascii}",
    "bounds {nonascii}",
    "sweep --corpus {nonascii}",
    "conjecture --n 4 --alpha 0 --corpus {nonascii}",
    "analyze {dir}",
    "conjecture --n 4 --alpha 0 --corpus {empty}",
    "conjecture --n 4 --alpha 0 --corpus {missing}",
    "conjecture --n 4 --alpha 0 --corpus {malformed}",
    "conjecture --n 1 --alpha 0 --corpus {n4}",
    "conjecture --n 4 --alpha 0 --corpus {nonbip}",
    "conjecture --n 4 --alpha 0.5 --corpus {incomplete}",
    # a missing path as a command input: graph6 never holds "." or "/", and
    # no family spec holds "/"; a "." after a ":" is a bad family spec
    "analyze {missing}",
    "bounds {missing}",
    "analyze {colonpath}",
    "analyze path:2.5",
    # a sweep near alpha = 1
    "sweep --corpus {c40} --alphas 0.99999999",
    # input errors of the alpha list and --seed-random
    "analyze Bg --alpha-grid 0,x",
    "sweep --seed-random a,1,0.5",
    "sweep --seed-random 2001,1,0.5",
    # over the edge cap: a corpus line, and a --seed-random of as many edges expected
    "analyze {dense}",
    "sweep --seed-random 1001,1,1.0",
]


def graph6(n: int, edges) -> str:
    """The graph6 line of a graph on 0..n-1: the short form up to n = 62,
    the long form above."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    body = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in head + body)


def mixed_orders() -> tuple[str, str, str]:
    """Three seeded corpus texts. The first holds a connected graph of each
    order 1..70 and a disconnected graph in each order band of
    graphs.distance_profiles ((n - 1).bit_length() = 1..7; order 1 cannot be
    disconnected), shuffled, so each 64-graph sweep block mixes orders. The
    second holds the disconnected graphs alone: a block with no connected
    graph. The third holds the connected graphs alone, in the first's
    order."""
    rng = random.Random(19)

    def tree(lo: int, hi: int) -> list[tuple[int, int]]:
        return [(rng.randrange(lo, v), v) for v in range(lo + 1, hi)]

    lines = []
    for n in range(1, 71):
        p = rng.choice((0.02, 0.1, 0.4))
        lines.append(graph6(n, tree(0, n) + [(u, v) for v in range(n) for u in range(v)
                                             if rng.random() < p]))
    apart = []
    for band in range(1, 8):
        n = rng.randint(2 ** (band - 1) + 1, min(2 ** band, 70))
        k = rng.randint(1, n - 1)
        apart.append(graph6(n, tree(0, k) + tree(k, n)))
    lines += apart
    rng.shuffle(lines)
    connected = [line for line in lines if line not in apart]
    return tuple("\n".join(text) + "\n" for text in (lines, apart, connected))


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


def commands(tmp: str, src: Path) -> list[tuple[str, list[str]]]:
    """Every command as (label, argv): COMMANDS, then the perfbench jobs.

    Writes the file inputs under the directory tmp and reads the packaged
    corpora of the dspread tree src. A label shows tmp as "{tmp}".
    """
    files = {"missing": Path(tmp) / "missing.g6", "dir": Path(tmp),
             "colonpath": Path(tmp) / "none" / "x:1.g6",
             "nonascii": Path(tmp) / "non_ascii.g6"}
    files["nonascii"].write_bytes(b"Bg\n\xe9\n")
    mixed, apart, connected = mixed_orders()
    data = src / "dspread" / "data"
    n4, n6 = ((data / f"bipartite_connected_n{n}.g6").read_text(encoding="ascii") for n in (4, 6))
    for key, name, text in (("late", "late_disconnected.g6", "Bg\nBw\nC~\nA?\n"),
                            ("cocktail", "cocktail_party_40.g6", COCKTAIL_PARTY_40 + "\n"),
                            ("colon", "graphs:v2.g6", "Bg\nBw\nC~\n"),
                            ("malformed", "malformed.g6", "Bg\nBh\n"),
                            ("long", "cycle_63.g6", CYCLE_63 + "\n"),
                            ("mixed", "mixed_orders.g6", mixed),
                            ("apart", "all_disconnected.g6", apart),
                            ("connected", "mixed_connected.g6", connected),
                            ("n6x4", "bipartite_n6_x4.g6", n6 * 4),
                            ("wide", "n6_x4_and_path_150.g6",
                             n6 * 4 + graph6(150, [(v - 1, v) for v in range(1, 150)]) + "\n"),
                            ("empty", "comment_only.g6", "# no graph\n"),
                            ("nonbip", "bipartite_n4_and_k4.g6", n4 + "C~\n"),
                            ("incomplete", "bipartite_n4_no_k22.g6", "Ck\nCs\n"),
                            ("c40", "cycle_40.g6",
                             graph6(40, [(v, (v + 1) % 40) for v in range(40)]) + "\n"),
                            ("dense", "complete_1001.g6",
                             graph6(1001, combinations(range(1001), 2)) + "\n")):
        files[key] = Path(tmp) / name
        files[key].write_text(text, encoding="ascii")
    files.update(n4=data / "bipartite_connected_n4.g6", n6=data / "bipartite_connected_n6.g6")
    out = [(command, shlex.split(command.format(**files))) for command in COMMANDS]
    return out + [(" ".join(argv).replace(tmp, "{tmp}"), argv)
                  for argv in perfbench_jobs(Path(tmp) / "perfbench")]


def main(parent: str, change: str) -> int:
    trees = [Path(parent).resolve(), Path(change).resolve()]
    for tree in trees:
        if not (tree / "dspread" / "cli.py").is_file():
            print(f"error: {tree} holds no dspread package", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        todo = commands(tmp, trees[0])
        for command, argv in todo:
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
    print(f"{len(todo) - differing} of {len(todo)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
