import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dspread import bounds as bounds_mod
from dspread import cli as cli_mod
from dspread import cliques as cliques_mod
from dspread import corpus as corpus_mod
from dspread.bounds import BOUND_IDS, EvalContext, evaluate, evaluate_all
from dspread.cliques import CLIQUE_BUDGET_SPENT, INDEPENDENCE_BUDGET_SPENT
from dspread.cli import EXIT_BROKEN_PIPE, main
from dspread.eigen import sym_eigen
from dspread.families import FamilySpec, generate, parse_family
from dspread.graphs import Graph, bfs_distances, distance_profile, encode_graph6, is_bipartite
from dspread.jsonfmt import json_text

from json_oracle import json_text as oracle_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_p3(capsys):
    code, out, err = run_cli(capsys, "analyze", "Bg", "--alpha", "0")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    (report,) = doc["reports"]
    assert report["n"] == 3
    assert report["wiener"] == 4
    assert report["spread"] == pytest.approx(4.7320508, abs=1e-6)
    assert report["spectrum"][0] == pytest.approx(1 + math.sqrt(3), abs=1e-9)


def test_analyze_star_alpha0(capsys):
    code, out, _ = run_cli(capsys, "analyze", "kbip:1,3", "--alpha", "0")
    doc = json.loads(out)
    assert doc["reports"][0]["spread"] == pytest.approx(4 + math.sqrt(7), abs=1e-9)
    assert code == 0


def test_analyze_grid_spreads(capsys):
    code, out, _ = run_cli(capsys, "analyze", "complete:5", "--alpha-grid", "0,0.5,1")
    doc = json.loads(out)
    assert [r["spread"] for r in doc["reports"]] == pytest.approx([5.0, 2.5, 0.0])
    assert code == 0


def test_analyze_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "kbip:2,3", "--alpha-grid", "0,0.25,1")
    _, out2, _ = run_cli(capsys, "analyze", "kbip:2,3", "--alpha-grid", "0,0.25,1")
    assert out1 == out2


def test_analyze_tsv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Bg", "--alpha", "0", "--format", "tsv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("input\talpha")
    cells = lines[1].split("\t")
    assert cells[0] == "Bg" and cells[2] == "3"
    assert code == 0


def test_analyze_file_input(capsys, tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text("# corpus\nBg\nBw\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "analyze", str(p), "--alpha", "0.5")
    doc = json.loads(out)
    assert [r["input"] for r in doc["reports"]] == ["Bg", "Bw"]
    assert code == 0


def test_exit_2_on_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "B" + chr(20), "--alpha", "0")
    assert code == 2 and "error" in err


def test_exit_2_on_bad_family(capsys):
    code, _, err = run_cli(capsys, "analyze", "complete:0", "--alpha", "0")
    assert code == 2 and "error" in err


def test_alpha_and_alpha_grid_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "kbip:2,3", "--alpha", "0.5", "--alpha-grid", "0,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err


@pytest.mark.parametrize("argv, corpus, messages", [
    (("analyze", "Bg", "--alpha-grid", "0,x"), None, ["bad alpha list"]),
    (("sweep", "--seed-random", "1,2"), None, ["expects n,count,p"]),
    (("sweep", "--seed-random", "a,b,c"), None, ["bad --seed-random value"]),
    (("analyze", "{corpus}"), "zz\n", ["{corpus}: ", "byte offset 2"]),
    (("conjecture", "--n", "3", "--alpha", "0", "--corpus", "{corpus}"), "Bw\n",
     ["non-(connected bipartite)"]),
    (("conjecture", "--n", "3", "--alpha", "0", "--corpus", "{corpus}"), "# a comment\n",
     ["empty corpus"]),
    (("conjecture", "--n", "1", "--alpha", "0", "--corpus", "{corpus}"), "Bg\n", ["need n >= 2"]),
    (("analyze", "?"), None, ["order 0"]),
    (("analyze", ""), None, ["empty graph6 input"]),
    (("analyze", "\u00e9"), None, ["not ASCII"]),
    # an empty option value is given, not missing
    (("sweep", "--seed-random", "5,1,0.5", "--alphas="), None, ["empty alpha list"]),
    (("conjecture", "--n", "4", "--alpha", "0", "--corpus="), None, ["cannot read corpus"]),
    (("sweep", "--corpus=", "--seed-random", "4,1,0.9"), None, ["cannot read corpus"]),
    (("sweep", "--seed-random=", "--corpus", "{corpus}"), "Ck\nCs\nC]\n",
     ["expects n,count,p"]),
    (("sweep", "--seed-random", "5,0,0.5"), None, ["nothing to sweep"]),
])
def test_input_errors_exit_2(capsys, tmp_path, argv, corpus, messages):
    path = tmp_path / "corpus.g6"
    if corpus is not None:
        path.write_text(corpus, encoding="ascii")
    code, out, err = run_cli(capsys, *(arg.format(corpus=path) for arg in argv))
    assert code == 2 and out == ""
    for message in messages:
        assert message.format(corpus=path) in err


def test_exit_3_on_disconnected(capsys):
    code, _, err = run_cli(capsys, "analyze", "A?", "--alpha", "0")
    assert code == 3 and "connected" in err


def test_exit_3_on_alpha_range(capsys):
    code, _, err = run_cli(capsys, "analyze", "Bg", "--alpha", "1.5")
    assert code == 3 and "alpha" in err


def test_bounds_k4_equality(capsys):
    code, out, _ = run_cli(capsys, "bounds", "complete:4", "--alpha", "0.5")
    assert code == 0
    doc = json.loads(out)
    (report,) = doc["reports"]
    by_id = {b["bound_id"]: b for b in report["bounds"]}
    assert by_id["thm25_lower"]["equality"] is True
    assert report["clique_number"] == 4
    assert report["independence_number"] == 1
    assert by_id["thm43_independence_lower"]["applicable"] is False


def test_bounds_triangle_inapplicable(capsys):
    code, out, _ = run_cli(capsys, "bounds", "Bw", "--alpha", "0")
    doc = json.loads(out)
    by_id = {b["bound_id"]: b for b in doc["reports"][0]["bounds"]}
    assert by_id["thm35_bipartite_lower"]["reason"] == "not bipartite"
    assert by_id["thm38_bipartite_lower"]["applicable"] is False
    assert code == 0


def test_bounds_star_discrepancy_channel(capsys):
    code, out, _ = run_cli(capsys, "bounds", "kbip:1,3", "--alpha", "0.1")
    assert code == 0  # discrepancies are informational, not violations
    doc = json.loads(out)
    disc = doc["reports"][0]["discrepancies"]
    assert any(d["bound_id"] == "thm35_bipartite_lower" for d in disc)


@pytest.mark.parametrize("spec, alpha, kind", [("kbip:1,3", 0.1, "exact-value mismatch"),
                                               ("split:2,4", 0.5, "bound violated")])
def test_bounds_report_renders_the_registry_entries(capsys, spec, alpha, kind):
    code, out, _ = run_cli(capsys, "bounds", spec, "--alpha", str(alpha))
    assert code == 0
    (report,) = json.loads(out)["reports"]
    g = generate(parse_family(spec))
    discrepancies = evaluate([EvalContext(g)], [alpha]).discrepancies(0, 0)
    assert report["bounds"] == json.loads(json_text(evaluate_all(g, alpha)))
    assert report["discrepancies"] == json.loads(json_text(discrepancies))
    assert [d["kind"] for d in report["discrepancies"]] == [kind]


@st.composite
def connected_graphs(draw):
    """Connected graphs of order 1-14: stars, complete, complete bipartite and
    complete split graphs, or a random tree with random extra edges."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(("random", "star", "complete", "kbip", "split")))
    if kind == "complete" or n == 1:
        return generate(FamilySpec("complete", (n,)))
    if kind == "star":
        return generate(FamilySpec("star", (n,)))
    if kind in ("kbip", "split"):
        t = draw(st.integers(1, n - 1))
        return generate(FamilySpec(kind, (t, n - t) if kind == "kbip" else (t, n)))
    tree = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return Graph.from_edges(n, sorted({(min(e), max(e)) for e in tree + extra if e[0] != e[1]}))


@settings(max_examples=60, deadline=None)
@given(graphs=st.lists(connected_graphs(), min_size=1, max_size=4),
       alphas=st.lists(st.sampled_from(corpus_mod.ALPHA_GRID + (0.3,)), min_size=1,
                       max_size=8, unique=True),
       budget=st.sampled_from((None, 20)))
def test_bounds_json_entries_match_the_report_dicts(tmp_path_factory, graphs, alphas, budget):
    """The entries that `bounds` renders from the Evaluation arrays are the
    text of Evaluation.reports through the reference writer."""
    corpus = tmp_path_factory.getbasetemp() / "bounds_entries.g6"
    corpus.write_text("".join(encode_graph6(g) + "\n" for g in graphs), encoding="ascii")
    # one alpha through --alpha, several through the default grid
    argv = ["bounds", str(corpus)] + (["--alpha", str(alphas[0])] if len(alphas) == 1 else [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "ALPHA_GRID", tuple(alphas))
        if budget is not None:
            mp.setattr(cliques_mod, "SEARCH_BUDGET", budget)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        ctxs = [EvalContext(g) for g in graphs]
        ev = evaluate(ctxs, alphas)
    reports = [
        dict(cli_mod._base_report(None, ctx, a),
             clique_number=None if ctx.cliques is None else ctx.cliques[0],
             independence_number=ctx.independence, bounds=ev.reports(g, j),
             discrepancies=ev.discrepancies(g, j))
        for g, ctx in enumerate(ctxs) for j, a in enumerate(alphas)]
    doc = {"schema_version": 1, "command": "bounds", "reports": reports}
    assert code == (4 if ev.violated.any() else 0)
    assert out.getvalue() == oracle_text(doc) + "\n"


def _replace_formula(monkeypatch, bound_id, formula):
    registry = tuple(dataclasses.replace(e, formula=formula) if e.id == bound_id else e
                     for e in bounds_mod.REGISTRY)
    monkeypatch.setattr(bounds_mod, "REGISTRY", registry)


@pytest.mark.parametrize("bound_id, bad", [("thm24_upper", math.nan),
                                           ("thm25_lower", math.inf)])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_non_finite_applicable_bound_exits_3(capsys, monkeypatch, bound_id, bad, fmt):
    _replace_formula(monkeypatch, bound_id, lambda c: (0.0 * c.spread + bad, c.spread))
    code, out, err = run_cli(capsys, "bounds", "Bw", "--alpha", "0.5", "--format", fmt)
    assert (code, out, err) == (3, "", "error: non-finite float in report\n")


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_non_finite_inapplicable_bound_renders_null(capsys, monkeypatch, fmt):
    # halfrange_radius_upper needs alpha >= 1/2, so at 0.3 its NaN is never shown
    argv = ("bounds", "Bw", "--alpha", "0.3", "--format", fmt)
    expected = run_cli(capsys, *argv)
    _replace_formula(monkeypatch, "halfrange_radius_upper",
                     lambda c: (0.0 * c.spread + math.nan, c.spread))
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and expected[2] == ""


@pytest.mark.parametrize("argv", [("bounds", "path:30"), ("analyze", "Bg")])
def test_closed_stdout_exits_quietly(argv):
    """`dspread ... | head`: a reader that has gone away ends the run with
    EXIT_BROKEN_PIPE and nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "dspread.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""  # no traceback, no "Exception ignored"


def test_bounds_huge_tolerance_keeps_stderr_clean(capsys):
    # tol * |bound| overflows to an infinite cushion, inside which every bound holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "bounds", "Bg", "--tol", "1e308")
    assert code == 0 and err == ""
    for report in json.loads(out)["reports"]:
        assert all(b["holds"] for b in report["bounds"] if b["applicable"])


def _undercut_thm24_upper(monkeypatch):
    """Give the proven thm24_upper a bound one below the spread, so it is
    violated wherever it applies."""
    registry = tuple(
        dataclasses.replace(e, formula=lambda c: (c.spread - 1.0, c.spread))
        if e.id == "thm24_upper" else e for e in bounds_mod.REGISTRY)
    monkeypatch.setattr(bounds_mod, "REGISTRY", registry)


def test_bounds_violation_exits_4(capsys, monkeypatch):
    argv = ("bounds", "Bw", "--alpha", "0.5")
    (before,) = json.loads(run_cli(capsys, *argv)[1])["reports"]
    _undercut_thm24_upper(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and err == ""
    (after,) = json.loads(out)["reports"]
    i = BOUND_IDS.index("thm24_upper")
    entry = after["bounds"][i]
    assert entry["applicable"] and entry["holds"] is False and entry["status"] == "proven"
    assert "thm24_upper" not in [d["bound_id"] for d in after["discrepancies"]]
    assert after["discrepancies"] == before["discrepancies"]
    del after["bounds"][i], before["bounds"][i]
    assert after["bounds"] == before["bounds"]  # the other 16 entries


def test_sweep_violation_exits_4(capsys, monkeypatch):
    _undercut_thm24_upper(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--seed-random", "5,3,0.5", "--alphas", "0,0.5")
    assert code == 4
    doc = json.loads(out)
    violations = doc["violations"]
    # 3 graphs times 2 alphas, each pair once, in (graph6, alpha) order
    assert [v["bound_id"] for v in violations] == ["thm24_upper"] * 6
    keys = [(v["graph6"], v["alpha"]) for v in violations]
    assert keys == sorted(set(keys)) and len(keys) == 6
    assert all(abs(v["gap"] - 1.0) <= 1e-9 for v in violations)
    tally = doc["bounds"]["thm24_upper"]
    assert tally["applicable"] == 6 and tally["holds"] == 0


def test_bounds_tsv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "complete:4", "--alpha", "0.5", "--format", "tsv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("input\talpha\tbound_id")
    assert len(lines) == 1 + 17
    assert code == 0


@pytest.mark.parametrize("argv, golden", [
    (("analyze", "Bg", "--alpha-grid", "0,1", "--format", "tsv"),
     {0: "input\talpha\tn\twiener\tdiameter\tspread\tspectrum",
      1: "Bg\t0\t3\t4\t2\t4.73205080757\t2.73205080757,-0.732050807569,-2",
      2: "Bg\t1\t3\t4\t2\t1\t3,3,2"}),
    (("bounds", "A_", "--alpha", "0.3", "--format", "tsv"),
     {0: "input\talpha\tbound_id\tdirection\tstatus\tapplicable"
         "\tbound\tactual\tgap\tholds\tequality\treason",
      17: "A_\t0.3\tthm43_independence_lower\tlower\tproven\tfalse\t\t\t\t\t\t"
          "requires n >= 3"}),
])
def test_tsv_golden_lines(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    lines = out.split("\n")
    # exactly one newline ends the table, so the split ends in one empty string
    assert (code, err, lines[-1]) == (0, "", "") and len(lines) == max(golden) + 2
    assert {i: lines[i] for i in golden} == golden


def test_json_stdout_is_the_reference_text_of_the_library_document(capsys):
    """stdout is the envelope and the body that the library builds, through
    the reference writer, and one newline."""
    alphas = [0.0, 0.25, 1.0]
    ctx = EvalContext(generate(parse_family("kbip:2,3")))
    graphs = [corpus_mod.random_connected_graph(6, 0.5, seed=1 + i) for i in range(3)]
    n5 = corpus_mod.load_corpus(resources.files("dspread") / "data" / "bipartite_connected_n5.g6")
    for argv, body in [
        (("analyze", "kbip:2,3", "--alpha-grid", "0,0.25,1"),
         {"reports": [cli_mod._base_report("kbip:2,3", ctx, a) for a in alphas]}),
        (("sweep", "--seed-random", "6,3,0.5", "--alphas", "0,0.25,1"),
         {"alphas": alphas, **corpus_mod.sweep(graphs, alphas)}),
        (("conjecture", "--n", "5", "--alpha", "0.25"), corpus_mod.check_problem_39(n5, 5, 0.25)),
    ]:
        code, out, err = run_cli(capsys, *argv)
        doc = {"schema_version": 1, "command": argv[0], **body}
        assert (code, err) == (0, "") and out == oracle_text(doc) + "\n", argv


def test_clique_cap_degrades_to_inapplicable_entries(capsys, monkeypatch):
    # when both searches run out of budget only the two entries that need
    # them drop out; the other 15 are still evaluated
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", 20)
    code, out, err = run_cli(capsys, "bounds", "path:45", "--alpha", "0.5")
    assert code == 0 and err == ""
    (report,) = json.loads(out)["reports"]
    assert report["clique_number"] is None and report["independence_number"] is None
    skipped = {b["bound_id"]: b["reason"] for b in report["bounds"] if not b["applicable"]}
    assert skipped == {"thm41_clique_lower": CLIQUE_BUDGET_SPENT,
                       "thm43_independence_lower": INDEPENDENCE_BUDGET_SPENT}
    code, out, _ = run_cli(capsys, "sweep", "--seed-random", "45,2,0.2")
    doc = json.loads(out)
    assert code == 0 and doc["graphs_seen"] == 2
    assert doc["bounds"]["thm25_lower"]["applicable"] == 2 * 7
    assert not {"thm41_clique_lower", "thm43_independence_lower"} & doc["bounds"].keys()


@pytest.mark.parametrize("graph, budget, field, bound_id, reason", [
    # kbip:6,6 takes 48 clique nodes and 12 independence nodes
    ("kbip:6,6", 30, "clique_number", "thm41_clique_lower", CLIQUE_BUDGET_SPENT),
    # path:12 takes 23 clique nodes and 64 independence nodes
    ("path:12", 40, "independence_number", "thm43_independence_lower",
     INDEPENDENCE_BUDGET_SPENT),
])
def test_one_search_out_of_budget(capsys, monkeypatch, graph, budget, field, bound_id, reason):
    _, out, _ = run_cli(capsys, "bounds", graph, "--alpha", "0.5")
    (full,) = json.loads(out)["reports"]
    assert all(b["applicable"] for b in full["bounds"]
               if b["bound_id"] != "halfrange_radius_upper")
    monkeypatch.setattr(cliques_mod, "SEARCH_BUDGET", budget)
    code, out, err = run_cli(capsys, "bounds", graph, "--alpha", "0.5")
    assert code == 0 and err == ""
    (report,) = json.loads(out)["reports"]
    assert report[field] is None
    other = ({"clique_number", "independence_number"} - {field}).pop()
    assert report[other] == full[other] is not None
    entry = next(b for b in report["bounds"] if b["bound_id"] == bound_id)
    assert not entry["applicable"] and entry["reason"] == reason
    assert ([b for b in report["bounds"] if b["bound_id"] != bound_id]
            == [b for b in full["bounds"] if b["bound_id"] != bound_id])


@pytest.mark.parametrize("spec", ["path:70", "cycle:200"])
def test_large_sparse_graphs_are_searched(capsys, spec):
    # no order limit: a long path or cycle finishes both searches in a few
    # hundred nodes
    code, out, _ = run_cli(capsys, "bounds", spec, "--alpha", "0.5")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    n = report["n"]
    assert (report["clique_number"], report["independence_number"]) == (2, n // 2)
    by_id = {b["bound_id"]: b for b in report["bounds"]}
    for bid in ("thm41_clique_lower", "thm43_independence_lower"):
        assert by_id[bid]["applicable"] and by_id[bid]["holds"], bid


def test_sweep_worst_key_keeps_twelve_digits_of_alpha(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--seed-random", "6,3,0.5",
                           "--alphas", "0.1234567,0.1234568")
    assert code == 0
    keys = {t["worst_key"].rpartition("@")[2] for t in json.loads(out)["bounds"].values()}
    assert keys <= {"0.1234567", "0.1234568"} and keys


def test_long_form_graph6_reports(capsys):
    # n > 62 needs the long-form graph6 header; the report's graph6 field
    # is itself a valid input that gives the same report
    code, out, err = run_cli(capsys, "analyze", "cycle:63", "--alpha", "0")
    assert code == 0 and err == ""
    (report,) = json.loads(out)["reports"]
    assert report["graph6"].startswith("~??~") and report["diameter"] == 31
    code, again, _ = run_cli(capsys, "analyze", report["graph6"], "--alpha", "0")
    (other,) = json.loads(again)["reports"]
    assert code == 0 and other == dict(report, input=report["graph6"])
    code, out, _ = run_cli(capsys, "bounds", "path:70", "--alpha", "0.5")
    assert code == 0 and json.loads(out)["reports"][0]["n"] == 70
    code, out, _ = run_cli(capsys, "sweep", "--seed-random", "70,2,0.3")
    assert code == 0 and json.loads(out)["graphs_seen"] == 2


def test_sweep_shipped_corpus(capsys):
    ref = resources.files("dspread").joinpath("data/bipartite_connected_n4.g6")
    code, out, _ = run_cli(capsys, "sweep", "--corpus", str(ref), "--alphas", "0,0.5,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs_seen"] == 3
    assert doc["violations"] == []


def test_sweep_missing_corpus(capsys):
    code, _, err = run_cli(capsys, "sweep", "--corpus", "missing.g6")
    assert code == 2 and "missing.g6" in err


def test_sweep_seeded_random_deterministic(capsys):
    args = ("sweep", "--seed-random", "6,5,0.5", "--seed", "9", "--alphas", "0,0.5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["graphs_seen"] == 5


@pytest.mark.parametrize("spec", ["0,3,0.5", "-2,3,0.5", "5,-1,0.5", "5,3,2", "5,3,0",
                                  "5,3,-0.5", "5,3,nan"])
def test_sweep_bad_seed_random_is_an_input_error(capsys, tmp_path, spec):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bg\n", encoding="ascii")
    for extra in ((), ("--corpus", str(corpus))):
        code, out, err = run_cli(capsys, "sweep", f"--seed-random={spec}", *extra)
        assert code == 2 and "--seed-random" in err and out == "", extra


@pytest.mark.parametrize("argv", [("analyze", "Bg", "--alpha={}"),
                                  ("bounds", "kbip:1,3", "--alpha={}"),
                                  ("sweep", "--seed-random", "5,3,0.5", "--alphas={},0.5"),
                                  ("conjecture", "--n", "4", "--alpha={}")])
def test_negative_zero_alpha_reads_as_zero(capsys, argv):
    outs = []
    for zero in ("-0", "0"):
        code, out, err = run_cli(capsys, *(arg.format(zero) for arg in argv))
        assert code == 0 and err == "", zero
        outs.append(out)
    assert outs[0] == outs[1]


def test_sweep_requires_source(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2 and "nothing to sweep" in err


def test_conjecture_n4(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "4", "--alpha", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True
    assert doc["graphs_seen"] == 3
    assert doc["candidate_min_spread"] == pytest.approx(6.0)


def test_conjecture_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "conjecture", "--n", "5", "--alpha", "0.5")
    _, out2, _ = run_cli(capsys, "conjecture", "--n", "5", "--alpha", "0.5")
    assert out1 == out2


def test_conjecture_without_packaged_corpus(capsys):
    code, _, err = run_cli(capsys, "conjecture", "--n", "9", "--alpha", "0")
    assert code == 2 and "corpus" in err


def test_spread_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("SPREAD_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "bounds", "complete:4", "--alpha", "0.5")
    assert code == 0
    # NaN, infinite or negative tolerances would flip every verdict
    for bad in ("banana", "nan", "inf", "-1"):
        monkeypatch.setenv("SPREAD_TOL", bad)
        code, _, err = run_cli(capsys, "bounds", "complete:4", "--alpha", "0.5")
        assert code == 2 and "SPREAD_TOL" in err, bad
    monkeypatch.delenv("SPREAD_TOL")
    for cmd in (("bounds", "complete:4"), ("sweep", "--seed-random", "4,2,0.5")):
        for bad in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, *cmd, "--tol", bad)
            assert code == 2 and "--tol" in err and out == "", (cmd, bad)


def _count_calls(monkeypatch, fn) -> list:
    """Wrap fn in every dspread module that binds it; return the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dspread" or name.startswith("dspread."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_one_profile_and_one_eigensolve_per_pair(capsys, monkeypatch, tmp_path):
    # one distance profile per graph; the (graph, alpha) pairs of each vertex
    # order share one batched eigensolve on their stacked matrices
    solves = _count_calls(monkeypatch, sym_eigen)
    profiles = _count_calls(monkeypatch, distance_profile)
    corpus = tmp_path / "three.g6"
    corpus.write_text("Bg\nBw\nC~\n", encoding="ascii")
    code, _, _ = run_cli(capsys, "bounds", str(corpus))
    assert code == 0
    assert [args[0].shape for args in solves] == [(2 * 7, 3, 3), (7, 4, 4)]
    assert len(profiles) == 3
    profiles.clear()
    solves.clear()
    code, _, _ = run_cli(capsys, "analyze", str(corpus))
    assert code == 0 and len(profiles) == 3 and len(solves) == 2
    # a disconnected graph late in the file fails before any eigensolve
    corpus.write_text("Bg\nBw\nC~\nA?\n", encoding="ascii")
    for cmd in ("bounds", "analyze"):
        solves.clear()
        code, out, err = run_cli(capsys, cmd, str(corpus))
        assert code == 3 and "connected" in err and out == ""
        assert solves == []


def test_one_bfs_pass_per_graph(capsys, monkeypatch, tmp_path):
    # each graph gets one distance profile, which runs one BFS (from vertex
    # 0) and then, for these small graphs, matrix products; only the
    # registry reads bipartiteness, once per graph
    profiles = _count_calls(monkeypatch, distance_profile)
    bfs = _count_calls(monkeypatch, bfs_distances)
    bipartite = _count_calls(monkeypatch, is_bipartite)
    corpus = tmp_path / "three.g6"
    corpus.write_text("Bg\nBw\nC~\n", encoding="ascii")
    for argv, graphs, checks in ((("analyze", "Bg"), 1, 0), (("analyze", str(corpus)), 3, 0),
                                 (("bounds", "Bg"), 1, 1), (("bounds", str(corpus)), 3, 3),
                                 (("sweep", "--corpus", str(corpus)), 3, 3)):
        profiles.clear()
        bfs.clear()
        bipartite.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert len(profiles) == graphs and [args[1] for args in bfs] == [0] * graphs, argv
        assert len(bipartite) == checks, argv
    # a disconnected graph costs one BFS and still counts as skipped
    corpus.write_text("A?\n", encoding="ascii")
    bfs.clear()
    code, out, _ = run_cli(capsys, "sweep", "--corpus", str(corpus))
    assert code == 0 and len(bfs) == 1
    assert json.loads(out)["skipped_disconnected"] == 1


def test_existing_file_wins_over_family_spec(capsys, monkeypatch, tmp_path):
    # graph6 never holds ":", so a name with one is a file or a family spec
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graphs:v2.g6").write_text("Bg\nBw\n", encoding="ascii")
    (tmp_path / "kbip:2,3").write_text("Bg\n", encoding="ascii")
    for cmd in ("analyze", "bounds"):
        for name, graphs in (("graphs:v2.g6", ["Bg", "Bw"]), ("kbip:2,3", ["Bg"]),
                             (str(tmp_path / "graphs:v2.g6"), ["Bg", "Bw"]),
                             ("kbip:1,2", ["kbip:1,2"])):
            code, out, err = run_cli(capsys, cmd, name, "--alpha", "0.5")
            assert code == 0 and err == "", (cmd, name)
            assert [r["input"] for r in json.loads(out)["reports"]] == graphs, (cmd, name)


def test_family_input_builds_its_graph_once(capsys, monkeypatch):
    builds = _count_calls(monkeypatch, generate)
    code, _, _ = run_cli(capsys, "analyze", "complete:5")
    assert code == 0 and len(builds) == 1


def test_non_ascii_corpus_is_an_input_error(capsys, tmp_path):
    corpus = tmp_path / "latin.g6"
    corpus.write_bytes("Bg\n\u00e9\n".encode("utf-8"))
    for argv in (
        ("analyze", str(corpus)),
        ("bounds", str(corpus)),
        ("sweep", "--corpus", str(corpus)),
        ("conjecture", "--n", "3", "--alpha", "0", "--corpus", str(corpus)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "not ASCII" in err, argv


# entries that need only n >= 2 and no bipartition, clique or alpha range
_ORDER_TWO_IDS = {
    "thm24_lower", "thm24_upper", "ineq24_radius_lower", "ineq24_radius_upper",
    "ineq25_smallest_lower", "ineq25_smallest_upper", "thm25_lower", "thm26_lower",
    "cor27_lower", "thm28_lower", "mirsky_upper", "thm210_upper",
}


@pytest.mark.parametrize("graph6", ["@", "A_"])  # n = 1 and n = 2
def test_tiny_graphs_emit_no_numpy_warnings(capsys, tmp_path, graph6):
    corpus = tmp_path / "tiny.g6"
    corpus.write_text(graph6 + "\n", encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("analyze", graph6), ("bounds", graph6), ("sweep", "--corpus", str(corpus))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == "" and out, argv
    reports = json.loads(run_cli(capsys, "bounds", graph6)[1])["reports"]
    n = reports[0]["n"]
    for b in reports[0]["bounds"]:
        assert b["applicable"] == (n >= 2 and b["bound_id"] in _ORDER_TWO_IDS), b


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dspread.cli", "analyze", "Bw", "--alpha", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reports"][0]["spread"] == 0.0


def test_console_script_target_runs(capsys, monkeypatch):
    """The [project.scripts] target is a callable whose return value the
    generated wrapper passes to sys.exit."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["dspread"]
    module, _, name = target.partition(":")
    script = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["dspread", "analyze", "Bw", "--alpha", "1"])
    assert script() == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["spread"] == 0.0


def test_tsv_on_an_ascii_stdout():
    """Every reason is ASCII, so a TSV table prints to a stdout that only
    encodes ASCII."""
    proc = subprocess.run(
        [sys.executable, "-m", "dspread.cli", "bounds", "path:45", "--alpha", "0.3",
         "--format", "tsv"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONIOENCODING="ascii"),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    rows = {row[2]: row for row in (line.split("\t") for line in proc.stdout.splitlines())}
    assert rows["thm38_bipartite_lower"][-1] == "alpha outside {0} and [1/2,1]"
