"""What the commands run: the library functions and statements no command
runs, and the layers the perfbench tracer wraps by name."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import dspread.cli  # noqa: F401  (the tracer resolves layers in loaded modules)

ROOT = Path(__file__).resolve().parents[1]

# The functions of src/dspread that no scripts/diff_cli.py command enters,
# in file and source order, each with the reason it stays in the library.
KEPT = {
    "bounds.evaluate_all": "a layer of perfbench/spans.py, so `run.py --trace 1` needs it",
    "graphs.distance_profile": "evaluate_all's profile and a layer of perfbench/spans.py; "
                               "tests call it on one graph",
}


def test_unreached_functions_are_the_kept_ones():
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "unreached.py"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(KEPT)


def test_perfbench_tracer_layers_resolve(monkeypatch):
    # loaded the way scripts/diff_cli.py loads perfbench/gen.py: no bytecode
    # is written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.LAYERS:
        owner, attr, fn = spans.Tracer._resolve(name)
        assert getattr(owner, attr) is fn and callable(fn), name


def test_unrun_statements_by_line(tmp_path, monkeypatch):
    # the --statements lines of a module of which only the lines in ran
    # produced line events: the statements holding none of them, in source
    # order, each under the qualname of its function or class
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    unreached = importlib.import_module("unreached")
    source = tmp_path / "mod.py"
    source.write_text('''"""Doc."""
import os


@cache
def f(x):
    """Doc."""
    def g():
        nonlocal x
        return x
    if x:
        return g()
    elif x is None:
        raise ValueError(
            "none")
    return 0


class C:
    y = 1
''')
    ran = {1, 2, 5, 11, 19}
    assert unreached.unrun_statements(source, ran) == [
        "mod.f: def g():",
        "mod.f.<locals>.g: return x",
        "mod.f: return g()",
        "mod.f: if x is None:",
        "mod.f: raise ValueError('none')",
        "mod.f: return 0",
        "mod.C: y = 1",
    ]
    # a line event on a continuation line counts for its statement
    assert "mod.f: raise ValueError('none')" not in unreached.unrun_statements(source, ran | {15})
