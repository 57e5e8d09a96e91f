"""What the commands run: the library functions no command enters, and the
layers the perfbench tracer wraps by name."""

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
