#!/usr/bin/env python3
"""List the functions of a dspread tree that no command of
scripts/diff_cli.py enters.

    python3 scripts/unreached.py SRC

SRC is the ``src`` directory of a checkout. A profile hook goes in before
``dspread.cli`` is imported, so import-time calls count too. Then every
diff_cli.py command, the fixed list and the perfbench jobs at seed 1, runs
in this process through ``cli.main``, with stdout and stderr captured and
SPREAD_TOL unset. The output is ``module.qualname`` of every function and
method defined in SRC/dspread whose code was never called, one a line, in
file and source order. Nested functions and lambdas are not listed. Writes
no bytecode; exits 2 if SRC holds no dspread package.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path

from diff_cli import commands

# where a classmethod, a functools.cache wrapper, a property and a
# cached_property hold their function
_HOLDERS = ("__func__", "__wrapped__", "fget", "func")


def defined_functions(module, filename: str) -> list:
    """The functions and methods that the module's source file defines, in
    source order."""
    found = {}
    for value in vars(module).values():
        for member in vars(value).values() if isinstance(value, type) else (value,):
            for fn in (member, *(getattr(member, attr, None) for attr in _HOLDERS)):
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == filename:
                    found[code] = fn
    return sorted(found.values(), key=lambda fn: fn.__code__.co_firstlineno)


def main(src: str) -> int:
    tree = Path(src).resolve()
    package = tree / "dspread"
    if not (package / "cli.py").is_file():
        print(f"error: {tree} holds no dspread package", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    os.environ.pop("SPREAD_TOL", None)
    sys.path.insert(0, str(tree))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        todo = commands(tmp, tree)
        sys.setprofile(profile)
        try:
            from dspread import cli

            for _, argv in todo:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv)
                    except SystemExit:  # -h
                        pass
        finally:
            sys.setprofile(None)
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"dspread.{path.stem}".removesuffix(".__init__"))
        for fn in defined_functions(module, str(path)):
            if fn.__code__ not in called:
                print(f"{path.stem}.{fn.__qualname__}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
