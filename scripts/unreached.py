#!/usr/bin/env python3
"""List the functions, or the statements, of a dspread tree that no command
of scripts/diff_cli.py runs.

    python3 scripts/unreached.py [--statements] SRC

SRC is the ``src`` directory of a checkout. A trace hook goes in before
``dspread.cli`` is imported, so import-time code counts too. Then every
diff_cli.py command, the fixed list and the perfbench jobs at seed 1, runs
in this process through ``cli.main``, with stdout and stderr captured and
SPREAD_TOL unset.

The output is ``module.qualname`` of every function and method defined in
SRC/dspread whose code was never called, one a line, in file and source
order. Nested functions and lambdas are not listed.

With --statements it is ``module.qualname: statement`` of every statement
of SRC/dspread that never ran, in file and source order. qualname is that
of the function or class holding the statement (``module:`` alone at module
level), and the statement is its ast.unparse text on one line, a compound
statement's header alone (an elif reads as "if"). Docstrings and nonlocal
and global declarations are left out. A statement ran if a line event fell
within its lines. Line tracing makes this mode take seconds.

Writes no bytecode; exits 2 if SRC holds no dspread package.
"""

from __future__ import annotations

import ast
import contextlib
import copy
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
# the fields of a statement that hold statements, and those of an ast.unparse
# header that are left out
_BODIES = ("body", "orelse", "finalbody")
_NOT_HEADER = (*_BODIES, "handlers", "cases", "decorator_list")


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


def statements(body: list, qualname: str = "", in_function: bool = False):
    """(qualname, node) of every statement of body and of the statements
    nested in it, in source order, without docstrings and the nonlocal and
    global declarations, which run no code."""
    for node in body:
        if isinstance(node, (ast.Nonlocal, ast.Global)) or isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        yield qualname, node
        inner, nested_in_function = qualname, in_function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qualname}.<locals>" if in_function else qualname
            inner = f"{inner}.{node.name}".lstrip(".")
            nested_in_function = not isinstance(node, ast.ClassDef)
        blocks = [getattr(node, field, []) for field in _BODIES]
        blocks += [clause.body for field in ("handlers", "cases")
                   for clause in getattr(node, field, [])]
        for block in blocks:
            yield from statements(block, inner, nested_in_function)


def header(node: ast.stmt) -> str:
    """The statement's source text on one line; a compound statement's
    header alone, without its decorators."""
    node = copy.copy(node)
    for field in _NOT_HEADER:
        if hasattr(node, field):
            setattr(node, field, [])
    return ast.unparse(node)


def unrun_statements(path: Path, ran: set) -> list[str]:
    """The ``module.qualname: statement`` line of every statement of the
    source file path that no line of ran (line numbers) falls within."""
    lines = []
    for qualname, node in statements(ast.parse(path.read_text()).body):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if ran.isdisjoint(range(first, node.end_lineno + 1)):
            lines.append(f"{'.'.join((path.stem, qualname)).rstrip('.')}: {header(node)}")
    return lines


def main(src: str, by_statement: bool = False) -> int:
    tree = Path(src).resolve()
    package = tree / "dspread"
    if not (package / "cli.py").is_file():
        print(f"error: {tree} holds no dspread package", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    os.environ.pop("SPREAD_TOL", None)
    sys.path.insert(0, str(tree))
    sources = {str(path): path for path in sorted(package.glob("*.py"))}
    called = set()
    ran = {filename: set() for filename in sources}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace(frame, event, arg):  # event is "call": a frame starts or resumes
        called.add(frame.f_code)
        if by_statement and frame.f_code.co_filename in sources:
            return trace_lines
        return None

    with tempfile.TemporaryDirectory() as tmp:
        todo = commands(tmp, tree)
        sys.settrace(trace)
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
            sys.settrace(None)
    for filename, path in sources.items():
        if by_statement:
            for line in unrun_statements(path, ran[filename]):
                print(line)
            continue
        module = importlib.import_module(f"dspread.{path.stem}".removesuffix(".__init__"))
        for fn in defined_functions(module, filename):
            if fn.__code__ not in called:
                print(f"{path.stem}.{fn.__qualname__}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    by_statement = args[:1] == ["--statements"]
    if len(args) != 1 + by_statement:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(args[-1], by_statement))
