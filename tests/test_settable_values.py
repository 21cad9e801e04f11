"""The number of settable values stays at or below its recorded count, so
a knob can only come back together with an edit to that count."""

import argparse
import ast
from pathlib import Path

from enlargekit import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "enlargekit"
SETTABLE_VALUES = 123


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def count_settable_values() -> int:
    """Parameters with a default (functions, methods and lambdas), dataclass
    fields with a default (a ``ClassVar`` is no field), and the options of
    every CLI subcommand besides ``--help``."""
    n = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         and "ClassVar" not in ast.unparse(st.annotation) for st in node.body)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for parser in sub.choices.values():
        n += sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction) for a in parser._actions)
    return n


def test_settable_values_stay_within_their_count():
    assert count_settable_values() <= SETTABLE_VALUES
