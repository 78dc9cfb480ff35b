import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "selfonn_kit").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))


def implicit_text_io(tree: ast.AST) -> list[int]:
    """Lines of text reads and writes that leave the codec to the locale.

    Flags `open(...)` (builtin: mode second, `.open`: mode first) unless its
    mode is a literal holding "b", and `.read_text(...)` / `.write_text(...)`,
    whenever the call has no `encoding=` keyword.
    """
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(
                k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("read_text", "write_text"):
            lines.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                lines.append(node.lineno)
    return lines


def test_rule_flags_implicit_text_io():
    tree = ast.parse("open(p)\nopen(p, 'rb')\nopen(p, mode='w')\n"
                     "p.open()\np.open('wb')\np.read_text()\n"
                     "p.write_text(s, encoding='utf-8')\nopen(p, encoding='utf-8')\n")
    assert sorted(implicit_text_io(tree)) == [1, 3, 4, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_text_io_names_its_encoding(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert implicit_text_io(tree) == [], f"{path.name}: pass encoding="
