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


def writes_outside(tree: ast.AST, writer: str) -> list[int]:
    """Lines of `write_text(...)` / `write_bytes(...)` calls that are not
    inside the function named `writer`."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == writer
              for node in ast.walk(func)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and getattr(node.func, "attr", getattr(node.func, "id", ""))
            in ("write_text", "write_bytes")]


def test_rule_flags_writes_outside_the_writer():
    tree = ast.parse("def _write_text(p, s):\n    p.write_text(s)\n"
                     "def other(p):\n    p.write_bytes(b'')\n"
                     "write_text(p)\np.read_text()\n")
    assert sorted(writes_outside(tree, "_write_text")) == [4, 5]


# Every text artifact of the driver goes through one writer, so how files
# are written (say, to a temporary name and then renamed) is set in one place.
def test_cli_writes_only_in_its_writer():
    path = ROOT / "src" / "selfonn_kit" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert writes_outside(tree, "_write_text") == [], "write through _write_text"


def raises_in(tree: ast.AST) -> list[int]:
    """Lines of `raise` statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)]


def test_rule_flags_raises():
    tree = ast.parse("class E(ValueError):\n    pass\n"
                     "def f(x):\n    if x:\n        raise E(x)\n    return x\n"
                     "try:\n    f(1)\nexcept E:\n    raise\n")
    assert sorted(raises_in(tree)) == [5, 10]


# Inputs are checked where they enter (configs, file loads, the training
# and evaluation sets, the model's input), so the kernels take their
# arguments as given.
def test_ops_raises_nothing():
    path = ROOT / "src" / "selfonn_kit" / "ops.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert raises_in(tree) == [], "check inputs at the boundary, not in ops"


def uses_of(tree: ast.AST, name: str) -> list[int]:
    """Lines that read or write the attribute `name`, or pass it by keyword."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Call) and any(k.arg == name for k in node.keywords)]


def test_rule_flags_uses_of_the_attribute():
    tree = ast.parse("m.kept_maps.clear()\nm.kept_maps = {}\nx = m.flat\n"
                     "Model(c, f, b, h, o, kept_maps={})\nkept_maps = 1\n")
    assert sorted(uses_of(tree, "kept_maps")) == [1, 2, 4]


# The model alone decides which maps a training pass reuses and when they
# are dropped, so its kept maps are touched in model.py only.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "selfonn_kit"
                                  and p.name != "model.py"], ids=lambda p: p.name)
def test_kept_maps_stay_in_the_model(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert uses_of(tree, "kept_maps") == [], f"{path.name}: leave kept_maps to model.py"
