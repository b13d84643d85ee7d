"""No floating point in the library: every source file under src/ is
walked with ast, and a float literal, a call of float, random.random (or
any .random() of a generator), math.sqrt or math.log, or an import of
those names, fails the test with its file and line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BANNED_MODULE_CALLS = {("math", "sqrt"), ("math", "log"), ("random", "random")}


def float_uses(tree):
    """(line, what) for each use of floating point in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                yield node.lineno, "call of float"
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                if func.attr == "random" or (owner, func.attr) in BANNED_MODULE_CALLS:
                    yield node.lineno, f"call of {owner or '...'}.{func.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module, alias.name) in BANNED_MODULE_CALLS:
                    yield node.lineno, f"import of {node.module}.{alias.name}"


def test_the_guard_sees_each_kind_of_float_use():
    text = ("x = 0.5\ny = float(2)\nimport random\nrandom.random()\nrng.random()\n"
            "import math\nmath.sqrt(2)\nmath.log(3)\nfrom math import sqrt\n")
    assert sorted(line for line, _ in float_uses(ast.parse(text))) == [1, 2, 4, 5, 7, 8, 9]


def test_src_uses_no_floating_point():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in files
             for line, what in float_uses(ast.parse(path.read_text(), str(path)))]
    assert found == []
