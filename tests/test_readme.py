"""The README's Python example runs and prints what its comments state, the
package's top level imports exactly the example's names, and every name its
library tour lists imports from the module the tour gives."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_quick_example_prints_the_commented_values():
    code = re.search(r"Quick example:\n\n```python\n(.*?)```", README, re.S).group(1)
    assert "# 120.0" in code and "< -1" in code and "# 8/7" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    cost, lambda_max, bound = (float(line) for line in out.getvalue().split())
    assert cost == 120.0
    assert lambda_max < -1.0
    assert bound == 8 / 7


def test_top_level_imports_exactly_the_example_names():
    code = re.search(r"Quick example:\n\n```python\n(.*?)```", README, re.S).group(1)
    example = re.search(r"from pinnet import \((.*?)\)", code, re.S).group(1)
    init = ast.parse((ROOT / "src" / "pinnet" / "__init__.py").read_text())
    imported = [a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(imported) == sorted(re.findall(r"\w+", example))


def test_library_tour_names_import_from_their_modules():
    rows = re.findall(r"^\| ((?:`pinnet\.\w+`(?: / )?)+) \| (.*) \|$", README, re.M)
    assert len(rows) == 5
    for modules, contents in rows:
        modules = [importlib.import_module(m) for m in re.findall(r"`(pinnet\.\w+)`", modules)]
        names = [n for n in re.findall(r"`([^`]+)`", contents) if n.isidentifier()]
        assert names
        for name in names:
            assert any(hasattr(m, name) for m in modules), (name, [m.__name__ for m in modules])
