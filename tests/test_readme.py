"""The README's Python example runs and prints what its comments state, and
every name its library tour lists imports from the module the tour gives."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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


def test_library_tour_names_import_from_their_modules():
    rows = re.findall(r"^\| ((?:`pinnet\.\w+`(?: / )?)+) \| (.*) \|$", README, re.M)
    assert len(rows) == 5
    for modules, contents in rows:
        modules = [importlib.import_module(m) for m in re.findall(r"`(pinnet\.\w+)`", modules)]
        names = [n for n in re.findall(r"`([^`]+)`", contents) if n.isidentifier()]
        assert names
        for name in names:
            assert any(hasattr(m, name) for m in modules), (name, [m.__name__ for m in modules])
