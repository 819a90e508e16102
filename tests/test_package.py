"""The package root: README's Library snippet runs and the root exports
exactly the names README documents."""

import contextlib
import io
import re
from pathlib import Path

import shorlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_root_exports_only_the_documented_names():
    assert shorlab.__all__ == ["__version__", "ShorConfig", "shor_factor"]
    assert all(hasattr(shorlab, name) for name in shorlab.__all__)


def test_readme_library_snippet_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == "13\n6\n"
