"""``tools/src_lines.py``, the line counter of ``src/randonet``."""

import importlib.util
import textwrap
from pathlib import Path

import randonet

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_the_counts_sum_to_the_physical_lines():
    root = Path(randonet.__file__).parent
    physical = sum(len(path.read_text().splitlines()) for path in root.rglob("*.py"))
    counts = src_lines.count_package(root)
    assert set(counts) == {"code", "docstring", "comment", "blank"}
    assert sum(counts.values()) == physical
    assert min(counts.values()) > 0


def test_a_planted_snippet_splits_by_kind():
    source = textwrap.dedent('''\
        """Module docstring,

        over three lines."""
        # a comment alone
        x = 1  # code and a comment

        def f():
            """One-line docstring."""
            text = """a string
            that is not a docstring"""
            return text
        ''')
    assert src_lines.count(source) == {"code": 5, "docstring": 3, "comment": 1, "blank": 2}
