"""``tools/src_lines.py``, the line counter of ``src/randonet``."""

import importlib.util
import sys
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


def test_the_module_counts_sum_to_the_package_counts(capsys, monkeypatch):
    root = Path(randonet.__file__).parent
    modules = src_lines.count_modules(root)
    assert sorted(modules) == sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
    package = src_lines.count_package(root)
    assert {kind: sum(m[kind] for m in modules.values()) for kind in src_lines.KINDS} == package
    # The printout: the package's five lines, then one line per module.
    monkeypatch.setattr(sys, "argv", ["src_lines.py", str(root)])
    src_lines.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [f"{kind:9} {package[kind]}" for kind in src_lines.KINDS] + [
        f"{'total':9} {sum(package.values())}"]
    assert [line.split() for line in lines[5:]] == [
        [name] + [f for kind in src_lines.KINDS for f in (kind, str(counts[kind]))]
        for name, counts in modules.items()]


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
