"""Count the lines of ``src/randonet`` by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py [package-dir]

It prints the package's four counts and their total, then one line per
module with its four counts.

A line of whitespace alone is blank, inside a docstring too. Of the others,
a line of a module, class or function docstring (found by ``ast``) counts
as docstring; a line that holds any ``tokenize`` token but a comment counts
as code, a line holding code and a comment included, and so does every line
of a multi-line string that is not a docstring; the rest hold a comment
alone. The four counts sum to the physical line count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The lines of one Python source by kind."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line, text in enumerate(source.splitlines(), 1):
        kind = ("blank" if not text.strip() else "docstring" if line in docs
                else "code" if line in code else "comment")
        counts[kind] += 1
    return counts


def count_modules(root: Path) -> dict[str, dict[str, int]]:
    """The counts of every ``*.py`` file under ``root``, by its path below ``root``."""
    return {path.relative_to(root).as_posix(): count(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def count_package(root: Path) -> dict[str, int]:
    """The summed counts of every ``*.py`` file under ``root``."""
    modules = count_modules(root).values()
    return {kind: sum(counts[kind] for counts in modules) for kind in KINDS}


def main() -> None:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parents[1] / "src" / "randonet")
    counts = count_package(root)
    for kind in KINDS:
        print(f"{kind:9} {counts[kind]}")
    print(f"{'total':9} {sum(counts.values())}")
    for name, module in count_modules(root).items():
        print(f"{name:15} " + " ".join(f"{kind} {module[kind]}" for kind in KINDS))


if __name__ == "__main__":
    main()
