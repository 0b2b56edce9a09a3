"""Every ``python`` code block of README.md runs as written.

A name removed from the public API but still used in a README example
fails here. Blocks run in order in one shared namespace, so a later block
may use what an earlier one defined.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
