"""tools/code_lines.py, the code-line count of ``src/antsel``, on a small
synthetic package whose count is known line by line."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

#: Each module's source and its code lines.  alpha's 9: the import with
#: its trailing comment, ``class Thing:``, the three lines of the string
#: assigned to ``text`` (no docstring), the two ``def`` lines and the two
#: ``return`` lines.
MODULES = {
    "alpha.py": ('''
        """Module docstring
        over two lines."""

        import os  # a code line with a trailing comment counts

        # a comment-only line
            # an indented comment-only line


        class Thing:
            """Class docstring."""

            text = """a multi-line string
        that is not a docstring
        """

            def method(self):
                """Method docstring,
                over two lines.
                """
                return os.sep


        def function():
            \'\'\'Function docstring.\'\'\'
            return 1
        ''', 9),
    "beta.py": ('''
        async def wait():
            """Async function docstring."""
            return 2
        ''', 2),
    "gamma.py": ('''
        """A module of a docstring alone."""
        ''', 0),
}


def _write_package(root: Path) -> None:
    for name, (source, _) in MODULES.items():
        (root / name).write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    (root / "notes.txt").write_text("not python\n", encoding="utf-8")


def test_rows_and_total(tmp_path):
    _write_package(tmp_path)
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    expected = [f"{count:6d}  {name}" for name, (_, count) in sorted(MODULES.items())]
    expected.append(f"{sum(count for _, count in MODULES.values()):6d}  total")
    assert out.stdout.splitlines() == expected
