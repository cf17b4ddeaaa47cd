"""tools/count_lines.py, the counter behind the tracked source line count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment-only line
import math  # a trailing comment: the line counts


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring,

    over three lines.
    """
    note = """a multi-line string
that is not a docstring"""
        # an indented comment
    return math.pi * r * r


async def wait():
    """Async function docstring."""
    return None
'''

# import, class, size, def area, the two lines of note, return, async def, return
SAMPLE_CODE_LINES = 9


def test_counts_code_and_leaves_out_layout_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert count_lines.count(path) == SAMPLE_CODE_LINES


def test_a_module_of_only_a_docstring_counts_nothing(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text('"""Only a docstring."""\n\n# and a comment\n', encoding="utf-8")
    assert count_lines.count(path) == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert count_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(SAMPLE_CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(SAMPLE_CODE_LINES + 1), "total"],
    ]
