"""``tools/code_lines.py``, the size gauge of ``src/hlsp``."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,

    over three lines."""

    # a comment
    import math  # a trailing comment


    class Shape:
        """Class docstring."""

        sides = 0


    def area(r):
        """Function docstring,
        over two lines.
        """
        # a comment in a body
        note = """a string that is
        not a docstring"""
        return (math.pi
                * r * r)
    '''
)


def test_counts_code_lines_only():
    # counted: import, class, sides, def, the two lines of note's string
    # and the two of the return
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
