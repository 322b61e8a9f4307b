"""The README's "Library example" block runs as written and prints what its
comments say, and each line of its "Command line" block exits 0."""

import math
import re
import shlex
from pathlib import Path

from wedderburn import cli, gl_order

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)


def test_library_example_runs(capsys):
    code = library_example()
    exec(compile(code, str(README), "exec"), {})
    blocks_line, order_line = capsys.readouterr().out.splitlines()
    # the first print's comment is the blocks' repr; the second's names the
    # unit group |F_13^x x GL(6,13) x GL(7,13) x GL(8,13) x GL(3,13^2)|
    assert blocks_line == re.search(r"print\(blocks\)\s+# (.*)", code).group(1)
    want = math.prod([gl_order(1, 13), gl_order(6, 13), gl_order(7, 13), gl_order(8, 13), gl_order(3, 13**2)])
    assert int(order_line) == want


def command_lines() -> list[str]:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return re.match(r"\s*```\n(.*?)\n```\n", section, re.S).group(1).splitlines()


def test_command_line_block_exits_0(capsys):
    lines = command_lines()
    assert len(lines) == 7
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "wedderburn"
        assert cli.main(argv) == 0, line
        assert capsys.readouterr().out, line
