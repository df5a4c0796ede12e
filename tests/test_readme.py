"""The `$ vkp ...` examples in README.md print what the README shows.

Each example is a line `$ vkp ARGS` inside a fenced block, followed by its
output up to a blank line, the next example or the end of the block.  In
the shown output a line `...` stands for any run of lines.
"""

import re
import shlex
from pathlib import Path

from vkp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, expected output lines) for every example, in order."""
    examples = []
    in_block = False
    current = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ vkp "):
            current = []
            examples.append((shlex.split(line[len("$ vkp "):]), current))
        elif current is not None and line:
            current.append(line)
        else:
            current = None
    return examples


def _pattern(lines):
    return "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n" for line in lines
    )


def test_readme_has_examples():
    commands = [argv[0] for argv, _ in readme_examples()]
    assert commands == ["check", "normalize", "extract", "prove", "prove"]


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for argv, expected in readme_examples():
        main(argv)
        out = capsys.readouterr().out
        assert re.fullmatch(_pattern(expected), out), (argv, out)
