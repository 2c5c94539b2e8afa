"""The README's CLI examples, run through ``cli.run``: each ``$ bsscale ...``
line must print the lines shown under it, where a ``...`` line stands for
any run of lines."""

import io
import os
import re
import shlex

import pytest

from bsscale.cli import run

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for every ``$ bsscale`` line."""
    examples: list[tuple[str, list[str]]] = []
    shown = None  # the output lines of the example being read
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                shown = None
            elif line.startswith("$ bsscale "):
                shown = []
                examples.append((line[len("$ bsscale ") :], shown))
            elif shown is not None:
                shown.append(line)
    return examples


EXAMPLES = _examples()


def _pattern(lines: list[str]) -> str:
    return "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in lines)


def test_readme_has_examples():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert run(shlex.split(command), out=out, err=err) == 0
    assert re.fullmatch(_pattern(expected), out.getvalue()), out.getvalue()
