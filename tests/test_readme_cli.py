"""README's examples, replayed.

Every `$ puiseux ...` line in the README's CLI block must print exactly
the lines that follow it there. The same command with `--json` must
print the document pinned in `fixtures/readme_cli_json.json`. Every
line of the Python quick-start block whose comment is a literal must
evaluate to that literal.
"""

import ast
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import run_cli

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
PINNED_JSON = json.loads((HERE / "fixtures" / "readme_cli_json.json").read_text())


def readme_examples() -> list[tuple[str, str]]:
    """(command line after `puiseux`, expected stdout) in README order."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ puiseux "):
            examples.append((line[len("$ puiseux ") :], []))
        else:
            examples[-1][1].append(line + "\n")
    return [(cmd, "".join(out)) for cmd, out in examples]


EXAMPLES = readme_examples()
IDS = ["-".join(shlex.split(cmd)[:2]) for cmd, _ in EXAMPLES]


def run(cmd: str):
    return run_cli(shlex.split(cmd))


def test_readme_lists_the_pinned_examples():
    assert len(EXAMPLES) >= 9
    assert sorted(cmd for cmd, _ in EXAMPLES) == sorted(PINNED_JSON)


@pytest.mark.parametrize("cmd, expected", EXAMPLES, ids=IDS)
def test_plain_output_matches_readme(cmd, expected):
    result = run(cmd)
    assert result.exit_code == 0, result.output
    assert result.stdout == expected


@pytest.mark.parametrize("cmd", [cmd for cmd, _ in EXAMPLES], ids=IDS)
def test_json_output_matches_pinned(cmd):
    result = run(cmd + " --json")
    assert result.exit_code == 0, result.output
    assert result.stdout == PINNED_JSON[cmd]


def readme_python_block() -> list[str]:
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def comment_literal(comment: str):
    """The value a comment like `23`, `"yes"` or `13/8` shows; None for prose."""
    try:
        return ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        pass
    try:
        return Fraction(comment)
    except ValueError:
        return None


def test_python_quick_start_matches_its_comments():
    namespace: dict = {}
    checked = []
    for line in readme_python_block():
        code, _, comment = (part.strip() for part in line.partition("#"))
        expected = comment_literal(comment) if comment else None
        if expected is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected, line
            checked.append(comment)
    assert checked == ["23", "True", '"yes"', "13/8", '["confirmed"]']
