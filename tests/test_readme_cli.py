"""README's CLI examples, replayed byte for byte.

Every `$ puiseux ...` line in the README's CLI block must print exactly
the lines that follow it there. The same command with `--json` must
print the document pinned in `fixtures/readme_cli_json.json`.
"""

import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from puiseux.cli import main

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
    return CliRunner().invoke(main, shlex.split(cmd))


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
