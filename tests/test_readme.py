"""The README's examples run as written.

Every `rnla ...` line of the README's `sh` blocks goes through the CLI entry
point, in order, in one scratch directory, and must exit 0; the `python`
block is executed as is.  A name the README uses and the package no longer
has fails here.
"""

import re
import shlex
from pathlib import Path

from rnla.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def _cli_examples():
    examples = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rnla"]:
                examples.append(words[1:])
    return examples


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RNLA_SEED", raising=False)
    examples = _cli_examples()
    assert [argv[0] for argv in examples] == [
        "gen", "matmul", "lsq", "lowrank", "report",
        "check", "check", "check", "check"]
    for argv in examples:
        assert main(argv) == 0, argv


def test_readme_python_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
