"""The README's command-line examples run as written.

Every fenced block that calls ``bernstein-lab`` is run in a temporary
directory, its ``echo ... > FILE`` setup lines included, with the entry
point spelled ``python -m bernstein_lab.cli``.  Each command must exit 0
with nothing on stderr, and the rotate example must report the evaluation
count the README states.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_commands(text):
    """The shell commands of the fenced blocks that call ``bernstein-lab``,
    as argument lists: backslash continuations are joined, and a quoted
    argument may span lines."""
    commands = []
    for block in re.findall(r"^```\n(.*?)^```$", text, re.S | re.M):
        if "bernstein-lab " not in block:
            continue
        pending = ""
        for line in block.splitlines():
            if not (pending or line.strip()):
                continue
            pending += line[:-1] + " " if line.endswith("\\") else line
            if line.endswith("\\"):
                continue
            try:
                commands.append(shlex.split(pending))
            except ValueError:             # a quote still open
                pending += "\n"
                continue
            pending = ""
        assert not pending, pending
    return commands


def test_readme_commands_parse():
    text = ("```\necho '{\"a\": 1,\n  \"b\": 2}' > in.json\n"
            "bernstein-lab check --input in.json \\\n    --delta 0.1\n```\n"
            "```\npip install -e .\n```\n")
    assert readme_commands(text) == [
        ["echo", '{"a": 1,\n  "b": 2}', ">", "in.json"],
        ["bernstein-lab", "check", "--input", "in.json", "--delta", "0.1"],
    ]


def test_readme_examples_run(tmp_path):
    commands = readme_commands(README)
    assert sum(argv[0] == "bernstein-lab" for argv in commands) == 7
    evaluations = re.search(r'It reports `("evaluations": \d+)`', README)[1]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in commands:
        if argv[0] == "echo":
            assert len(argv) == 4 and argv[2] == ">", argv
            (tmp_path / argv[3]).write_text(argv[1] + "\n")
            continue
        assert argv[0] == "bernstein-lab", argv
        proc = subprocess.run(
            [sys.executable, "-m", "bernstein_lab.cli", *argv[1:]],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        if argv[1] == "rotate":
            assert evaluations in proc.stdout
