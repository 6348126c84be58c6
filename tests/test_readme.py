"""The README's examples print, byte for byte, what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from carleman.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)

# shell sessions whose output is shown in full; verify and integrals elide theirs with "..."
SESSIONS = [body for _, body in BLOCKS if body.startswith("$ ") and "..." not in body]


@pytest.mark.parametrize("session", SESSIONS, ids=lambda body: body.splitlines()[0][2:])
def test_shell_examples(session, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in re.split(r"^\$ ", session, flags=re.M)[1:]:
        line, _, shown = command.partition("\n")
        argv = shlex.split(line)
        if argv[0] == "printf":  # printf 'TEXT' > FILE
            assert argv[2] == ">" and shown == ""
            Path(argv[3]).write_text(argv[1].encode().decode("unicode_escape"))
            continue
        assert argv[0] == "carleman"
        main(argv[1:])
        assert capsys.readouterr().out == shown, line


def test_library_quick_start(capsys):
    """Each print in the quick start shows its output in the comment after it."""
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(code, {})
    shown = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out == "".join(f"{text}\n" for text in shown)
