"""The README's examples, run as written, so they cannot drift from the code."""

import pathlib
import re

from hollowlat.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced(lang):
    """The README's code blocks fenced as lang, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_library_example_prints_what_its_comments_say(capsys):
    (code,) = fenced("python")
    exec(compile(code, str(README), "exec"), {})
    # Each print line's comment starts with what it prints, up to "->".
    expected = [line.split("#", 1)[1].split("->")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["(4)+(3)", "(1, 2)"]
    assert capsys.readouterr().out.splitlines() == expected


def cli_sessions():
    """(argv, shown lines) for each `$ hollowlat` command of the CLI example."""
    example = next(block for block in fenced("sh") if block.startswith("$ hollowlat "))
    sessions = []
    for chunk in example.split("$ hollowlat ")[1:]:
        command, *shown = chunk.strip().splitlines()
        sessions.append((command, [line for line in shown if line != "..."]))
    return sessions


def test_cli_example_prints_what_it_shows(tmp_path, capsys):
    # The shown lines, "..." left out, come in the order the command prints
    # them; "echo $?" adds the exit code as a last line.
    sessions = cli_sessions()
    assert [command for command, _ in sessions] == [
        "represent --in z12.spec", "verify --in z30.spec; echo $?"]
    assert "PASS  representation.0  [(4)+(3) (4):min={(4)}:hull=(4) (3):min={(3)}:hull=(3)]" \
        in sessions[0][1]
    assert sessions[1][1][-2:] == ["total: 51 pass, 0 fail, 0 hypothesis-unmet", "0"]
    for command, shown in sessions:
        argv = command.split(";")[0].split()
        n = re.fullmatch(r"z(\d+)\.spec", argv[-1]).group(1)
        spec = tmp_path / argv[-1]
        spec.write_text(f"ring {n}\nmodule {n}\n")
        code = main([*argv[:-1], str(spec)])
        printed = capsys.readouterr().out.splitlines()
        if command.endswith("echo $?"):
            printed.append(str(code))
        lines = iter(printed)
        assert all(line in lines for line in shown), (command, printed)
