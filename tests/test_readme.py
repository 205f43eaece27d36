"""The README's Python examples run as written and give the values their
comments state, and its command line matches the parser's."""

import argparse
import math
import re
import shlex
from pathlib import Path

import chaoskit.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_state_true_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # in order, in one namespace, as a reader runs them
        exec(compile(block, str(README), "exec"), ns)
    assert ns["second_moment_exact"](ns["f"]) == 1.0
    assert ns["excess_kurtosis_exact"](ns["f"]) == 0.375
    assert sorted(ns["expansion"].orders()) == [0, 2, 4]
    assert ns["report"].verdict == "consistent"
    assert math.isfinite(ns["ef"].variance_exact())
    assert math.isfinite(ns["ef"].contraction_ratio())


def _command_line_section():
    text = README.read_text()
    return text[text.index("## Command line"):text.index("## Validation suite")]


def test_readme_flag_table_lists_each_commands_flags():
    # the table leaves out the flags its prose says every command takes
    common = {"-h", "--help", "--seed", "--out", "--config", "--threads"}
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$",
                           _command_line_section(), re.MULTILINE))
    assert set(rows) == set(sub.choices)
    for command, parser in sub.choices.items():
        flags = [s for a in parser._actions for s in a.option_strings
                 if s not in common]
        assert re.findall(r"`(--[a-z]+)`", rows[command]) == flags, command


def test_readme_command_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    argvs = [shlex.split(line)[1:] for block in blocks
             for line in block.splitlines() if line.startswith("chaoskit ")]
    assert len(argvs) == 5
    for argv in argvs:  # parsed and resolved, not run
        cli._read_flags(cli._parse(cli._build_parser(), argv))


# each error line the Command-line section quotes in full, and an argv
# that prints it
_QUOTED_ERRORS = {
    "error: usage: --samples must be an integer >= 100, got 50":
        ["diagnose", "--samples", "50"],
    "error: usage: --hurst is not read by clt-pairs":
        ["diagnose", "--family", "clt-pairs", "--hurst", "0.7"],
    "error: numerical: spectrum: embedding dimension 1048576 too large for "
    "a dense kernel":
        ["diagnose", "--family", "sheet-power", "--dims", "2", "--cells",
         "1024"],
}


def test_readme_quoted_errors_are_printed_verbatim(tmp_path, capsys):
    # the README wraps its quotes; a template or an elided detail ("...")
    # quotes no one argv
    quoted = {" ".join(q.split()) for q in
              re.findall(r"`(error: [^`]*)`", _command_line_section())}
    assert {q for q in quoted
            if "<" not in q and "..." not in q} == set(_QUOTED_ERRORS)
    for line, argv in _QUOTED_ERRORS.items():
        rc = cli.main(argv + ["--out", str(tmp_path)])
        assert rc == (1 if line.startswith("error: usage:") else 2), argv
        assert capsys.readouterr().err == line + "\n"


def test_readme_layout_names_every_module():
    text = README.read_text()
    layout = text[text.index("## Layout"):]
    block = re.search(r"^```\n(.*?)^```$", layout,
                      re.MULTILINE | re.DOTALL).group(1)
    named = set(re.findall(r"^  ([a-z_]+\.py) ", block, re.MULTILINE))
    modules = {p.name for p in (README.parent / "src" / "chaoskit").glob("*.py")}
    assert named == modules - {"__init__.py"}
