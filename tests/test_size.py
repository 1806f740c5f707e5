import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import certkmeans
from certkmeans.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def _count_help_options(capsys) -> int:
    """Option flags listed by each subcommand's --help, --help excluded."""
    usage = _help_text(capsys, [])
    commands = re.search(r"\{([\w,]+)\}", usage).group(1).split(",")
    count = 0
    for command in commands:
        flags = re.findall(r"^  (?:-\w, )?(--[\w-]+)", _help_text(capsys, [command]), flags=re.MULTILINE)
        count += sum(1 for flag in flags if flag != "--help")
    return count


def test_size_reports_module_lines_and_exports(capsys):
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py")], capture_output=True, text=True,
                         timeout=60, env={"PATH": ""})
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("\n") == 1
    size = json.loads(run.stdout)
    assert set(size) == {"lines", "total_lines", "exports", "options"}
    modules = sorted((ROOT / "src" / "certkmeans").glob("*.py"))
    assert list(size["lines"]) == [path.name for path in modules]
    assert size["lines"]["model.py"] == len((ROOT / "src" / "certkmeans" / "model.py").read_text().splitlines())
    assert size["total_lines"] == sum(size["lines"].values())
    assert size["exports"] == len(certkmeans.__all__)
    assert size["options"] == _count_help_options(capsys)
