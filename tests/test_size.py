import json
import subprocess
import sys
from pathlib import Path

import certkmeans

ROOT = Path(__file__).resolve().parent.parent


def test_size_reports_module_lines_and_exports():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py")], capture_output=True, text=True,
                         timeout=60, env={"PATH": ""})
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("\n") == 1
    size = json.loads(run.stdout)
    assert set(size) == {"lines", "total_lines", "exports"}
    modules = sorted((ROOT / "src" / "certkmeans").glob("*.py"))
    assert list(size["lines"]) == [path.name for path in modules]
    assert size["lines"]["model.py"] == len((ROOT / "src" / "certkmeans" / "model.py").read_text().splitlines())
    assert size["total_lines"] == sum(size["lines"].values())
    assert size["exports"] == len(certkmeans.__all__)
