import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def test_diff_reports_first_difference(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    a.write_text('{"op": 0}\n{"op": 1}\n')
    b.write_text('{"op": 0}\n{"op": 1}\n')
    c.write_text('{"op": 0}\n{"op": 2}\n{"op": 3}\n')
    assert fingerprint.main(["--diff", str(a), str(b)]) == 0
    assert "identical: 2 trials" in capsys.readouterr().out
    assert fingerprint.main(["--diff", str(a), str(c)]) == 1
    assert capsys.readouterr().out == 'first difference at line 2:\n  A: {"op": 1}\n  B: {"op": 2}\n'


def test_missing_line_counts_as_difference():
    assert fingerprint.first_difference(["x"], ["x", "y"]) == (1, None, "y")
    assert fingerprint.first_difference(["x"], ["x"]) is None
