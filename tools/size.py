"""Size of the library as one JSON line: the lines of each module and the
number of names the package exports.

Usage, from the root of a checkout:

    python3 tools/size.py

Keys: ``lines`` (each ``src/certkmeans/*.py`` by file name, to its line
count), ``total_lines`` (their sum) and ``exports`` (the length of
``certkmeans.__all__``).  The package is imported from the ``src`` directory
of the same checkout, so running the script from two checkouts measures two
versions of the code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure() -> dict:
    sys.path.insert(0, str(SRC))
    import certkmeans

    lines = {path.name: len(path.read_text().splitlines()) for path in sorted((SRC / "certkmeans").glob("*.py"))}
    return {"lines": lines, "total_lines": sum(lines.values()), "exports": len(certkmeans.__all__)}


if __name__ == "__main__":
    print(json.dumps(measure()))
