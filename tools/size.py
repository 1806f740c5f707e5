"""Size of the library as one JSON line: the lines of each module, the
number of names the package exports and the number of command line options.

Usage, from the root of a checkout:

    python3 tools/size.py

Keys: ``lines`` (each ``src/certkmeans/*.py`` by file name, to its line
count), ``total_lines`` (their sum), ``exports`` (the length of
``certkmeans.__all__``) and ``options`` (the option flags of every
subcommand of ``cli.build_parser()``, ``--help`` not counted).  The package is imported from the ``src`` directory
of the same checkout, so running the script from two checkouts measures two
versions of the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure() -> dict:
    sys.path.insert(0, str(SRC))
    import certkmeans
    from certkmeans import cli

    lines = {path.name: len(path.read_text().splitlines()) for path in sorted((SRC / "certkmeans").glob("*.py"))}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = sum(
        1
        for parser in sub.choices.values()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )
    return {"lines": lines, "total_lines": sum(lines.values()), "exports": len(certkmeans.__all__), "options": options}


if __name__ == "__main__":
    print(json.dumps(measure()))
