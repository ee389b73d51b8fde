"""Produce reference outputs with the frozen seed copy of besovlab.

    python3 perfbench/reference.py '<JSON list of CLI argument lists>'

Runs each argument list through `besovlab.cli.main` of the package under
perfbench/reference/ (a verbatim copy of src/besovlab at the seed
commit, never edited) and prints the list of CLI exit codes as JSON.
"""

import contextlib
import json
import os
import sys

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def main() -> int:
    sys.path.insert(0, REFERENCE_DIR)
    from besovlab import cli

    if not cli.__file__.startswith(REFERENCE_DIR + os.sep):
        print(f"reference package resolved to {cli.__file__}", file=sys.stderr)
        return 2
    codes = []
    with contextlib.redirect_stdout(sys.stderr):
        for argv in json.loads(sys.argv[1]):
            codes.append(cli.main(argv))
    print(json.dumps(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
