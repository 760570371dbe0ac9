"""The repo's end-to-end benchmark (see README.md in this directory).

Run it from the repository root: ``python -m bench``.  The program under
test is imported from ``src/`` beside this package.
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
