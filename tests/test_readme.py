"""The README quick start runs as written.

Its examples are doctests, so a renamed attribute, a swapped argument order
or a changed headline value fails here instead of in a reader's session.
"""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert result.attempted > 0
    assert result.failed == 0
