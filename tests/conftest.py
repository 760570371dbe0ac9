"""Hypothesis profiles for the test suite.

``default`` (loaded here) derandomizes every property test and keeps
no example database, so a run's verdict is a function of the tree
alone; each test keeps its own ``max_examples``.

``explore`` draws fresh random examples on every run and prints the
reproduction blob of any failure.  Select it with Hypothesis's own
pytest option::

    python -m pytest --hypothesis-profile explore

Pin whatever it finds as an ``@example`` on the failing test.
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("default")
