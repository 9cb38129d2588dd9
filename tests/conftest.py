"""Shared test settings.

``--hypothesis-profile=ci`` draws the same examples on every run and
prints each failing example's reproduction blob, so a property failure in
a CI log can be replayed; runs without it draw fresh examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True, database=None,
                              print_blob=True)
