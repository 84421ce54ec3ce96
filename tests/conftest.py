from hypothesis import settings

# Derandomized and without a deadline or example database, so every run of
# the suite draws the same examples and timing noise cannot fail a test.
settings.register_profile("klwishart", derandomize=True, deadline=None, database=None)
settings.load_profile("klwishart")
