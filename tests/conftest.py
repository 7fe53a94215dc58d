"""Settings shared by the test modules."""

from hypothesis import settings

# Every property runs the same dozen examples on every run, and no failing example is
# replayed from a database: a test result depends on the code alone.
settings.register_profile("derandomized", max_examples=12, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("derandomized")
