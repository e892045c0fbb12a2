"""Settings shared by every test module."""

from hypothesis import settings

# property tests run on shared hosts whose speed swings by a third over
# minutes; a per-example deadline would fail them on a slow spell, not on
# a wrong answer, so no test has one (each keeps its own max_examples)
settings.register_profile("scatter_tsp", deadline=None)
settings.load_profile("scatter_tsp")
