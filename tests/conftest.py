"""Shared pytest configuration for the repro test suite."""

from hypothesis import settings

# every run on every host draws the same examples: derandomized, and no
# example database carrying failures from one run into the next; each
# test's own max_examples still applies
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "net: federation-service tests (repro.net) that open localhost sockets "
        "or spawn worker subprocesses",
    )
