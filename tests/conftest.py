"""Shared pytest configuration for the repro test suite."""

import dataclasses

from hypothesis import settings

from repro.parallel.backend import ClientJob, ClientResult
from repro.runtime.clock import Event
from repro.runtime.events import Completion, Dispatch

# every run on every host draws the same examples: derandomized, and no
# example database carrying failures from one run into the next; each
# test's own max_examples still applies
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

#: the records every async update builds: slotted rather than frozen, so
#: building one pays no ``object.__setattr__`` per field, and immutable by
#: contract (a changed record is a ``dataclasses.replace`` copy)
IMMUTABLE_RECORDS = (Dispatch, Completion, Event, ClientJob, ClientResult)


def _refuse_reassignment(self, name, value):
    # __init__, unpickling and replace only fill slots that hold nothing yet
    if hasattr(self, name):
        raise dataclasses.FrozenInstanceError(
            f"cannot assign to field {name!r} of an immutable "
            f"{type(self).__name__}"
        )
    object.__setattr__(self, name, value)


def _refuse_deletion(self, name):
    raise dataclasses.FrozenInstanceError(
        f"cannot delete field {name!r} of an immutable {type(self).__name__}"
    )


# for the whole session, and in every process the pool forks from it: a
# write to a record after construction fails the suite, while production
# pays nothing for the check
for _record in IMMUTABLE_RECORDS:
    _record.__setattr__ = _refuse_reassignment
    _record.__delattr__ = _refuse_deletion


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "net: federation-service tests (repro.net) that open localhost sockets "
        "or spawn worker subprocesses",
    )
