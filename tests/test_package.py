import collections
import re
from pathlib import Path

import loewner
from loewner.errors import NumericError


def test_every_export_resolves_once():
    # a stale name would otherwise surface only at ``from loewner import *``
    assert [n for n, k in collections.Counter(loewner.__all__).items() if k > 1] == []
    assert [n for n in loewner.__all__ if not hasattr(loewner, n)] == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_numeric_error_has_a_trigger():
    # a NumericError must come from an input outside the method's reach, so each subclass
    # is raised by some test, or it is deleted
    raised = set()
    for path in Path(__file__).parent.rglob("*.py"):
        for args in re.findall(r"pytest\.raises\(([^)]*)", path.read_text()):
            raised.update(re.findall(r"\w+", args))
    assert sorted(c.__name__ for c in _subclasses(NumericError) if c.__name__ not in raised) == []
