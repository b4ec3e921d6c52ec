import collections

import loewner


def test_every_export_resolves_once():
    # a stale name would otherwise surface only at ``from loewner import *``
    assert [n for n, k in collections.Counter(loewner.__all__).items() if k > 1] == []
    assert [n for n in loewner.__all__ if not hasattr(loewner, n)] == []
