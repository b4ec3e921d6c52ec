import collections
import re
from pathlib import Path

import numpy as np
import pytest

import loewner
from loewner import (
    AnalyticMap,
    AtomPath,
    Empirical,
    EvolutionFamily,
    Semicircle,
    cauchy,
    cauchy_from_r,
    chain_approximation,
    constant_driver,
    f_transform,
    free_r,
    free_subordination,
    invert_cauchy,
    invert_stieltjes,
    sle_driving,
    welding,
)
from loewner.errors import NumericError, ValidationError


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


SC = Semicircle(1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: welding(constant_driver(0.0), 1.0), "AtomPath"),
    (lambda: welding(sle_driving(2.0, 1.0 / 64.0, 1.0, 1), 0.0), "T > 0"),
    (lambda: AtomPath([0.0, 0.5, 1.0], [0.0, 1.0]), "matching"),
    (lambda: invert_cauchy(cauchy(SC), np.array([1j, 0.0])), "w = 0"),
    (lambda: invert_cauchy(f_transform(SC), 1j), "cauchy-kind"),
    (lambda: cauchy_from_r(cauchy(SC)), "r-kind"),
    (lambda: invert_stieltjes(f_transform(SC), np.linspace(-3.0, 3.0, 7), 1e-3), "cauchy-kind"),
    (lambda: free_r(cauchy(SC), cauchy(SC)), "r-kind"),
    (lambda: free_subordination(cauchy(SC), f_transform(SC)), "cauchy-kind"),
    (lambda: AnalyticMap("x", lambda z: z), "unknown transform kind"),
    (lambda: EvolutionFamily("classical", constant_driver(0.0)), "unknown semantics"),
    (lambda: chain_approximation(constant_driver(0.0), 0.0, 4), "dt > 0"),
    (lambda: chain_approximation(constant_driver(0.0), -0.1, 4), "dt > 0"),
    (lambda: chain_approximation(constant_driver(0.0), 0.1, -1), "K >= 0"),
    (lambda: Empirical(a=-1.0, values=np.full(3, 0.5)), "both endpoints"),
    (lambda: Empirical(b=1.0, values=np.full(3, 0.5)), "both endpoints"),
    (lambda: Empirical(a=-1.0, b=1.0, values=np.array([0.5])), "two nodes"),
    (lambda: Empirical(atoms=((0.0, 1.0),), a=-1.0, b=1.0), "without density"),
    (lambda: Empirical(atoms=((0.0, 1.0),)).grid(), "no density grid"),
], ids=["welding-measure-path", "welding-at-T-0", "atom-path-mismatched-arrays",
        "invert-cauchy-at-0", "invert-cauchy-f-kind", "cauchy-from-r-kind",
        "invert-stieltjes-kind", "free-r-kind", "free-subordination-kind", "analytic-map-kind",
        "evolution-semantics", "chain-dt-0", "chain-dt-negative", "chain-K-negative",
        "empirical-a-only", "empirical-b-only", "empirical-one-node",
        "empirical-endpoints-without-values", "empirical-grid-without-density"])
def test_input_check_raises_validation_error(call, match):
    # each check guards a public entry point against an input outside its domain
    with pytest.raises(ValidationError, match=match):
        call()
