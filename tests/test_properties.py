"""Property tests of the canonical direction sets and their JSON form.

A `CircuitSet` names each line through the origin by one primitive
integer vector whose first nonzero entry is positive, so it must not
depend on how its input vectors are scaled, signed, repeated or ordered.
The examples are derandomized, so every run checks the same ones.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from polycircuits import jsonio
from polycircuits.directions import CircuitSet
from polycircuits.linalg import canonicalize_direction

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scales = rationals.filter(lambda c: c != 0)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


# Several vectors of one dimension, zero vectors included.
families = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(vectors(n), min_size=0, max_size=6)
)


@PROPERTY
@given(families, st.data())
def test_of_ignores_scaling_sign_duplicates_and_order(vs, data):
    C = CircuitSet.of(vs)
    factors = data.draw(st.lists(scales, min_size=len(vs), max_size=len(vs)))
    rescaled = [tuple(c * x for x in v) for c, v in zip(factors, vs)]
    assert CircuitSet.of(rescaled) == C
    assert CircuitSet.of([tuple(-x for x in v) for v in vs]) == C
    assert CircuitSet.of(vs + vs[::-1]) == C
    assert CircuitSet.of(data.draw(st.permutations(vs))) == C
    assert CircuitSet.of(C) == C


@PROPERTY
@given(families)
def test_entries_are_primitive_ints_with_positive_lead(vs):
    C = CircuitSet.of(vs)
    assert list(C.directions) == sorted(set(C.directions))
    for g in C:
        assert type(g) is tuple and all(type(x) is int for x in g)
        assert gcd(*g) == 1
        assert next(x for x in g if x) > 0
    assert len(C) == len({canonicalize_direction(v) for v in vs if any(v)})


@PROPERTY
@given(families, st.data())
def test_membership_agrees_with_canonical_membership(vs, data):
    C = CircuitSet.of(vs[1:])
    probes = vs[:1] + [tuple(c * x for x in v) for c, v in zip([Fraction(-1, 3), 2], vs)]
    L = CircuitSet.subspace(vs[1:])
    for v in probes:
        assert (v in C) == (canonicalize_direction(v) in C)
        assert (v in L) == (canonicalize_direction(v) in L)
    for g in C:
        assert g in C


@PROPERTY
@given(families)
def test_json_round_trip_is_the_identity(vs):
    for C in (CircuitSet.of(vs), CircuitSet.subspace(vs)):
        assert jsonio.circuits_from_dict(jsonio.circuits_to_dict(C)) == C
