"""Property tests: witness checks round-trip and reject single-field tampering."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spnum.arith import is_prime  # noqa: E402
from spnum.classify import SpWitness, sp_decompose  # noqa: E402
from spnum.construct import gap_witness  # noqa: E402

LIMIT = 10**9


@st.composite
def sp_members(draw):
    """An SP number p*a^2 <= LIMIT, as the witness it was built from."""
    a = draw(st.integers(2, 22360))  # largest a with 2*a^2 <= LIMIT
    p = draw(st.integers(2, LIMIT // (a * a)))
    while not is_prime(p):
        p -= 1
    return SpWitness(p * a * a, p, a)


@given(sp_members())
def test_decompose_roundtrip(w):
    got = sp_decompose(w.n)
    assert got == w
    assert got.checks() == []


@given(
    sp_members(),
    st.sampled_from(["n", "p", "a"]),
    st.integers(-10**6, 10**6).filter(bool),
)
def test_single_field_perturbation_rejected(w, field, delta):
    tampered = dataclasses.replace(w, **{field: getattr(w, field) + delta})
    assert tampered.checks() != []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6))
def test_gap_witness_checks(x):
    w = gap_witness(x)
    assert w.x == x
    assert w.checks() == []
