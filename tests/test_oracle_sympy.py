"""Differential tests of the reduced Groebner basis and the regularity
degree against sympy.

sympy.groebner is an independent implementation; over GF(p) under the same
degree-compatible order it must return the same reduced basis, so the
rendered bases and their largest degrees (Gbd) agree term for term. The
regularity degree is the first degree in which the ideal of the top parts
has no standard monomial, counted on sympy's basis of that ideal.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from soldeg import (  # noqa: E402
    GREVLEX,
    GRLEX,
    InfiniteDegree,
    PolySystem,
    Ring,
    buchberger_reduced,
    degree_of_regularity,
)

PRIMES = [2, 3, 101, 2**31 - 1]


@st.composite
def systems(draw):
    """A ring with n <= 3 variables, an order, and 1..3 nonzero polynomials
    of degree <= 3 with at most 4 terms each."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from([GREVLEX, GRLEX]))
    ring = Ring(p, nvars=n)
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda e: sum(e) <= 3)
    term = st.tuples(exps.map(tuple), st.integers(1, p - 1))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        f = ring.poly(draw(st.lists(term, min_size=1, max_size=4)))
        if not f.is_zero:
            polys.append(f)
    if not polys:
        polys.append(ring.one())
    return ring, order, polys


def sympy_reduced_basis(ring, order, polys):
    """sympy's reduced basis of `polys`, as library polynomials sorted by
    descending leading monomial."""
    gens = sympy.symbols(ring.names)
    exprs = [
        sympy.Add(*(c * sympy.Mul(*(g**e for g, e in zip(gens, m))) for m, c in f.terms.items()))
        for f in polys
    ]
    G = sympy.groebner(exprs, *gens, modulus=ring.p, order=order.kind)
    basis = [ring.poly({m: int(c) % ring.p for m, c in P.terms()}) for P in G.polys]
    return sorted(basis, key=lambda g: order.key(g.leading_monomial(order)), reverse=True)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_reduced_basis_matches_sympy(case):
    ring, order, polys = case
    ours = buchberger_reduced(polys, order)
    theirs = sympy_reduced_basis(ring, order, polys)
    assert [g.render(order) for g in ours] == [g.render(order) for g in theirs]
    assert ours.max_degree == max(g.degree for g in theirs)


def sympy_regularity_degree(ring, polys):
    """The first d in 1..max(1, cap) whose monomials are all divisible by a
    leading monomial of sympy's grevlex basis of the top parts, else
    InfiniteDegree(cap); cap is one past the Macaulay bound over the
    min(n, k) largest degrees. The cap is 0 for n constants in n variables,
    whose tops generate the whole ring: d = 1 is still scanned."""
    basis = sympy_reduced_basis(ring, GREVLEX, [f.top() for f in polys])
    lms = [g.leading_monomial(GREVLEX) for g in basis]
    degrees = sorted((f.degree for f in polys), reverse=True)[: min(ring.nvars, len(polys))]
    cap = sum(degrees) - len(degrees) + 3
    for d in range(1, max(1, cap) + 1):
        monomials = (m for m in itertools.product(range(d + 1), repeat=ring.nvars) if sum(m) == d)
        if all(any(all(map(int.__ge__, m, lm)) for lm in lms) for m in monomials):  # none standard
            return d
    return InfiniteDegree(cap)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(systems())
@example((Ring(2, nvars=3), GREVLEX, [Ring(2, nvars=3).one()] * 3))  # cap 0, d_reg 1
def test_regularity_degree_matches_sympy(case):
    ring, _, polys = case
    assert degree_of_regularity(PolySystem(ring, polys)) == sympy_regularity_degree(ring, polys)
