import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    MINUS_INFINITY,
    DimensionError,
    DomainError,
    PolySystem,
    Ring,
    TermOrder,
    is_prime,
)
from soldeg.rings import Packing

from helpers import mk, mk_polys


# --- prime modulus -------------------------------------------------------


def test_primality_validation():
    for bad in (0, 1, 4, 9, 2**31, 2**31 + 11, -7):
        with pytest.raises(DomainError):
            Ring(bad, ("x",))
    for good in (2, 3, 101, 2**31 - 1):  # 2^31 - 1 is a Mersenne prime
        assert Ring(good, ("x",)).p == good


def test_is_prime_spot_checks():
    primes = [2, 3, 5, 7, 11, 101, 7919, 2147483629]
    # 561 and 41041 are Carmichael numbers, 2047 fools base 2 alone
    composites = [1, 4, 6, 9, 25, 91, 561, 2047, 41041]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


# --- monomials and orders ------------------------------------------------


def m2(a, b):
    return (a, b)


def test_order_compare_examples():
    # degree tie broken by precedence x > y
    assert GREVLEX.compare(m2(2, 0), m2(1, 1)) == 1
    # degree-compatible: deg 3 beats deg 2
    assert GRLEX.compare(m2(0, 3), m2(2, 0)) == 1
    for order in (GREVLEX, GRLEX):
        assert order.compare(m2(1, 2), m2(1, 2)) == 0


def test_order_mismatched_arity():
    with pytest.raises(DimensionError):
        GREVLEX.compare(m2(1, 0), (1, 0, 0))


def test_lex_is_rejected():
    with pytest.raises(DomainError):
        TermOrder("lex")


def test_grevlex_grlex_differ():
    # x1*x3 vs x2^2: grlex says x1*x3 bigger (lex on exponents), grevlex
    # says x2^2 bigger (smallest trailing exponent wins)
    a = (1, 0, 1)
    b = (0, 2, 0)
    assert GRLEX.compare(a, b) == 1
    assert GREVLEX.compare(a, b) == -1


@settings(max_examples=300)
@given(data=st.data(), order=st.sampled_from([GREVLEX, GRLEX]))
def test_order_is_total_and_degree_compatible(data, order):
    n = data.draw(st.integers(1, 4))
    exps = st.tuples(*([st.integers(0, 5)] * n))
    a, b, c = (data.draw(exps) for _ in range(3))
    # antisymmetry
    assert order.compare(a, b) == -order.compare(b, a)
    # transitivity
    if order.compare(a, b) <= 0 and order.compare(b, c) <= 0:
        assert order.compare(a, c) <= 0
    # degree compatibility
    if sum(a) < sum(b):
        assert order.compare(a, b) == -1
    # multiplicativity
    m = data.draw(exps)
    if order.compare(a, b) == -1:
        am = tuple(x + y for x, y in zip(a, m))
        bm = tuple(x + y for x, y in zip(b, m))
        assert order.compare(am, bm) == -1


@pytest.mark.parametrize("make, error, message", [
    (lambda: Ring(101, nvars=17), DimensionError, "need 1..16 variables"),
    (lambda: Ring(101), DomainError, "give variable names or a variable count"),
    (lambda: Ring(101, ("x", "y"), nvars=3), DimensionError, "nvars=3 disagrees with 2 names"),
    (lambda: Packing(17, "grevlex"), DimensionError, "monomials carry 1..16 exponents, got 17"),
    (lambda: Packing(2, "lex"), DomainError, "no packing for term order 'lex'"),
])
def test_ring_and_packing_refuse_bad_shapes(make, error, message):
    with pytest.raises(error, match=message):
        make()


# -1 used to give the last variable, 2 a bare IndexError, True the second variable
@pytest.mark.parametrize("i", [-1, 2, True, 1.0])
def test_a_variable_index_outside_the_ring_is_refused(i):
    with pytest.raises(DomainError, match=rf"variable index must be an int in 0\.\.1, got {i!r}"):
        Ring(101, ("x", "y")).variable(i)


def test_monomial_limits():
    ring = Ring(101, ("x", "y"))
    with pytest.raises(DimensionError):
        ring.monomial()
    with pytest.raises(DimensionError):
        ring.poly({(): 1})
    with pytest.raises(DomainError):
        ring.monomial(1, -1)
    with pytest.raises(DomainError):
        ring.poly({(1, -1): 1})


@pytest.mark.parametrize("c", [1.5, 2.0, True])
def test_a_coefficient_that_is_not_an_int_is_refused(c):
    # a float used to be stored as it was, and verify_bounds died in pow()
    ring = Ring(101, ("x", "y"))
    with pytest.raises(DomainError):
        ring.poly({(1, 0): c})
    with pytest.raises(DomainError):
        ring.variable(0).scaled(c)
    with pytest.raises(DomainError):
        ring.variable(0).mul_monomial((1, 0), c)


@pytest.mark.parametrize("e", [1.0, True])
def test_an_exponent_that_is_not_an_int_is_refused(e):
    # a float used to raise TypeError from the packing, and monomial() kept it
    ring = Ring(101, ("x", "y"))
    with pytest.raises(DomainError):
        ring.poly({(e, 0): 1})
    with pytest.raises(DomainError):
        ring.variable(0).mul_monomial((0, e))
    with pytest.raises(DomainError):
        ring.monomial(e, 0)


# --- polynomials ----------------------------------------------------------


def test_poly_top_examples():
    ring = Ring(101, ("x", "y"))
    f = mk("p=101; vars=x,y; x^5 + y")[0]
    assert f.top() == ring.poly({(5, 0): 1})
    g = mk("p=101; vars=x,y; x*y")[0]
    assert g.top() == g
    h = mk("p=101; vars=x,y; x^2 + x*y + 3")[0]
    assert h.top() == ring.poly({(2, 0): 1, (1, 1): 1})
    assert (h - h.top()).degree == 0


def test_top_of_zero_is_an_error():
    ring = Ring(101, ("x", "y"))
    with pytest.raises(DomainError):
        ring.zero().top()
    with pytest.raises(DomainError, match="the zero polynomial has no leading monomial"):
        ring.zero().leading_monomial(GREVLEX)


@pytest.mark.parametrize("e", [-1, True, 2.0])
def test_a_power_needs_a_non_negative_int_exponent(e):
    with pytest.raises(DomainError, match="non-negative int exponents"):
        Ring(101, ("x", "y")).variable(0) ** e


def test_degree_sentinel():
    ring = Ring(7, ("x",))
    z = ring.zero()
    assert z.degree is MINUS_INFINITY
    assert repr(z.degree) == "-infinity"
    with pytest.raises(TypeError):
        z.degree < 3  # sentinel never compares against ints


def test_leading_term_examples():
    f1, f2, f3 = mk_polys("p=101; vars=x,y", "x^2 + y", "y + 1", "x + y")
    for f, lm in ((f1, m2(2, 0)), (f2, m2(0, 1)), (f3, m2(1, 0))):
        assert (f.leading_coeff(GREVLEX), f.leading_monomial(GREVLEX)) == (1, lm)


def test_poly_arithmetic_over_gf5():
    ring = Ring(5, ("x", "y"))
    f = ring.poly({(2, 0): 3, (0, 1): 4})
    g = ring.poly({(2, 0): 2, (0, 1): 1})
    assert (f + g).is_zero
    assert f - f == ring.zero()
    assert (f * g).degree == 4
    assert f.scaled(2) == ring.poly({(2, 0): 1, (0, 1): 3})
    assert f.monic(GREVLEX).leading_coeff(GREVLEX) == 1
    assert (f * ring.one()) == f


def test_poly_power_and_identity():
    # the family's membership identity: x = -y^(k-1)*f1 + f2 + x^(k-1)*y^(k-2)*f3
    from soldeg import gen_fk

    for k in (2, 3, 5):
        F = gen_fk(k, 101)
        x, y = F.ring.variables()
        f1, f2, f3 = F
        combo = -(y ** (k - 1)) * f1 + f2 + (x ** (k - 1) * y ** (k - 2)) * f3
        assert combo == x


def test_mixed_ring_arithmetic_rejected():
    a = Ring(101, ("x", "y")).one()
    b = Ring(7, ("x", "y")).one()
    with pytest.raises(DimensionError):
        a + b


def test_poly_system_validation():
    ring = Ring(101, ("x", "y"))
    with pytest.raises(DomainError):
        PolySystem(ring, [])
    with pytest.raises(DomainError):
        PolySystem(ring, [ring.zero()])
    with pytest.raises(DimensionError):
        PolySystem(ring, [Ring(7, ("x", "y")).one()])


# --- monomial enumeration (Packing.monomials) -----------------------------


def _monomials(n, degrees, order=GREVLEX):
    """Exponent tuples of the given degrees, descending under `order`."""
    pack = Packing(n, order.kind)
    keys = sorted((k for d in degrees for k in pack.monomials(d)), reverse=True)
    return [pack.decode(k) for k in keys]


def test_enumerate_examples():
    mons = _monomials(2, [3])
    assert mons == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(_monomials(2, range(3))) == 6
    assert len(_monomials(3, [2])) == 6


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(0, 11))
def test_enumerate_counts_match_binomials(n, d):
    assert len(_monomials(n, [d])) == math.comb(d + n - 1, d)
    assert len(_monomials(n, range(d + 1))) == math.comb(n + d, n)


def test_enumerate_is_strictly_descending():
    for order in (GREVLEX, GRLEX):
        mons = _monomials(3, range(5), order)
        assert all(order.compare(a, b) == 1 for a, b in zip(mons, mons[1:]))


def test_render_roundtrip_shapes():
    f = mk("p=101; vars=x,y; 3*x^2*y + x + 42")[0]
    assert f.render() == "3*x^2*y + x + 42"
    assert mk("p=101; vars=x,y; " + f.render())[0] == f
