"""Packed monomials against plain exponent tuples, and the degree limit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    MAX_DEGREE,
    DomainError,
    ParseError,
    Ring,
    buchberger_reduced,
    parse_system,
    verify_bounds,
)
from soldeg.cli import main
from soldeg.rings import Packing

ORDERS = st.sampled_from([GREVLEX, GRLEX])


@st.composite
def packed_pairs(draw):
    """An order, its packing, and two exponent tuples whose product still
    fits the degree limit; exponents reach up to the limit."""
    order = draw(ORDERS)
    n = draw(st.integers(1, 6))
    big = draw(st.sampled_from([6, MAX_DEGREE // 2]))
    exps = st.tuples(*[st.integers(0, big // n)] * n)
    return order, Packing(n, order.kind), draw(exps), draw(exps)


def sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=400)
@given(packed_pairs())
def test_packed_arithmetic_matches_tuples(case):
    order, pack, a, b = case
    ka, kb = pack.encode(a), pack.encode(b)
    assert pack.decode(ka) == a
    assert pack.degree(ka) == sum(a)
    assert ka + kb == pack.encode(tuple(x + y for x, y in zip(a, b)))
    assert pack.decode(ka + kb - kb) == a
    divides = all(x <= y for x, y in zip(a, b))
    assert pack.divides(ka, kb) == divides
    if divides:
        assert kb - ka == pack.encode(tuple(y - x for x, y in zip(a, b)))
    assert pack.lcm(ka, kb) == pack.encode(tuple(max(x, y) for x, y in zip(a, b)))
    assert sign(ka - kb) == order.compare(a, b)
    other = Packing(pack.n, ({"grevlex", "grlex"} - {pack.kind}).pop())
    assert other.repack({ka: 1, kb: 2}, pack) == {other.encode(a): 1, other.encode(b): 2}
    assert (ka >= pack.degree_floor(sum(b))) == (sum(a) >= sum(b))


@settings(max_examples=100)
@given(order=ORDERS, n=st.integers(1, 6), d=st.integers(0, 5))
def test_packed_enumeration_is_every_monomial_once(order, n, d):
    pack = Packing(n, order.kind)
    keys = pack.monomials(d)
    assert len(set(keys)) == len(keys)
    assert all(pack.degree(k) == d and pack.encode(pack.decode(k)) == k for k in keys)


# --- the degree limit ------------------------------------------------------------


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_limit_degree_packs_and_overflow_raises(order):
    pack = Packing(3, order.kind)
    top = (MAX_DEGREE - 2, 1, 1)
    assert pack.decode(pack.encode(top)) == top
    with pytest.raises(DomainError):
        pack.encode((MAX_DEGREE, 0, 1))
    x = Ring(101, ("x", "y")).poly({(MAX_DEGREE - 1, 0): 1, (0, 1): 1})
    assert x.mul_monomial((0, 1)).degree == MAX_DEGREE
    with pytest.raises(DomainError):
        x.mul_monomial((1, 1))
    with pytest.raises(DomainError):
        x * x


def test_parser_limit():
    sf = parse_system(f"p=101; vars=x,y; x^{MAX_DEGREE} + y; x^{MAX_DEGREE - 1}*y")
    assert sf.system.degrees() == (MAX_DEGREE, MAX_DEGREE)
    for bad in (f"x^{MAX_DEGREE + 1}", "x^99999999999", f"x^{MAX_DEGREE}*y", "x^20000*x^20000"):
        with pytest.raises(ParseError):
            parse_system(f"p=101; vars=x,y; {bad}")


def test_analyze_at_and_past_the_limit(tmp_path, capsys):
    at = tmp_path / "at.txt"
    at.write_text(f"p=101; vars=x; x^{MAX_DEGREE}; x\n")
    assert main(["analyze", "--json", str(at)]) == 0
    doc = capsys.readouterr().out
    assert f'"max_deg": {MAX_DEGREE}' in doc
    report = verify_bounds(parse_system(at.read_text()).system)
    assert (report.d_reg, report.gbd, report.sd, report.lfd) == (1, 1, 1, 1)

    past = tmp_path / "past.txt"
    past.write_text(f"p=101; vars=x; x^{MAX_DEGREE + 1}; x\n")
    assert main(["analyze", str(past)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 18" in err and "largest supported degree" in err


def test_lcm_degree_past_the_limit_is_exact_and_only_products_raise():
    pack = Packing(2, "grevlex")
    a, b = pack.encode((MAX_DEGREE, 0)), pack.encode((0, MAX_DEGREE))
    assert pack.degree(pack.lcm(a, b)) == 2 * MAX_DEGREE
    assert pack.lcm(a, b) == a + b  # coprime: the product criterion still applies
    F = parse_system(f"p=101; vars=x,y; x^{MAX_DEGREE}; y^{MAX_DEGREE}; x^{MAX_DEGREE - 1}*y")
    with pytest.raises(DomainError):
        buchberger_reduced(F.system)
