import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    DomainError,
    GenerationError,
    ParseError,
    RandomSpec,
    SystemFile,
    degree_of_regularity,
    gen_fk,
    gen_random,
    parse_system,
    render_system,
    verify_bounds,
    render_report,
)
from soldeg.rings import Packing


# --- the optimal family -----------------------------------------------------


def test_fk_canonical_text():
    F = gen_fk(2, 101)
    assert parse_system("p=101; vars=x,y; order=grevlex; x^2+y; y^2+x; x*y").system == F


def test_fk_small_characteristic():
    F = gen_fk(5, 2)
    assert F.ring.p == 2
    assert [f.render() for f in F] == ["x^5 + y", "y^5 + x", "x*y"]


def test_fk_rejects_k_below_two():
    with pytest.raises(DomainError):
        gen_fk(1, 101)


# --- random generator ---------------------------------------------------------


GOLDEN = (
    "p=101; vars=x1,x2; order=grevlex;\n"
    "4*x1^2 + 32*x1*x2 + 95*x2^2 + 95*x1 + 55;\n"
    "12*x1^2 + 65*x1*x2 + 72*x2^2 + 84*x1 + 54*x2 + 76;\n"
    "x1^2 + 55*x2^2 + 20*x1 + 98*x2 + 12;\n"
)


def test_generator_is_deterministic():
    spec = RandomSpec(seed=42, n=2, k=3, deg_bounds=(2, 2, 2), density=0.75, p=101)
    first = gen_random(spec)
    second = gen_random(spec)
    assert first == second
    assert render_system(SystemFile(first.ring, GREVLEX, first)) == GOLDEN


def test_full_density_linear_system_has_regularity_one():
    spec = RandomSpec(seed=1, n=2, k=2, deg_bounds=(1, 1), density=1.0, p=101)
    F = gen_random(spec)
    assert F.degrees() == (1, 1)
    assert degree_of_regularity(F) == 1  # tops are full rank for this seed


def test_generator_respects_degree_bounds():
    spec = RandomSpec(seed=9, n=3, k=4, deg_bounds=(1, 2, 3, 2), density=0.9, p=3)
    F = gen_random(spec)
    assert all(f.degree <= b for f, b in zip(F, (1, 2, 3, 2)))


def test_generation_error_on_impossible_constraint():
    # k < n never reaches a finite regularity degree
    spec = RandomSpec(
        seed=0, n=2, k=1, deg_bounds=(2,), p=101, require_hypothesis=True, retry_limit=0
    )
    with pytest.raises(GenerationError):
        gen_random(spec)


def test_oversized_spec_is_refused_before_enumerating(monkeypatch):
    def enumerate_nothing(self, d):
        raise AssertionError("monomials were enumerated")

    monkeypatch.setattr(Packing, "monomials", enumerate_nothing)
    RandomSpec(seed=1, n=16, k=1, deg_bounds=(8,))  # C(24, 16) = 735471 is within the limit
    with pytest.raises(DomainError, match="2042975 candidate monomials"):
        gen_random(RandomSpec(seed=1, n=16, k=2, deg_bounds=(1, 9)))  # C(25, 16)


def test_a_density_that_would_redraw_without_end_is_refused():
    # C(2, 1) = 2 candidates: a nonzero draw takes about 1 / (2 * density) tries
    with pytest.raises(DomainError, match="density 1e-300 is too small"):
        RandomSpec(seed=1, n=1, k=1, deg_bounds=(1,), density=1e-300)
    with pytest.raises(DomainError, match="degree bound 1 "):
        RandomSpec(seed=1, n=1, k=2, deg_bounds=(4, 1), density=4e-7)
    RandomSpec(seed=1, n=1, k=2, deg_bounds=(4, 1), density=6e-7)


def test_hypothesis_constraint_is_enforced():
    spec = RandomSpec(
        seed=3, n=2, k=3, deg_bounds=(2, 2, 2), density=0.6, p=3,
        require_hypothesis=True,
    )
    F = gen_random(spec)
    d = degree_of_regularity(F)
    assert isinstance(d, int) and F.max_degree() <= d


def test_spec_validation():
    with pytest.raises(DomainError):
        RandomSpec(seed=0, n=2, k=2, deg_bounds=(1,), p=101)
    with pytest.raises(DomainError):
        RandomSpec(seed=0, n=2, k=1, deg_bounds=(1,), density=0.0, p=101)
    with pytest.raises(DomainError):
        RandomSpec(seed=0, n=2, k=1, deg_bounds=(0,), p=101)


@pytest.mark.parametrize("fields, message", [
    ({"k": 0, "deg_bounds": ()}, "need at least one polynomial"),
    ({"retry_limit": -1}, "retry limit must be non-negative"),
    # fields that are not ints (a bool is not one) are refused before any is used
    ({"n": 2.5}, "n must be an int, got 2.5"),
    ({"deg_bounds": (2.0,)}, "degree bound must be an int, got 2.0"),
    ({"retry_limit": 1.5, "require_hypothesis": True}, "retry_limit must be an int, got 1.5"),
    ({"n": True}, "n must be an int, got True"),
    ({"k": 1.0}, "k must be an int, got 1.0"),
    ({"seed": 1.0}, "seed must be an int, got 1.0"),
    ({"seed": "1"}, "seed must be an int, got '1'"),
    # a density must be a number, and a string or a bool is not one
    ({"density": "0.5"}, "density must be a number, got '0.5'"),
    ({"density": True}, "density must be a number, got True"),
    # a truthy string would otherwise turn on rejection sampling
    ({"require_hypothesis": "no"}, "require_hypothesis must be a bool, got 'no'"),
])
def test_spec_refuses_each_bad_field(fields, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        RandomSpec(**{"seed": 0, "n": 2, "k": 1, "deg_bounds": (1,), "p": 101, **fields})


# --- parser ----------------------------------------------------------------------


def test_parse_canonical_example():
    sf = parse_system("p=101; vars=x,y; order=grevlex; x^2+y; y^2+x; x*y")
    assert sf.ring.p == 101
    assert sf.ring.names == ("x", "y")
    assert sf.order == GREVLEX
    assert len(sf.system) == 3


def test_parse_reports_non_prime_modulus():
    with pytest.raises(ParseError) as err:
        parse_system("p=4; vars=x; x")
    assert "not prime" in str(err.value)
    assert err.value.line == 1


def test_parse_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_system("p=101; vars=x,y;\nx^2 + z;")
    assert "unknown variable 'z'" in str(err.value)
    assert err.value.line == 2
    assert err.value.col > 1


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("p=101; vars=x,y;\nx^2 + ;")
    assert err.value.line == 2


# (statement, column, message) under "p=101; vars=x,y; ", which ends at column 17
MALFORMED = [
    ("x\u00b2", 19, "unexpected character '\u00b2'"),
    ("*x\u00b2", 20, "unexpected character '\u00b2'"),
    ("*x", 18, "'*' needs a left factor"),
    ("x + *y", 22, "'*' needs a left factor"),
    ("x*", 20, "dangling '*'"),
    ("x**y", 20, "expected a factor, got '*'"),
    ("x*+y", 20, "expected a factor, got '+'"),
    ("x^2^3", 21, "expected a factor, got '^'"),
    ("2^3", 19, "expected a factor, got '^'"),
    ("2* ^07y10", 21, "expected a factor, got '^'"),
    ("x^", 18, "'^' needs an integer exponent"),
    ("x^y", 20, "'^' needs an integer exponent"),
    ("x ^ -1", 22, "'^' needs an integer exponent"),
    ("x +", 21, "empty term"),
    ("-", 19, "empty term"),
    ("x + -y", 22, "empty term"),
    ("z", 18, "unknown variable 'z'"),
    ("xy^2", 18, "unknown variable 'xy'"),
    ("7" * 5000, 18, "coefficient with 5000 digits is too long"),
    ("x^40000", 20, "exponent above the largest supported degree 32767"),
    ("x^000032768", 20, "exponent above the largest supported degree 32767"),
    ("x^32767*x", 26, "term degree above the largest supported degree 32767"),
    ("x - x", 18, "polynomial is zero"),
]


@pytest.mark.parametrize(
    "stmt, col, message", MALFORMED, ids=[f"{m[2]} {m[0][:12]!r}" for m in MALFORMED]
)
def test_malformed_statement_position_and_message(stmt, col, message):
    with pytest.raises(ParseError) as err:
        parse_system("p=101; vars=x,y; " + stmt)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value) == f"line 1, column {col}: {message}"


def test_digits_are_ascii():
    # int() reads an Arabic-Indic digit; the grammar, like p=, takes 0-9 only
    for text, col, char in (("\u0661x + 3", 18, "\u0661"), ("x^\u0663", 20, "\u0663")):
        with pytest.raises(ParseError) as err:
            parse_system("p=101; vars=x,y; " + text)
        assert str(err.value) == f"line 1, column {col}: unexpected character {char!r}"


def test_parse_rejects_zero_polynomial():
    with pytest.raises(ParseError) as err:
        parse_system("p=7; vars=x; 7")
    assert "zero" in str(err.value)


def test_parse_comments_blank_lines_default_order():
    text = """
    # a comment
    p=13; vars=u,v    # trailing comment

    u^2 + 3*v; v - 1
    """
    sf = parse_system(text)
    assert sf.order == GREVLEX
    assert len(sf.system) == 2


def test_parse_header_rules():
    with pytest.raises(ParseError):
        parse_system("p=7; p=7; vars=x; x")
    with pytest.raises(ParseError):
        parse_system("vars=x; x; p=7")  # header after a polynomial
    with pytest.raises(ParseError):
        parse_system("p=7; x")  # missing vars
    with pytest.raises(ParseError):
        parse_system("p=7; vars=x")  # no polynomials
    with pytest.raises(ParseError):
        parse_system("p=7; vars=order; order")  # reserved name


def test_parse_signs_and_implicit_products():
    sf = parse_system("p=101; vars=x,y; -x + 2y - 3; 5x^2y")
    f, g = sf.system
    assert f.render() == "100*x + 2*y + 98"
    assert g.render() == "5*x^2*y"


def test_parse_rejects_lex_order():
    with pytest.raises(ParseError):
        parse_system("p=101; vars=x; order=lex; x")


def test_roundtrip_fk():
    for k in (2, 4):
        for order in (GREVLEX, GRLEX):
            F = gen_fk(k, 101)
            sf = SystemFile(F.ring, order, F)
            again = parse_system(render_system(sf))
            assert again.system == F
            assert again.order == order
            assert again.ring == F.ring


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 3),
    k=st.integers(1, 4),
    p=st.sampled_from([2, 3, 101]),
    density=st.floats(0.3, 1.0),
)
def test_roundtrip_random_systems(seed, n, k, p, density):
    spec = RandomSpec(seed=seed, n=n, k=k, deg_bounds=(2,) * k, density=density, p=p)
    F = gen_random(spec)
    sf = SystemFile(F.ring, GREVLEX, F)
    assert parse_system(render_system(sf)).system == F


def test_report_rendering_contains_family_values():
    text = render_report(verify_bounds(gen_fk(2, 101)))
    assert '"sd": 3' in text and '"d_reg": 2' in text
