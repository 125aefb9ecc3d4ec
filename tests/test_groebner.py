import heapq
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldeg import (
    GREVLEX,
    GRLEX,
    MAX_DEGREE,
    CapExceeded,
    DimensionError,
    DomainError,
    InconsistencyError,
    Polynomial,
    PreconditionError,
    Ring,
    buchberger_reduced,
    gbd,
    gen_fk,
    gen_random,
    ideal_dim_le,
    interreduce_tops,
    mutantxl_gb,
    normal_form,
    RandomSpec,
)
from soldeg.groebner import (_is_basis, _monic, _nf, _reduced_basis, _spoly, check_basis,
                             ideal_dims)

from helpers import mk


# --- normal form ---------------------------------------------------------------


def test_normal_form_of_ideal_member_is_zero():
    F = gen_fk(2, 101)
    G = buchberger_reduced(F)
    assert normal_form(F[0], G).is_zero


def test_normal_form_without_divisibility():
    G = buchberger_reduced(mk("p=101; vars=x,y; x^2"))
    f = mk("p=101; vars=x,y; x + 1")[0]
    assert normal_form(f, G) == f


def test_normal_form_of_monomial_multiple():
    G = buchberger_reduced(mk("p=101; vars=x,y; x*y"))
    f = mk("p=101; vars=x,y; x^2*y")[0]
    assert normal_form(f, G).is_zero


def test_normal_form_refuses_a_polynomial_of_another_ring():
    G = buchberger_reduced(mk("p=101; vars=x,y; x^2 + y; x*y"))
    f = mk("p=7; vars=x,y,z; x^2 + 5")[0]
    with pytest.raises(DimensionError):
        normal_form(f, G)


def test_normal_form_never_raises_degree():
    spec = RandomSpec(seed=5, n=2, k=2, deg_bounds=(2, 2), density=0.7, p=101)
    F = gen_random(spec)
    G = buchberger_reduced(F)
    for f in F:
        r = normal_form(f * F.ring.variable(0) + F.ring.one(), G)
        if not r.is_zero:
            assert r.degree <= 3


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_kills_products_with_basis_elements(seed):
    spec = RandomSpec(seed=seed, n=2, k=3, deg_bounds=(2, 2, 2), density=0.7, p=101)
    F = gen_random(spec)
    G = buchberger_reduced(F)
    f = gen_random(RandomSpec(seed=seed + 50, n=2, k=1, deg_bounds=(3,), p=101))[0]
    for g in G:
        assert normal_form(f * g, G).is_zero


# --- buchberger ------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_family_basis_is_the_two_variables(k, order):
    F = gen_fk(k, 101)
    G = buchberger_reduced(F, order)
    x, y = F.ring.variables()
    assert G.polys == (x, y)


def test_monomial_generators_are_their_own_basis():
    F = mk("p=101; vars=x,y; x^2; y^2")
    G = buchberger_reduced(F)
    assert [g.render() for g in G] == ["x^2", "y^2"]


def test_single_generator_is_normalized():
    F = mk("p=7; vars=x; 3*x - 3")
    G = buchberger_reduced(F)
    assert [g.render() for g in G] == ["x + 6"]


def test_unit_ideal_short_circuit():
    F = mk("p=101; vars=x,y; x; x + 1")
    G = buchberger_reduced(F)
    assert G.is_unit_ideal
    assert [g.render() for g in G] == ["1"]


def test_buchberger_interreduces_tails():
    # (x^2 + y, y) has reduced basis {x^2, y}
    F = mk("p=101; vars=x,y; x^2 + y; y")
    G = buchberger_reduced(F)
    assert [g.render() for g in G] == ["x^2", "y"]


def test_buchberger_refuses_generators_of_several_rings():
    F = [mk("p=101; vars=x,y; x^2 + y")[0], mk("p=7; vars=x,y,z; x*z + 5")[0]]
    with pytest.raises(DimensionError):
        buchberger_reduced(F)


def test_buchberger_refuses_an_empty_or_all_zero_family():
    with pytest.raises(DomainError, match="empty family"):
        buchberger_reduced([])
    zero = Ring(101, ("x", "y")).zero()
    with pytest.raises(DomainError, match="all-zero generators"):
        buchberger_reduced([zero, zero])


def test_buchberger_cap():
    F = gen_fk(5, 101)
    with pytest.raises(CapExceeded):
        buchberger_reduced(F, max_pairs=1)


@pytest.mark.parametrize("max_pairs, message", [
    (0, "max_pairs must be at least 1, got 0"),
    (1.5, "max_pairs must be an int, got 1.5"),
    (True, "max_pairs must be an int, got True"),
], ids=["zero", "float", "bool"])
def test_buchberger_refuses_a_pair_cap_that_is_no_positive_int(max_pairs, message):
    # refused before any work: an empty family would be refused next
    with pytest.raises(DomainError, match=re.escape(message)):
        buchberger_reduced([], max_pairs=max_pairs)


UPDATE_SHAPES = [(2, (2, 2)), (2, (3, 2, 2)), (3, (2, 2)), (3, (2, 2, 2)), (3, (3, 2, 1)),
                 (3, (2, 2, 2, 2)), (4, (2, 2, 2, 2, 2))]


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_pair_update_gives_the_basis_of_plain_buchberger(p, order):
    """The product and chain criteria skip pairs, never the answer: on 40
    seeds per shape, 10 for n = 4, the reduced basis equals that of
    Buchberger over every pair."""
    for seed, (n, degs) in itertools.product(range(40), UPDATE_SHAPES):
        if n == 4 and seed >= 10:  # all pairs cost most at n = 4; 10 seeds keep it short
            continue
        F = gen_random(RandomSpec(seed=seed, n=n, k=len(degs), deg_bounds=degs, density=0.6, p=p))
        pack = F.ring.packing(order)
        polys = [_monic(dict(f._packed(pack)), p) for f in F if not f.is_zero]
        plain = _reduced_basis(F.ring, _plain_buchberger(polys, pack, p), order)
        check_basis(plain)
        assert buchberger_reduced(F, order).polys == plain.polys, (seed, n, degs)


def test_pair_update_pins_the_pairs_of_a_dense_system():
    # 29 S-polynomials with the chain criterion; the product criterion alone leaves 56
    F = gen_random(RandomSpec(seed=1, n=4, k=4, deg_bounds=(2,) * 4, density=1.0, p=101))
    G = buchberger_reduced(F, max_pairs=29)
    assert not G.is_unit_ideal
    with pytest.raises(CapExceeded) as err:
        buchberger_reduced(F, max_pairs=28)
    details = err.value.details
    assert details["pairs_popped"] == 28 and details["pairs_pending"] >= 1
    assert details["basis_size"] >= len(F)
    assert set(details["pairs_skipped"]) == {"product", "chain"}


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_the_chain_criterion_skips_one_of_three_pairs_of_equal_lcm(order, monkeypatch):
    # every lcm is x*y*z, so the strict chain criterion skips none; the
    # loop skips the third pair popped, as the other two went before it
    from soldeg import groebner

    F = mk("p=101; vars=x,y,z; x*y; x*z; y*z")
    calls = []
    spoly = groebner._spoly
    monkeypatch.setattr(groebner, "_spoly", lambda *a: calls.append(1) or spoly(*a))
    G = buchberger_reduced(F, order, check=False)
    assert [g.render() for g in G] == ["x*y", "x*z", "y*z"]
    assert len(calls) == 2


def test_product_criterion_s_pairs_still_verified():
    # the post-hoc check skips coprime pairs; every S-polynomial of the
    # result, coprime pairs included, still reduces to zero
    F = mk("p=101; vars=x,y,z; x*y - z; y*z - x; x*z - y")
    G = buchberger_reduced(F)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            li = G[i].leading_monomial(GREVLEX)
            lj = G[j].leading_monomial(GREVLEX)
            l = tuple(map(max, li, lj))
            qi = tuple(a - b for a, b in zip(l, li))
            qj = tuple(a - b for a, b in zip(l, lj))
            s = G[i].mul_monomial(qi) - G[j].mul_monomial(qj)
            assert normal_form(s, G).is_zero


def _all_pairs_reject(reduced, pack, p):
    """Whether some S-polynomial of the monic set leaves a nonzero remainder,
    every pair tried."""
    return any(
        _nf(_spoly(f, g, pack, p), reduced, pack, p) for f, g in itertools.combinations(reduced, 2)
    )


def _packed_basis(G, pack):
    return [(max(t), t) for t in (dict(g._packed(pack)) for g in G.polys)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 101]), order=st.sampled_from([GREVLEX, GRLEX]), data=st.data())
def test_post_check_rejects_exactly_when_the_full_check_does(p, order, data):
    """The post-hoc check, which skips pairs with coprime leading monomials
    and pairs the strict chain criterion covers, rejects a random monic set
    exactly when checking every pair does; with the chain criterion left
    out it rejects the same sets."""
    ring = Ring(p, ("x", "y", "z"))
    pack = ring.packing(order)
    mons = [m for m in itertools.product(range(4), repeat=3) if 0 < sum(m) <= 3]
    terms = st.dictionaries(st.sampled_from(mons), st.integers(1, p - 1), min_size=1, max_size=3)
    polys = [
        _monic(dict(Polynomial(ring, t)._packed(pack)), p)
        for t in data.draw(st.lists(terms, min_size=2, max_size=6))
    ]
    G = _reduced_basis(ring, polys, order)
    reduced = _packed_basis(G, pack)
    full_rejects = _all_pairs_reject(reduced, pack, p)
    try:
        check_basis(G)
        pruned_rejects = False
    except InconsistencyError:
        pruned_rejects = True
    assert pruned_rejects == full_rejects


def test_chain_criterion_skips_a_pair_whose_lcm_another_leading_monomial_splits(monkeypatch):
    # lm x*z divides lcm(x^2*y, y*z^2) = x^2*y*z^2, and its lcms with both
    # are proper divisors of it: of the three pairs, only two are reduced
    from soldeg import groebner

    ring = Ring(101, ("x", "y", "z"))
    pack = ring.packing(GREVLEX)
    x, y, z = ring.variables()
    lms = [_monic(dict(f._packed(pack)), 101) for f in (x * x * y, y * z * z, x * z)]
    G = _reduced_basis(ring, lms, GREVLEX)
    calls = []
    nf = groebner._nf
    monkeypatch.setattr(groebner, "_nf", lambda *a: calls.append(1) or nf(*a))
    check_basis(G)
    assert len(calls) == 2


def _plain_buchberger(polys, pack, p, steps=None):
    """Monic pairs closed under S-polynomials: every pair, lowest lcm first,
    no criterion. Stops after `steps` S-polynomials when given."""
    G = list(polys)
    heap = [(pack.lcm(f[0], g[0]), i, j)
            for (i, f), (j, g) in itertools.combinations(enumerate(G), 2)]
    heapq.heapify(heap)
    done = 0
    while heap and done != steps:
        done += 1
        _, i, j = heapq.heappop(heap)
        r = _nf(_spoly(G[i], G[j], pack, p), G, pack, p)
        if r:
            f = _monic(r, p)
            for k, g in enumerate(G):
                heapq.heappush(heap, (pack.lcm(g[0], f[0]), k, len(G)))
            G.append(f)
    return G


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 101]), order=st.sampled_from([GREVLEX, GRLEX]), data=st.data())
def test_a_rung_check_rejects_exactly_when_the_full_check_does(p, order, data):
    """G_e, the fully reduced rows of V(F, e) at its minimal pivots: at each
    rung e up to sd, checking only its pairs of lcm degree > e rejects it
    exactly when checking every pair, with no criterion, does. Below sd it
    is often not yet a Groebner basis, so both answers occur."""
    from soldeg import PolySystem, solving_degree
    from soldeg.vspace import _climb

    ring = Ring(p, ("x", "y", "z")[: data.draw(st.integers(2, 3))])
    n = ring.nvars
    mons = [m for m in itertools.product(range(4), repeat=n) if sum(m) <= 3]
    terms = st.dictionaries(st.sampled_from(mons), st.integers(1, p - 1), min_size=2, max_size=5)
    members = data.draw(st.lists(terms, min_size=2, max_size=4))
    F = PolySystem(ring, [Polynomial(ring, t) for t in members])
    pack = ring.packing(order)
    for e, V in enumerate(_climb(F, solving_degree(F, order), order, max_rows=10**5, trace=None)):
        rows = V._minimal_rows()
        assert _is_basis(rows, pack, p, low=e) != _all_pairs_reject(rows, pack, p)


def test_gbd_examples():
    assert gbd(gen_fk(3, 101)) == 1
    assert gbd(mk("p=101; vars=x,y; x^2; y^2")) == 2
    assert gbd(mk("p=101; vars=x; x^3 - x")) == 3


# --- bounded ideal dimension -----------------------------------------------------


def test_ideal_dim_le_examples():
    G = buchberger_reduced(mk("p=101; vars=x,y; x; y"))
    assert ideal_dim_le(G, 1) == 2
    assert ideal_dim_le(G, 2) == 5
    H = buchberger_reduced(mk("p=101; vars=x,y; x^2; y^2"))
    assert ideal_dim_le(H, 2) == 2


def test_ideal_dims_count_divisible_exponent_tuples_per_degree():
    from soldeg.groebner import ideal_dims

    for F in (gen_fk(5, 101), mk("p=3; vars=x,y,z; x^2*y + z; y^3 - x; z^2 + x*y")):
        n = F.ring.nvars
        for order in (GREVLEX, GRLEX):
            G = buchberger_reduced(F, order)
            lms = [g.leading_monomial(order) for g in G]
            expected = [
                sum(1 for m in itertools.product(range(d + 1), repeat=n)
                    if sum(m) <= d and any(all(map(int.__ge__, m, lm)) for lm in lms))
                for d in range(8)
            ]
            assert ideal_dims(G, 7) == expected
            assert ideal_dim_le(G, 7) == expected[-1] and ideal_dim_le(G, -1) == 0


def test_ideal_dim_le_monotone_and_zero_below_min_degree():
    G = buchberger_reduced(mk("p=101; vars=x,y; x^2 + y^2; x*y"))
    dims = [ideal_dim_le(G, e) for e in range(0, 6)]
    assert dims == sorted(dims)
    min_deg = min(g.degree for g in G)
    for e in range(min_deg):
        assert ideal_dim_le(G, e) == 0


def test_ideal_dim_le_unit_ideal_counts_everything():
    G = buchberger_reduced(mk("p=101; vars=x,y; 5"))
    assert ideal_dim_le(G, 3) == math.comb(2 + 3, 2)


# --- mutant elimination -----------------------------------------------------------


def test_mutant_family_matches_and_respects_step_bound():
    F = gen_fk(2, 101)
    G, V = mutantxl_gb(F)
    x, y = F.ring.variables()
    assert G.polys == (x, y)
    assert V.d == 3
    N = math.comb(2 + 3, 2)
    assert V.stats.insertions <= N**2
    assert V.stats.adoptions <= N**2


def test_mutant_on_monomial_system():
    F = mk("p=101; vars=x,y; x^2; y^2")
    G, V = mutantxl_gb(F)
    assert [g.render() for g in G] == ["x^2", "y^2"]
    assert V.d == 4


def test_mutant_single_variable():
    F = mk("p=101; vars=x; x")
    G, _ = mutantxl_gb(F)
    assert [g.render() for g in G] == ["x"]


def test_mutant_detects_unit_ideal():
    F = mk("p=101; vars=x; x; x + 1")
    G, _ = mutantxl_gb(F)
    assert G.is_unit_ideal


def test_mutant_refuses_violated_hypothesis():
    with pytest.raises(PreconditionError):
        mutantxl_gb(mk("p=101; vars=x,y; x; y; x^5"))  # max deg 5 > d_reg 1
    with pytest.raises(PreconditionError):
        mutantxl_gb(mk("p=101; vars=x,y; x*y"))  # infinite regularity degree


def _hypothesis_instances(count, seed0):
    """Systems satisfying the degree hypothesis after leading-term interreduction."""
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        n = 2 if seed % 3 else 3
        k = n + seed % 2
        spec = RandomSpec(
            seed=seed, n=n, k=k, deg_bounds=(2,) * k, density=0.8,
            p=(2, 3, 101)[seed % 3],
        )
        F = interreduce_tops(gen_random(spec))
        from soldeg import degree_of_regularity

        d = degree_of_regularity(F)
        if isinstance(d, int) and F.max_degree() <= d:
            out.append((F, d))
    return out


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_mutant_agrees_with_buchberger_on_random_systems(order):
    for F, d in _hypothesis_instances(20, 9000):
        G1, V = mutantxl_gb(F, order)
        G2 = buchberger_reduced(F, order)
        assert G1.polys == G2.polys
        assert V.d == d + 1
        N = math.comb(F.ring.nvars + d + 1, F.ring.nvars)
        assert V.stats.adoptions <= N**2


def _brute_ideal_dim_le(G, e):
    """Monomials of degree <= e divisible by a leading monomial, counted on
    plain exponent tuples."""
    n = G.polys[0].ring.nvars
    lms = [g.leading_monomial(G.order) for g in G.polys]
    return sum(
        1
        for exps in itertools.product(range(e + 1), repeat=n)
        if sum(exps) <= e and any(all(a <= b for a, b in zip(l, exps)) for l in lms)
    )


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_ideal_dim_le_matches_a_brute_force_count(order):
    for F, _ in _hypothesis_instances(8, 9000):
        G = buchberger_reduced(F, order)
        assert [ideal_dim_le(G, e) for e in range(9)] == [
            _brute_ideal_dim_le(G, e) for e in range(9)
        ]


# ideal_dims walks the standard monomials, those no leading monomial divides,
# so it differs most from a count of the divisible ones where the standard
# monomials are many (positive-dimensional ideals), none (the unit ideal), a
# chain (one variable), spread over more variables (n = 4), or all of those
# below the least degree of a leading monomial, where the walk starts
IDEAL_DIMS_CASES = [
    "p=101; vars=x,y; x*y",
    "p=101; vars=x,y,z; x^2 + y*z; y^2 + x",
    "p=3; vars=x,y,z,w; x*y + z^2; w^3 + x",
    "p=101; vars=x,y,z; x + 1; y",
    "p=101; vars=x,y; 5",
    "p=101; vars=x,y,z; x*y - 1; x",
    "p=101; vars=x; x^3 - x",
    "p=7; vars=x; x^5 + 2; x^6 + 2*x",
    "p=101; vars=x,y,z,w; x^2*y; y^3; z*w^2; w^4 + x",
    "p=101; vars=x,y,z; x^6*y; y^7; z^9 + x",
    "p=101; vars=x,y; x^13; y^14",
]


@pytest.mark.parametrize("order", [GREVLEX, GRLEX])
def test_ideal_dims_match_a_brute_force_count_over_standard_monomials(order):
    systems = [mk(text) for text in IDEAL_DIMS_CASES]
    # the benchmark's infinite-d_reg slot n4-quadrics-p2, a zero-dimensional
    # n = 4 system (k = n) and a unit one (k > n)
    systems += [gen_random(RandomSpec(seed=3, n=4, k=3, deg_bounds=(2,) * 3, p=2, density=0.4))]
    systems += [gen_random(RandomSpec(seed=1, n=4, k=k, deg_bounds=(2,) * k, p=101, density=0.6))
                for k in (4, 5)]
    for F in systems:
        G = buchberger_reduced(F, order)
        assert ideal_dims(G, 12) == [_brute_ideal_dim_le(G, e) for e in range(13)]


def test_ideal_dims_refuse_a_degree_past_the_largest_supported_one():
    G = buchberger_reduced(mk("p=101; vars=x,y; x; y"))
    with pytest.raises(DomainError, match=f"degree {MAX_DEGREE + 1} exceeds"):
        ideal_dims(G, MAX_DEGREE + 1)


@pytest.mark.parametrize("e", [2.0, True, -1.5])
def test_ideal_dims_refuse_a_degree_that_is_not_an_int(e):
    G = buchberger_reduced(mk("p=101; vars=x,y; x; y"))
    for count in (ideal_dims, ideal_dim_le):
        with pytest.raises(DomainError, match="degree must be an int"):
            count(G, e)


def test_ideal_dims_start_at_the_least_degree_of_a_leading_monomial():
    # no monomial of degree < 20000 lies in the ideal, so the walk starts from
    # the 20,000 monomials of degree 19999, not from 1 through every degree
    G = buchberger_reduced(mk("p=101; vars=x,y; x^20000; y^20000"))
    dims = ideal_dims(G, 20001)
    assert dims[:20000] == [0] * 20000 and dims[20000:] == [2, 2 + 4]
    assert ideal_dims(G, 5) == [0] * 6


def test_ideal_dims_of_the_maximal_ideal_leave_only_the_unit_standard():
    G = buchberger_reduced(mk("p=101; vars=x,y; x; y"))
    assert ideal_dims(G, 3000) == [math.comb(d + 2, 2) - 1 for d in range(3001)]
