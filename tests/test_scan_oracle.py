"""The sd scan against independent references over a seeded corpus.

The scan reads G and sd off the one climb of F (invariants._scan). Here G
is compared with Buchberger's basis, sd with the first degree at which a
closure built from scratch contains that basis, and Lfd with the closures'
dimensions against the ideal's; every rung of the climbs is also checked
to track the minimal pivots among its candidates.
"""

import itertools

import pytest

from soldeg import (
    GREVLEX,
    GRLEX,
    RandomSpec,
    buchberger_reduced,
    gen_fk,
    gen_random,
    ideal_dim_le,
    v_space_closure,
)
from soldeg.invariants import _rungs, _scan
from soldeg.rings import MAX_DEGREE
from soldeg.vspace import DEFAULT_MAX_ROWS, _climb

from helpers import mk

HAND = [
    "p=101; vars=x,y; x^2 + y; 3",  # a constant member
    "p=101; vars=x,y; x; x + 1",  # the unit ideal, from no constant member
    "p=101; vars=x; x; x^3 + x",  # sd = 1 < max deg F = 3
    "p=101; vars=x,y; x^2 + y; x*y + 1",  # rung 2 holds the inputs, no Groebner basis
    "p=101; vars=x,y; x^2; y^5",
    "p=101; vars=x,y; x*y",
    "p=101; vars=x,y; x^5 + y; y^5 + x; x*y",
    "p=3; vars=x,y,z; x^2 + y*z + 1; y^2 + x; z^2 + x*y + z",
    "p=3; vars=x,y; x^2 + y^2; x^3*y + x*y^3",
    "p=101; vars=x,y,z,w; x; 1; 1; 1",
    # at rung 1 a pivot divides each quadric's leading monomial, and the one
    # S-pair is coprime, but the quadrics leave a nonzero remainder in z
    "p=3; vars=x,y,z; 2*x + z; 2*x^2 + y^2 + y*z + z^2 + z + 2; x^2 + y^2 + y*z + z^2 + z;"
    " 2*y + z + 2",
]


def corpus():
    """(name, system): fk(k) for k = 2..30; n + 1 random members in n = 2, 3
    variables over GF(2), GF(3), GF(101), all of degree 2 or all of degree
    3, seeds 0-24; under-, well- and overdetermined quadrics in n = 3, 4;
    the hand inputs; and the pool's GF(2) system whose sd = Gbd = 7 lies
    past the Macaulay bound + 1 = 6."""
    for k in range(2, 31):
        yield f"fk{k}", gen_fk(k, 101)
    for n, p, b, seed in itertools.product((2, 3), (2, 3, 101), (2, 3), range(25)):
        spec = RandomSpec(seed=seed, n=n, k=n + 1, deg_bounds=(b,) * (n + 1), p=p)
        yield f"n{n}-p{p}-deg{b}-seed{seed}", gen_random(spec)
    for n, dk, p, seed in itertools.product((3, 4), (-1, 0, 1), (2, 101), range(5)):
        spec = RandomSpec(seed=seed, n=n, k=n + dk, deg_bounds=(2,) * (n + dk), p=p)
        yield f"n{n}-k{n + dk}-p{p}-seed{seed}", gen_random(spec)
    yield "n4-quadrics-p2", gen_random(
        RandomSpec(seed=3, n=4, k=3, deg_bounds=(2,) * 3, p=2, density=0.4))
    for i, text in enumerate(HAND):
        yield f"hand{i}", mk(text)


CORPUS = list(corpus())
ORDERS = [GREVLEX, GRLEX]


def test_the_corpus_covers_the_named_cases():
    systems = dict(CORPUS)
    G = buchberger_reduced(systems["n4-quadrics-p2"], GREVLEX)
    assert G.max_degree == 7  # and sd = 7 (below), one past Macaulay + 1 = 6
    assert buchberger_reduced(systems["hand1"]).is_unit_ideal


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
def test_the_scan_gives_buchbergers_basis_and_the_first_degree_that_holds_it(order):
    for name, F in CORPUS:
        G, sd, lfd, _, _ = _scan(F, order, MAX_DEGREE, _rungs(F, order))
        reference = buchberger_reduced(F, order)
        assert G.polys == reference.polys, name
        closures = {}
        for d in itertools.count(max(1, reference.max_degree)):
            closures[d] = V = v_space_closure(F, d, order)
            if all(V.span_contains(g) for g in reference):
                break
        assert sd == d, name
        falls = [e for e in range(1, sd + 1)
                 if (closures.get(e) or v_space_closure(F, e, order)).span_dim()
                 < ideal_dim_le(reference, e)]
        assert lfd == 1 + max(falls, default=0), name


def _minimal(pivots, pack):
    """The pivots no other pivot divides, by brute force: ascending, each
    kept unless a kept one, all smaller, divides it."""
    kept = []
    for m in sorted(pivots):
        if not any(pack.divides(k, m) for k in kept):
            kept.append(m)
    return set(kept)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
def test_the_climb_tracks_the_minimal_pivots_at_every_rung(order):
    """At each rung up to sd, the climb's candidates hold every pivot that no
    other pivot divides, and its minimal set is exactly those."""
    for name, F in CORPUS:
        sd = _scan(F, order, MAX_DEGREE, _rungs(F, order))[1]
        climb = _climb(F, sd, order, max_rows=DEFAULT_MAX_ROWS, trace=None)
        for e, V in enumerate(climb):
            minimal = _minimal(V._tails, V._pack)
            assert minimal <= set(V.candidates), (name, e)
            assert set(V._minimal_pivots()) == minimal, (name, e)

