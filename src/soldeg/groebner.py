"""Ground truth for ideal computations: Buchberger with full reduction, the
Groebner basis check, normal forms, and bounded ideal dimension counts. The
module stands on rings alone. The sd scan and mutantxl_gb (invariants) read
the reduced basis off a closure, the scan testing each candidate with
_is_basis; Buchberger is the oracle they are tested against, and the source
of the basis when a cap stops the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import CapExceeded, DimensionError, DomainError, InconsistencyError
from .rings import GREVLEX, Packing, Polynomial, TermOrder, _check_cap, _check_int

DEFAULT_MAX_PAIRS = 200_000


@dataclass(frozen=True)
class GroebnerBasis:
    """The unique reduced Groebner basis of an ideal: monic elements,
    pairwise non-dividing leading terms, fully inter-reduced, sorted by
    descending leading monomial."""

    polys: tuple[Polynomial, ...]
    order: TermOrder

    @property
    def max_degree(self) -> int:
        return max(g._degree for g in self.polys)

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0]._degree == 0

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]


# Inside this module a monic polynomial is a pair (leading monomial, terms),
# both packed under the order's packing (see rings.Packing).


def _monic(terms: dict[int, int], p: int) -> tuple[int, dict[int, int]]:
    lead = max(terms)
    lc = terms[lead]
    if lc != 1:
        inv = pow(lc, -1, p)
        terms = {m: c * inv % p for m, c in terms.items()}
    return lead, terms


def _nf(terms: dict[int, int], divisors, pack: Packing, p: int) -> dict[int, int]:
    """Full multivariate division remainder of `terms` by monic divisors.

    No term of the result is divisible by any divisor's leading monomial;
    the degree never grows because the order is degree-compatible. Work
    monomials leave a max-heap largest first; every term a step subtracts
    lies below the monomial it eliminates, so a popped monomial never comes
    back, and an entry whose monomial has left `work` is skipped.
    """
    s, g = pack.sign, pack.guard
    # lm divides m iff (s*m + g - s*lm) keeps every guard bit (Packing.divides)
    divs = [(g - s * lm, lm, t) for lm, t in divisors]
    work = dict(terms)
    heap = [-m for m in work]
    heapify(heap)
    rem: dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:  # cancelled, or a duplicate entry already handled
            continue
        sm = s * m
        for glm, lm, t in divs:
            if (sm + glm) & g == g:
                q = m - lm
                for mm, cc in t.items():
                    if mm == lm:
                        continue
                    qm = mm + q
                    v = work.get(qm)
                    if v is None:
                        work[qm] = -c * cc % p
                        heappush(heap, -qm)
                    elif v := (v - c * cc) % p:
                        work[qm] = v
                    else:
                        del work[qm]
                break
        else:
            rem[m] = c
    return rem


def _spoly(f, g, pack: Packing, p: int) -> dict[int, int]:
    (lf, tf), (lg, tg) = f, g
    l = pack.lcm(lf, lg)
    pack.check(pack.degree(l))  # the S-polynomial has degree deg(l)
    qf, qg = l - lf, l - lg
    res = {m + qf: c for m, c in tf.items()}
    for m, c in tg.items():
        m += qg
        v = (res.get(m, 0) - c) % p
        if v:
            res[m] = v
        else:
            del res[m]
    return res


def _minimalize(polys: list, pack: Packing) -> list:
    """Keep only polynomials whose leading monomial no other kept one divides."""
    kept: list = []
    for f in sorted(polys, key=lambda f: f[0]):
        if not any(pack.divides(l, f[0]) for l, _ in kept):
            kept.append(f)
    return kept


def _interreduce(polys: list, pack: Packing, p: int) -> list:
    """Tail-reduce each monic element against the others, in place.

    Assumes pairwise non-dividing leading monomials in ascending order (as
    _minimalize leaves them). A tail term of element i lies below lm_i, so
    no later element's leading monomial, which lies above lm_i, divides it:
    reducing against the earlier elements alone is enough, and they are
    already final. None of their leading monomials divides lm_i, so the
    leading term survives with coefficient 1 and the element stays monic.
    """
    for i in range(len(polys)):
        polys[i] = (polys[i][0], _nf(polys[i][1], polys[:i], pack, p))
    return polys


def _reduced_basis(ring, polys: list, order: TermOrder) -> GroebnerBasis:
    """The reduced basis of a Groebner basis given as monic pairs, sorted by
    descending leading monomial, unchecked (check_basis verifies it)."""
    pack, p = ring.packing(order), ring.p
    reduced = _interreduce(_minimalize(polys, pack), pack, p)
    reduced.sort(key=lambda f: f[0], reverse=True)
    return GroebnerBasis(tuple(Polynomial._from_packed(ring, pack, t) for _, t in reduced), order)


def check_basis(G: GroebnerBasis) -> None:
    """Raise InconsistencyError unless the reduced basis G is a Groebner
    basis (see _is_basis)."""
    ring = G.polys[0].ring
    pack = ring.packing(G.order)
    if not _is_basis([(max(t), t) for t in (g._packed(pack) for g in G.polys)], pack, ring.p):
        raise InconsistencyError("S-polynomial does not reduce to zero")


def _is_basis(reduced: list, pack: Packing, p: int, low: int = 0) -> bool:
    """Whether the monic pairs `reduced`, with pairwise non-dividing leading
    monomials, form a Groebner basis, taking every S-pair whose lcm has
    degree <= `low` as already proved to reduce to zero (see
    invariants.verify_bounds for the proof the closure gives).

    A pair (i, j) is also skipped when lm_i and lm_j are coprime (product
    criterion), or when some k not in {i, j} has lm_k | lcm_ij with
    lcm_ik != lcm_ij and lcm_jk != lcm_ij (strict chain criterion). Every
    other S-polynomial must leave remainder zero; the first that does not
    ends the check.

    Why that is still a proof. G is a Groebner basis iff every S_ij has a
    standard representation, a sum of multiples h*g_k with lm(h*g_k) <
    lcm_ij (Becker and Weispfenning, Groebner Bases, Thm 5.64). A remainder
    of zero gives one, and so does a coprime pair. For a chain skip, lcm_ik
    and lcm_jk are proper divisors of lcm_ij and S_ij = (lcm_ij/lcm_ik)*S_ik
    - (lcm_ij/lcm_jk)*S_jk, so representations of S_ik and S_jk below their
    lcms give one of S_ij below lcm_ij. Each skip rests only on pairs of
    strictly smaller lcm, and the term order is a well-order, so induction
    over the lcm covers every pair even with all skips applied at once.
    """
    lms = [l for l, _ in reduced]
    n = len(lms)
    lcm = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lcm[i][j] = lcm[j][i] = pack.lcm(lms[i], lms[j])
    for i in range(n):
        for j in range(i + 1, n):
            l = lcm[i][j]
            if l == lms[i] + lms[j] or pack.degree(l) <= low:
                continue
            if any(k != i and k != j and lcm[i][k] != l and lcm[j][k] != l
                   and pack.divides(lms[k], l) for k in range(n)):
                continue
            if _nf(_spoly(reduced[i], reduced[j], pack, p), reduced, pack, p):
                return False
    return True


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by a reduced basis; zero iff f is in the ideal."""
    ring = f.ring
    if ring != G.polys[0].ring:
        raise DimensionError(f"polynomial ring {ring!r} differs from basis ring {G.polys[0].ring!r}")
    pack = ring.packing(G.order)
    divisors = [(max(t), t) for t in (g._packed(pack) for g in G.polys)]
    return Polynomial._from_packed(ring, pack, _nf(f._packed(pack), divisors, pack, ring.p))


def _unit_basis(ring, order: TermOrder) -> GroebnerBasis:
    return GroebnerBasis((ring.one(),), order)


def buchberger_reduced(
    F, order: TermOrder = GREVLEX, *, max_pairs: int = DEFAULT_MAX_PAIRS, check: bool = True
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal generated by F.

    Pairs are processed lowest lcm first (normal strategy). Each new
    element h, input or remainder, is paired with every earlier one, except
    where the leading monomials are coprime (product criterion). A pair
    (i, j) is skipped when it is popped if some k not in {i, j} has
    lm_k | lcm_ij and neither (i, k) nor (j, k) still waits, each popped
    earlier or coprime (Buchberger's chain criterion; the improved
    Buchberger algorithm of Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, Ch. 2 Sec. 10). Every other pair's S-polynomial is reduced
    against every element, and a nonzero remainder joins as a new element.

    Why the skips are safe. G is a Groebner basis iff every S_ij has a
    standard representation, a sum of multiples h*g_k with lm(h*g_k) <
    lcm_ij (Becker and Weispfenning, Groebner Bases, Thm 5.64). A coprime
    pair has one, and so has a reduced pair once its remainder joins. For a
    chain skip, with l = lcm_ij, S_ij = (l/l_ik)*S_ik - (l/l_jk)*S_jk, and
    l/l_ik times a standard representation of S_ik, all terms below l_ik,
    has all terms below l, also when l_ik = l; so for S_jk. Each skip rests
    only on pairs popped earlier or coprime, so induction over the pop order
    gives every pair of the final G one.

    With check=True check_basis re-verifies the result, independently of
    the loop, so a pair skipped by mistake cannot pass unseen.
    check=False leaves that check out. verify_bounds runs it checked, and
    only when a cap stopped its sd scan. Generators of two rings
    are a DimensionError. Past `max_pairs` reduced S-polynomials CapExceeded
    carries `basis_size`, `pairs_popped` (those reduced), `pairs_pending`
    (the pair popped at the cap among them) and `pairs_skipped`, a count
    per rule: `product` and `chain`. A `max_pairs` that is not an int (a
    bool is not one) or lies below 1 is a DomainError, raised before any
    work.
    """
    _check_cap(max_pairs, "max_pairs")
    polys = list(F)
    if not polys:
        raise DomainError("cannot take a basis of an empty family")
    ring = polys[0].ring
    if any(f.ring != ring for f in polys):
        raise DimensionError("generators must share one ring")
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        raise DomainError("cannot take a basis of all-zero generators")
    if any(f._degree == 0 for f in polys):
        return _unit_basis(ring, order)

    pack, p = ring.packing(order), ring.p
    s, g, lcm = pack.sign, pack.guard, pack.lcm
    G: list = []  # every element, monic; all of them reduce
    glms: list[int] = []  # g - s*lm_k: lm_k divides m iff (s*m + it) keeps every guard bit
    heap: list = []  # waiting pairs (lcm, i, j), i < j; packed order: lcm degree first
    pending: set = set()  # the (i, j) of the heap
    skipped = dict.fromkeys(("product", "chain"), 0)

    def add(f):
        h, lh = len(G), f[0]
        for i, (li, _) in enumerate(G):
            l = lcm(li, lh)
            if l == li + lh:
                skipped["product"] += 1
            else:
                heappush(heap, (l, i, h))
                pending.add((i, h))
        G.append(f)
        glms.append(g - s * lh)

    def chained(sl, i, j):  # sl = s*lcm_ij
        for k, glk in enumerate(glms):
            if ((sl + glk) & g == g and k != i and k != j
                    and ((k, i) if k < i else (i, k)) not in pending
                    and ((k, j) if k < j else (j, k)) not in pending):
                return True
        return False

    for f in polys:
        add(_monic(f._packed(pack), p))

    pops = 0
    while heap:
        l, i, j = heappop(heap)
        pending.remove((i, j))
        if chained(s * l, i, j):
            skipped["chain"] += 1
            continue
        if pops >= max_pairs:
            raise CapExceeded(
                f"Buchberger exceeded {max_pairs} S-pairs",
                details={"basis_size": len(G), "pairs_popped": pops,
                         "pairs_pending": len(heap) + 1, "pairs_skipped": skipped},
            )
        pops += 1
        r = _nf(_spoly(G[i], G[j], pack, p), G, pack, p)
        if not r:
            continue
        if pack.degree(max(r)) == 0:
            return _unit_basis(ring, order)
        add(_monic(r, p))

    basis = _reduced_basis(ring, G, order)
    if check:
        check_basis(basis)
    return basis


def gbd(F, order: TermOrder = GREVLEX) -> int:
    """Maximum degree appearing in the reduced Groebner basis."""
    return buchberger_reduced(F, order).max_degree


def ideal_dims(G: GroebnerBasis, e: int) -> list[int]:
    """[ideal_dim_le(G, d) for d in range(e + 1)], from the standard
    monomials, those no leading monomial divides, degree by degree.

    Below d0, the least degree of a leading monomial, the ideal holds no
    monomial, and every monomial of degree d0 - 1 is standard. A divisor of a
    standard monomial is standard, so from there on the standard monomials
    of degree d are those of degree d - 1 times a variable that no leading
    monomial of at most degree d divides. dims[d] is dims[d - 1] plus the
    C(d + n - 1, d) monomials of degree d less its standard ones."""
    _check_int(e, "degree")
    pack = G.polys[0].ring.packing(G.order)
    pack.check(e)
    s, g, xs = pack.sign, pack.guard, pack.variables
    # lm divides m iff (s*m + g - s*lm) keeps every guard bit
    lms = [(pack.degree(lm), g - s * lm) for lm in (f._lead(G.order)[1] for f in G.polys)]
    d0 = min(k for k, _ in lms)
    std = pack.monomials(d0 - 1) if d0 else []  # the unit ideal has none
    dims, count = [0] * min(d0, e + 1), 0
    for d in range(d0, e + 1):
        glms = [glm for k, glm in lms if k <= d]
        children = []
        for m in {m + x for m in std for x in xs}:
            sm = s * m
            for glm in glms:
                if (sm + glm) & g == g:
                    break
            else:
                children.append(m)
        std = children
        count += math.comb(d + len(xs) - 1, d) - len(std)
        dims.append(count)
    return dims


def ideal_dim_le(G: GroebnerBasis, e: int) -> int:
    """Number of monomials of degree <= e divisible by some leading monomial.

    For a degree-compatible order this equals the dimension of the space of
    ideal elements of degree <= e.
    """
    _check_int(e, "degree")
    return ideal_dims(G, e)[-1] if e >= 0 else 0
