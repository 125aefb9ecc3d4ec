"""Brute-force fixed-point oracle for degree-bounded spans.

Deliberately independent of the library's elimination code: monomials are
plain exponent tuples, rows are dense coefficient lists, reduction is a
textbook Gaussian elimination over GF(p), and the closure is the naive
fixed point (multiply every basis row by every monomial that fits, re-run
elimination, repeat until the rank stops growing).
"""

import itertools


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomials_at_most(n, d):
    """Exponent tuples of total degree <= d, descending grevlex."""
    all_exps = [
        e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d
    ]
    all_exps.sort(key=_grevlex_key, reverse=True)
    return all_exps


def rref(rows, p):
    """Reduced row echelon form over GF(p); returns the nonzero rows."""
    rows = [r[:] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    lead = 0
    for col in range(ncols):
        sel = None
        for i in range(lead, len(rows)):
            if rows[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[lead], rows[sel] = rows[sel], rows[lead]
        inv = pow(rows[lead][col], -1, p)
        rows[lead] = [v * inv % p for v in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return [r for r in rows if any(r)]


class BruteForceSpan:
    """The fixed-point closure of a system at one degree bound."""

    def __init__(self, system, d):
        self.p = system.ring.p
        self.n = system.ring.nvars
        self.d = d
        self.cols = monomials_at_most(self.n, d)
        self.pos = {m: i for i, m in enumerate(self.cols)}
        seeds = []
        for f in system:
            fe = {m: c for m, c in f.terms.items()}
            deg = max(sum(e) for e in fe)
            if deg > d:
                continue
            for mult in monomials_at_most(self.n, d - deg):
                seeds.append(self._shift_vec(fe, mult))
        self.rows = rref(seeds, self.p)
        while True:
            rank = len(self.rows)
            candidates = [r[:] for r in self.rows]
            for r in self.rows:
                support = [self.cols[i] for i, c in enumerate(r) if c]
                deg = max(sum(e) for e in support)
                fe = {self.cols[i]: c for i, c in enumerate(r) if c}
                for mult in monomials_at_most(self.n, d - deg):
                    if sum(mult) == 0:
                        continue
                    candidates.append(self._shift_vec(fe, mult))
            self.rows = rref(candidates, self.p)
            if len(self.rows) == rank:
                break

    def _shift_vec(self, terms, mult):
        vec = [0] * len(self.cols)
        for exps, c in terms.items():
            shifted = tuple(a + b for a, b in zip(exps, mult))
            vec[self.pos[shifted]] = c
        return vec

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, f):
        """Membership test for a library polynomial of degree <= d."""
        vec = [0] * len(self.cols)
        for m, c in f.terms.items():
            if sum(m) > self.d:
                return False
            vec[self.pos[m]] = c
        p = self.p
        for row in self.rows:
            lead = next(i for i, c in enumerate(row) if c)
            if vec[lead]:
                c = vec[lead]
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        return not any(vec)

    def row_polys(self, ring):
        """Oracle rows as library polynomials, for cross-membership checks."""
        from soldeg import Polynomial

        return [
            Polynomial(ring, {self.cols[i]: c for i, c in enumerate(row) if c})
            for row in self.rows
        ]
