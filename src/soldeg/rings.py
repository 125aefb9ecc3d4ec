"""Polynomial rings over GF(p), term orders, and sparse multivariate polynomials.

Every value in this module is immutable after construction and safe to share
between threads. Coefficients are canonical ints in [0, p); the zero
polynomial is the empty term map and its degree is the MINUS_INFINITY
sentinel, which deliberately does not compare against integers.

Inside polynomials and every engine built on them, a monomial is one int (a
packed exponent vector, see Packing): fields of FIELD_BITS bits under the
total degree, laid out so that integer order is the term order. Products are
sums, quotients are differences, and divisibility and lcm are guard-bit mask
tests. A polynomial keeps its terms packed under grevlex, the default order;
an engine working under grlex re-packs each input once. At the boundary
(parsing, rendering and the public API) a monomial is a plain tuple of
exponents, one per variable; Packing.encode validates each tuple that enters
a polynomial. A ring keeps its prime modulus `p` as a plain int, and
coefficient arithmetic is `% p` with inverses `pow(c, -1, p)`.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, DomainError

MAX_VARS = 16
FIELD_BITS = 16  # bits per packed exponent field, the top one a guard bit
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # largest degree a packed field holds

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set {2,3,5,7} is exact below 3_215_031_751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_int(v, what: str) -> None:
    """DomainError unless v is an int (a bool is not one)."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise DomainError(f"{what} must be an int, got {v!r}")


def check_modulus(p) -> int:
    """p, if it is a prime int with 2 <= p < 2**31; DomainError otherwise."""
    _check_int(p, "field modulus")
    if not 2 <= p < 2**31:
        raise DomainError(f"field modulus must satisfy 2 <= p < 2**31, got {p}")
    if not is_prime(p):
        raise DomainError(f"field modulus {p} is not prime")
    return p


class TermOrder:
    """Degree-compatible monomial order with precedence x1 > x2 > ... > xn.

    Only 'grevlex' and 'grlex' are accepted: every statement this library
    checks assumes degree compatibility, so plain lex is rejected outright.
    """

    __slots__ = ("kind",)

    KINDS = ("grevlex", "grlex")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise DomainError(
                f"term order must be degree-compatible ({'/'.join(self.KINDS)}), got {kind!r}"
            )
        self.kind = kind

    def key(self, m: tuple[int, ...]):
        """Sort key of an exponent tuple: key(a) < key(b) iff a < b under
        this order. The reference that packed order is tested against."""
        if self.kind == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        return (sum(m), tuple(m))

    def compare(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """-1, 0, or +1 as a <, =, > b. Raises DimensionError on arity mismatch."""
        if len(a) != len(b):
            raise DimensionError("variable counts differ")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(("TermOrder", self.kind))

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


GREVLEX = TermOrder("grevlex")
GRLEX = TermOrder("grlex")


class Packing:
    """Exponent vectors of n variables packed into ints whose integer order
    is a term order.

    The int has n + 1 fields of FIELD_BITS bits, the top one holding the
    total degree. grlex packs (deg, e_1, ..., e_n) from the top down. grevlex
    packs deg * 2^(B n) - (e_1 + e_2 2^B + ... + e_n 2^(B (n-1))), which
    reads as the fields (deg, W - e_n, ..., W - e_1) once `offset` (W =
    MAX_DEGREE in every exponent field) is added. Both maps are additive: the
    unit packs to 0, a product is the sum of the ints and a quotient their
    difference. The top bit of each field is a guard that stays clear while
    every degree is at most MAX_DEGREE; `check` enforces that bound wherever
    a degree forms, so a field never carries into its neighbour.
    """

    __slots__ = ("n", "kind", "sign", "offset", "deg_shift", "guard", "variables",
                 "_shifts", "_low", "_ones")

    def __init__(self, n: int, kind: str):
        if not 1 <= n <= MAX_VARS:
            raise DimensionError(f"monomials carry 1..{MAX_VARS} exponents, got {n}")
        if kind not in TermOrder.KINDS:
            raise DomainError(f"no packing for term order {kind!r}")
        grlex = kind == "grlex"
        ones = sum(1 << (FIELD_BITS * i) for i in range(n))
        self.n = n
        self.kind = kind
        self.sign = 1 if grlex else -1
        self.offset = 0 if grlex else MAX_DEGREE * ones
        self.deg_shift = FIELD_BITS * n
        self.guard = (1 << (FIELD_BITS - 1)) * ones  # guard bits of the exponent fields
        self._shifts = tuple(FIELD_BITS * (n - 1 - i if grlex else i) for i in range(n))
        self._low = (1 << self.deg_shift) - 1
        self._ones = ones
        self.variables = tuple((1 << self.deg_shift) + self.sign * (1 << sh) for sh in self._shifts)

    @staticmethod
    def check(d: int) -> None:
        """Raise DomainError when degree d does not fit a packed field."""
        if d > MAX_DEGREE:
            raise DomainError(f"degree {d} exceeds the largest supported degree {MAX_DEGREE}")

    def encode(self, exps: Sequence[int]) -> int:
        if len(exps) != self.n:
            raise DimensionError(f"expected {self.n} exponents, got {len(exps)}")
        for e in exps:
            _check_int(e, "exponent")
        if min(exps) < 0:
            raise DomainError(f"negative exponent in {tuple(exps)}")
        deg = sum(exps)
        self.check(deg)
        return (deg << self.deg_shift) + self.sign * sum(map(operator.lshift, exps, self._shifts))

    def decode(self, k: int) -> tuple[int, ...]:
        c = k + self.offset
        if self.sign > 0:
            return tuple((c >> sh) & MAX_DEGREE for sh in self._shifts)
        return tuple(MAX_DEGREE - ((c >> sh) & MAX_DEGREE) for sh in self._shifts)

    def degree(self, k: int) -> int:
        return (k + self.offset) >> self.deg_shift

    def degree_floor(self, d: int) -> int:
        """Monomials of degree >= d pack to ints >= this value, lower degrees below it."""
        return (d << self.deg_shift) - self.offset

    def divides(self, a: int, b: int) -> bool:
        """Whether monomial a divides monomial b: every exponent field of the
        difference, lifted by its guard bit, keeps that bit."""
        g = self.guard
        return ((b - a) * self.sign + g) & g == g

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials. Its degree, in the unbounded top
        field, may exceed MAX_DEGREE: a caller forming products checks it."""
        s, off = self.sign, self.offset
        ea = s * (((a + off) & self._low) - off)  # plain exponent fields of a
        eb = s * (((b + off) & self._low) - off)
        t = (ea + self.guard - eb) & self.guard  # guard bit kept where ea >= eb
        mask = t - (t >> (FIELD_BITS - 1))
        e = (ea & mask) | (eb & ~mask)
        # the fields sum into the top one; a sum of two degrees fits FIELD_BITS
        deg = ((e * self._ones) >> (self.deg_shift - FIELD_BITS)) & ((1 << FIELD_BITS) - 1)
        return (deg << self.deg_shift) + s * e

    def repack(self, terms: dict[int, int], src: Packing) -> dict[int, int]:
        """`terms` keyed under `src`, a packing of the same variables, re-keyed
        under this one. The two orders hold the exponent fields in opposite
        order, so each key's exponent block is reversed field by field."""
        if src.kind == self.kind:
            return terms
        ds, low = self.deg_shift, src._low
        s_in, off_in, s_out = src.sign, src.offset, self.sign
        fields = range(0, ds, FIELD_BITS)
        out = {}
        for k, c in terms.items():
            clean = k + off_in
            e = s_in * ((clean & low) - off_in)  # plain exponent fields
            r = 0
            for sh in fields:
                r = (r << FIELD_BITS) | ((e >> sh) & MAX_DEGREE)
            out[((clean >> ds) << ds) + s_out * r] = c
        return out

    def monomials(self, d: int) -> list[int]:
        """The packed monomials of degree exactly d, in no particular order."""
        self.check(d)
        parts = [(0, d)]
        for x in self.variables[:-1]:
            parts = [(k + a * x, r - a) for k, r in parts for a in range(r + 1)]
        last = self.variables[-1]
        return [k + r * last for k, r in parts]

    def __repr__(self):
        return f"Packing({self.n}, {self.kind!r})"


class _MinusInfinity:
    """Degree of the zero polynomial. Not comparable against integers on purpose."""

    __slots__ = ()

    def __repr__(self):
        return "-infinity"


MINUS_INFINITY = _MinusInfinity()


class Ring:
    """Polynomial ring GF(p)[x1, ..., xn] with named variables (n <= MAX_VARS)
    over a prime 2 <= p < 2**31."""

    __slots__ = ("p", "names", "_packings")

    def __init__(self, p: int, names: Sequence[str] | None = None, *, nvars: int | None = None):
        check_modulus(p)
        if names is None:
            if nvars is None:
                raise DomainError("give variable names or a variable count")
            names = tuple(f"x{i + 1}" for i in range(nvars))
        names = tuple(names)
        if nvars is not None and nvars != len(names):
            raise DimensionError(f"nvars={nvars} disagrees with {len(names)} names")
        if not 1 <= len(names) <= MAX_VARS:
            raise DimensionError(f"need 1..{MAX_VARS} variables, got {len(names)}")
        for name in names:
            if not _NAME_RE.match(name):
                raise DomainError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate variable names in {names}")
        self.p = p
        self.names = names
        self._packings = {kind: Packing(len(names), kind) for kind in TermOrder.KINDS}

    def packing(self, order: TermOrder) -> Packing:
        """The packing of this ring's monomials under `order`."""
        return self._packings[order.kind]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial(self, *exps: int) -> tuple[int, ...]:
        """The exponent tuple of a monomial of this ring, checked."""
        if len(exps) != self.nvars:
            raise DimensionError(f"expected {self.nvars} exponents, got {len(exps)}")
        for e in exps:
            _check_int(e, "exponent")
        if any(e < 0 for e in exps):
            raise DomainError(f"negative exponent in {exps}")
        return exps

    def poly(self, terms) -> Polynomial:
        """Build a polynomial from {exponent tuple: coeff}."""
        return Polynomial(self, terms)

    def constant(self, c: int) -> Polynomial:
        return Polynomial(self, {(0,) * self.nvars: c})

    def one(self) -> Polynomial:
        return self.constant(1)

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def variable(self, i: int) -> Polynomial:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.nvars:
            raise DomainError(f"variable index must be an int in 0..{self.nvars - 1}, got {i!r}")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def variables(self) -> tuple[Polynomial, ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.p == self.p
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.p, self.names))

    def __repr__(self):
        return f"Ring(GF({self.p}), {', '.join(self.names)})"


def _render_exps(exps: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Sparse polynomial over GF(p): a map monomial -> nonzero coefficient.

    Built from {exponent tuple: coeff} (or such pairs); repeated monomials
    add up. The map is kept packed under the ring's grevlex packing; `terms`
    decodes it into exponent-tuple keys on demand.
    """

    __slots__ = ("ring", "_t", "_degree")

    def __init__(self, ring: Ring, terms):
        pack = ring.packing(GREVLEX)
        fixed: dict[int, int] = {}
        p = ring.p
        for m, c in (terms.items() if isinstance(terms, dict) else terms):
            _check_int(c, "coefficient")
            k = pack.encode(m)  # checks the arity, the types, the signs and the degree
            c = (fixed.get(k, 0) + c) % p
            if c:
                fixed[k] = c
            else:
                fixed.pop(k, None)
        self.ring = ring
        self._t = fixed
        self._degree = pack.degree(max(fixed)) if fixed else None

    @classmethod
    def _raw(cls, ring: Ring, terms: dict[int, int]) -> Polynomial:
        # internal fast path: grevlex-packed keys, canonical nonzero coefficients
        self = object.__new__(cls)
        self.ring = ring
        self._t = terms
        self._degree = ring.packing(GREVLEX).degree(max(terms)) if terms else None
        return self

    @classmethod
    def _from_packed(cls, ring: Ring, pack: Packing, terms: dict[int, int]) -> Polynomial:
        """The polynomial whose terms are keyed under `pack`."""
        return cls._raw(ring, ring.packing(GREVLEX).repack(terms, pack))

    def _packed(self, pack: Packing) -> dict[int, int]:
        """The terms keyed under `pack`. Under grevlex this is the polynomial's
        own map, so a caller that mutates it copies it first."""
        return pack.repack(self._t, self.ring.packing(GREVLEX))

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The term map with exponent-tuple keys, decoded afresh on every access."""
        canon = self.ring.packing(GREVLEX)
        return {canon.decode(k): c for k, c in self._t.items()}

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def degree(self):
        """Total degree; MINUS_INFINITY for the zero polynomial."""
        return self._degree if self._degree is not None else MINUS_INFINITY

    def _check_same_ring(self, other: Polynomial):
        if other.ring != self.ring:
            raise DimensionError(f"mixed rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_same_ring(other)
        p = self.ring.p
        res = dict(self._t)
        for m, c in other._t.items():
            v = (res.get(m, 0) + c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial._raw(self.ring, res)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __neg__(self) -> Polynomial:
        p = self.ring.p
        return Polynomial._raw(self.ring, {m: p - c for m, c in self._t.items()})

    def scaled(self, c: int) -> Polynomial:
        _check_int(c, "coefficient")
        p = self.ring.p
        c %= p
        if c == 0:
            return Polynomial._raw(self.ring, {})
        return Polynomial._raw(self.ring, {m: v * c % p for m, v in self._t.items()})

    def mul_monomial(self, m: tuple[int, ...], coeff: int = 1) -> Polynomial:
        """coeff * m * self for an exponent tuple m."""
        _check_int(coeff, "coefficient")
        p = self.ring.p
        coeff %= p
        if coeff == 0 or not self._t:
            return Polynomial._raw(self.ring, {})
        pack = self.ring.packing(GREVLEX)
        k = pack.encode(m)
        pack.check(self._degree + pack.degree(k))  # one check bounds every product term
        return Polynomial._raw(self.ring, {mm + k: c * coeff % p for mm, c in self._t.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        if not self._t or not other._t:
            return Polynomial._raw(self.ring, {})
        self.ring.packing(GREVLEX).check(self._degree + other._degree)
        p = self.ring.p
        res: dict[int, int] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                m = m1 + m2
                v = (res.get(m, 0) + c1 * c2) % p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Polynomial._raw(self.ring, res)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, e: int) -> Polynomial:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise DomainError("polynomial powers take non-negative int exponents")
        result = self.ring.one()
        for _ in range(e):
            result = result * self
        return result

    def top(self) -> Polynomial:
        """Homogeneous part of largest degree."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no top part")
        lo = self.ring.packing(GREVLEX).degree_floor(self._degree)
        return Polynomial._raw(self.ring, {m: c for m, c in self._t.items() if m >= lo})

    def _lead(self, order: TermOrder) -> tuple[Packing, int, int]:
        """The packing of `order`, the leading monomial's key under it, and
        the leading coefficient."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no leading monomial")
        pack = self.ring.packing(order)
        terms = self._packed(pack)
        k = max(terms)
        return pack, k, terms[k]

    def leading_monomial(self, order: TermOrder) -> tuple[int, ...]:
        pack, k, _ = self._lead(order)
        return pack.decode(k)

    def leading_coeff(self, order: TermOrder) -> int:
        return self._lead(order)[2]

    def monic(self, order: TermOrder) -> Polynomial:
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return self.scaled(pow(lc, -1, self.ring.p))

    def render(self, order: TermOrder | None = None) -> str:
        if not self._t:
            return "0"
        pack = self.ring.packing(order if order is not None else GREVLEX)
        names = self.ring.names
        parts = []
        for k, c in sorted(self._packed(pack).items(), reverse=True):
            exps = pack.decode(k)
            if not any(exps):
                parts.append(str(c))
            elif c == 1:
                parts.append(_render_exps(exps, names))
            else:
                parts.append(f"{c}*{_render_exps(exps, names)}")
        return " + ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other._t == self._t
        )

    def __bool__(self):
        return bool(self._t)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


class PolySystem:
    """Non-empty ordered family of nonzero polynomials over one ring."""

    __slots__ = ("ring", "polys")

    def __init__(self, ring: Ring, polys: Iterable[Polynomial]):
        polys = tuple(polys)
        if not polys:
            raise DomainError("a polynomial system must be non-empty")
        for f in polys:
            if f.ring != ring:
                raise DimensionError("system members must share one ring")
            if f.is_zero:
                raise DomainError("system members must be nonzero")
        self.ring = ring
        self.polys = polys

    def degrees(self) -> tuple[int, ...]:
        return tuple(f._degree for f in self.polys)

    def max_degree(self) -> int:
        return max(self.degrees())

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, i: int) -> Polynomial:
        return self.polys[i]

    def __eq__(self, other):
        return (
            isinstance(other, PolySystem)
            and other.ring == self.ring
            and other.polys == self.polys
        )

    def __repr__(self):
        return f"PolySystem([{'; '.join(f.render() for f in self.polys)}])"
