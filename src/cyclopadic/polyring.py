"""Exact polynomial arithmetic over arbitrary-precision integers.

Two representations:

* :class:`MultiPoly` -- sparse multivariate polynomials in X_1, X_2, ...
  stored as a map from packed monomials to nonzero integer coefficients.
  A packed monomial is one Python int of fixed-width slots (the packed
  exponent vectors of Monagan & Pearce, CASC 2007): slot 0 holds the total
  degree and slot i the exponent of X_i, so multiplying two monomials is
  one int addition and the graded reverse-lexicographic order comes
  straight from the key. The public API takes and returns exponent tuples;
  keys are unpacked only for sorting, serialization and witnesses.
  Deterministic term order is graded revlex, leading term first.
  A power P^n of an s-term P is either expanded by the multinomial
  theorem, one pass over the C(n+s-1, s-1) compositions of n where the key
  of prod t_i^k_i is sum k_i key_i, or squared and multiplied. The
  expansion is taken when its steps (compositions plus prefixes) number at
  most half the term pairs squaring would form, bounded by the sizes of the
  partial powers P^j: at most C(j+s-1, s-1) terms, and at most
  prod (j e_i + 1) for e_i the top exponent of X_i. So few-term sparse
  bases are expanded from about n = 4 on, while dense bases and many-term
  bases at small n are squared.
* :class:`UniPoly` -- dense univariate polynomials, coefficient list
  indexed by degree.

Coefficientwise congruence mod m*Z_p is decided by
:func:`congruence_witnesses`, which reads the two operands' coefficients and
builds no difference; :func:`congruent_mod` and the checkers' reports both
read it.
"""
from __future__ import annotations

import json
from math import comb
from typing import Iterable, Mapping, Optional, Union

from .padic import PadicContext

SLOT_BITS = 16
# largest total degree a packed monomial can hold; also the slot mask
MAX_DEGREE = (1 << SLOT_BITS) - 1


def _pack(exponents) -> int:
    """Packed key of an exponent vector (X_1 first); trailing zeros are free."""
    key = degree = 0
    shift = SLOT_BITS
    for x in exponents:
        if x < 0:
            raise ValueError(f"negative exponent {x}")
        key |= x << shift
        degree += x
        shift += SLOT_BITS
    _check_degree(degree)
    return key | degree


def _unpack(key: int) -> tuple:
    """Canonical exponent tuple (no trailing zeros) of a packed key."""
    exps = []
    key >>= SLOT_BITS
    while key:
        exps.append(key & MAX_DEGREE)
        key >>= SLOT_BITS
    return tuple(exps)


def _grevlex(key: int):
    # ascending sort with this key = descending graded revlex: higher total
    # degree first, then the smaller exponent of the last variable first
    return (-(key & MAX_DEGREE), key >> SLOT_BITS)


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds the packed limit {MAX_DEGREE}"
        )


def _mul_terms(a: dict, b: dict) -> dict:
    """Exact product of two term maps whose degrees sum to at most MAX_DEGREE."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _multinomial_power(terms: dict, n: int) -> dict:
    """Term map of P^n, P given by a term map of at least two terms.

    Multinomial theorem: each composition k_1 + ... + k_s = n contributes
    prod C(rem_i, k_i) c_i^k_i at key sum k_i key_i, where rem_i is what the
    earlier exponents leave of n and the last exponent takes the rest. The
    compositions are walked depth first on an explicit stack, so the depth
    does not grow with s; a prefix that uses up n is added at once, and the
    last two terms come from a precomputed row of (t_a + t_b)^rem. Each
    composition is one update, each prefix of at most s-2 exponents summing
    below n one stack entry. The caller checks that n times the total
    degree is within MAX_DEGREE.
    """
    tables = []
    for key, c in terms.items():
        pw = [1]
        for _ in range(n):
            pw.append(pw[-1] * c)
        tables.append((key, pw))
    (key_a, pw_a), (key_b, pw_b) = tables.pop(), tables.pop()

    def last_two(rem: int) -> list:
        # (t_a + t_b)^rem, one term per split of rem: distinct keys, no zero
        row = []
        b = 1  # C(rem, k)
        for k in range(rem + 1):
            r = rem - k
            row.append((k * key_b + r * key_a, b * pw_b[k] * pw_a[r]))
            b = b * r // (k + 1)
        return row

    if not tables:
        return dict(last_two(n))
    rows = [last_two(rem) for rem in range(n + 1)]
    last = len(tables)
    out: dict = {}
    get = out.get
    stack = [(0, n, 0, 1)]  # (term index, exponent left, key, coefficient)
    push, pop = stack.append, stack.pop
    while stack:
        i, rem, key, coeff = pop()
        if i == last:
            for mono, c in rows[rem]:
                mono += key
                out[mono] = get(mono, 0) + coeff * c
            continue
        key_i, pw = tables[i]
        mono = key + rem * key_i  # k_i = rem: the later exponents are 0
        out[mono] = get(mono, 0) + coeff * pw[rem]
        b = 1
        for k in range(rem):
            push((i + 1, rem - k, key + k * key_i, coeff * b * pw[k]))
            b = b * (rem - k) // (k + 1)
    for mono in [mono for mono, c in out.items() if not c]:
        del out[mono]
    return out


def _expansion_steps(s: int, n: int) -> int:
    """Updates plus stack entries of _multinomial_power for an s-term P^n."""
    return comb(n + s - 1, s - 1) + comb(n + s - 2, s - 2)


def _squaring_pairs(terms: dict, n: int) -> int:
    """A bound on the term pairs square-and-multiply forms for P^n.

    P^j has at most C(j+s-1, s-1) terms, one per composition of j, and at
    most prod (j e_i + 1), e_i the largest exponent of X_i in P.
    """
    s = len(terms)
    tops: list = []
    for key in terms:
        for i, x in enumerate(_unpack(key)):
            if i == len(tops):
                tops.append(x)
            elif x > tops[i]:
                tops[i] = x

    def size(j: int) -> int:
        box = 1
        for e in tops:
            box *= j * e + 1
        return min(comb(j + s - 1, s - 1), box)

    pairs, have, j = 0, 0, 1
    while n:
        if n & 1:
            pairs += size(have) * size(j)
            have += j
        n >>= 1
        if n:
            pairs += size(j) ** 2
            j *= 2
    return pairs


def _add_scaled(acc: dict, src: dict, scale: int) -> None:
    """In-place acc += scale * src."""
    if not scale:
        return
    get = acc.get
    for k, c in src.items():
        v = get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            del acc[k]


class MultiPoly:
    """Immutable sparse multivariate polynomial with integer coefficients."""

    # _degree caches total_degree(), read before every product and power
    __slots__ = ("terms", "_degree")

    def __init__(self, terms: Optional[Mapping] = None, *, _raw: bool = False):
        """Build from a map of exponent tuples (X_1 first) to coefficients.

        With ``_raw`` the map already holds packed keys and nonzero
        coefficients, and the new polynomial takes ownership of it.
        """
        if terms is None:
            terms = {}
        if _raw:
            object.__setattr__(self, "terms", terms)
            return
        # tuples that differ only by trailing zeros pack to the same key
        canon = {}
        for e, c in terms.items():
            if c:
                k = _pack(e)
                canon[k] = canon.get(k, 0) + c
        object.__setattr__(self, "terms", {k: c for k, c in canon.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({}, _raw=True)

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls({0: c} if c else {}, _raw=True)

    @classmethod
    def variable(cls, i: int) -> "MultiPoly":
        """The variable X_i (1-based index)."""
        if i < 1:
            raise ValueError("variable index is 1-based")
        return cls({1 | 1 << SLOT_BITS * i: 1}, _raw=True)

    @classmethod
    def monomial(cls, exponents, coeff: int = 1) -> "MultiPoly":
        return cls({tuple(exponents): coeff})

    # -- basic queries ------------------------------------------------

    @property
    def nvars(self) -> int:
        top = max(self.terms, default=0)
        return (top.bit_length() - 1) // SLOT_BITS if top else 0

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents) -> int:
        return self.terms.get(_pack(exponents), 0)

    def total_degree(self) -> int:
        try:
            return self._degree
        except AttributeError:
            d = max((k & MAX_DEGREE for k in self.terms), default=0)
            object.__setattr__(self, "_degree", d)
            return d

    def sorted_terms(self) -> list:
        """Terms as (exponents, coeff) pairs in descending graded revlex order."""
        return [
            (_unpack(k), self.terms[k]) for k in sorted(self.terms, key=_grevlex)
        ]

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for e, c in self.sorted_terms()[:8]:
            mono = "*".join(
                f"X{i+1}" if x == 1 else f"X{i+1}^{x}"
                for i, x in enumerate(e)
                if x
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        tail = " + ..." if len(self.terms) > 8 else ""
        return "MultiPoly(" + " + ".join(parts) + tail + ")"

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, 1)
        return MultiPoly(acc, _raw=True)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()}, _raw=True)

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        acc = dict(self.terms)
        _add_scaled(acc, other.terms, -1)
        return MultiPoly(acc, _raw=True)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            return MultiPoly(
                {e: other * c for e, c in self.terms.items()}, _raw=True
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _check_degree(self.total_degree() + other.total_degree())
        return MultiPoly(_mul_terms(self.terms, other.terms), _raw=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        if n == 0:
            return MultiPoly.one()
        if n == 1 or not self.terms:
            return self
        deg = self.total_degree()
        # deg(P^n) = n deg(P) over Z, so this is the only check needed, and
        # below it no slot of a sum of keys carries into the next
        _check_degree(n * deg)
        s = len(self.terms)
        if s == 1:
            (key, c), = self.terms.items()
            return MultiPoly({n * key: c**n}, _raw=True)
        # a step of the expansion costs about 1.4 term pairs of a product
        # (median over sparse, dense and cycle-indicator bases of 3 to 150
        # terms); the pairs are only bounded from above, and a base whose
        # products collide forms fewer, so the expansion must win by 2
        if 2 * _expansion_steps(s, n) <= _squaring_pairs(self.terms, n):
            return MultiPoly(_multinomial_power(self.terms, n), _raw=True)
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        k = self.nvars
        return {
            "vars": k,
            "terms": [
                [list(e) + [0] * (k - len(e)), str(c)]
                for e, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MultiPoly":
        return cls({tuple(e): int(c) for e, c in obj["terms"]})


class UniPoly:
    """Immutable dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = [
            (f"{c}" if d == 0 else f"{c}*X^{d}")
            for d, c in enumerate(self.coeffs)
            if c
        ]
        return "UniPoly(" + " + ".join(parts) + ")"

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, int):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self[d] + other[d] for d in range(n))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "UniPoly":
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(other * c for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        result = UniPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_obj(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "UniPoly":
        return cls(int(c) for c in obj["coeffs"])


def substitute_univariate(a: MultiPoly, images: Mapping[int, UniPoly]) -> UniPoly:
    """Evaluate a at X_i := images[i] (1-based), yielding a univariate polynomial."""
    power_cache: dict = {}

    def img_pow(i: int, e: int) -> UniPoly:
        key = (i, e)
        got = power_cache.get(key)
        if got is None:
            got = images[i] ** e
            power_cache[key] = got
        return got

    total = UniPoly()
    for key, c in a.terms.items():
        exps = _unpack(key)
        prod = UniPoly.constant(c)
        for i, e in enumerate(exps, start=1):
            if e:
                if i not in images:
                    raise ValueError(f"no image for variable X_{i}")
                prod = prod * img_pow(i, e)
                if prod.is_zero():
                    break
        total = total + prod
    return total


Poly = Union[MultiPoly, UniPoly, int]


def congruence_witnesses(a: Poly, b: Poly, m: int, ctx: PadicContext) -> list:
    """(place, difference, required vp) for each coefficient at which a and b
    differ mod m*Z_p; place is ``{"exponents": [...]}`` for MultiPolys, in
    descending graded revlex order, and ``{"degree": d}`` for UniPolys,
    lowest degree first.

    a - b is not built. For MultiPolys the longer operand's coefficients are
    scanned for a remainder mod p^vp(m), which decides every key the shorter
    operand lacks; the shorter operand's keys are then decided by their
    exact difference. Where the shorter operand is small, as for C_N against
    a product of few terms, that costs one remainder per term of the longer.
    """
    if m == 0:
        raise ValueError("modulus m must be nonzero")
    req = ctx.vp(m)
    q = ctx.p**req

    if isinstance(a, int):
        a = MultiPoly.constant(a)
    if isinstance(b, int):
        b = UniPoly.constant(b) if isinstance(a, UniPoly) else MultiPoly.constant(b)

    if isinstance(a, UniPoly) and isinstance(b, UniPoly):
        top = max(len(a.coeffs), len(b.coeffs))
        return [({"degree": d}, c, req) for d in range(top) if (c := a[d] - b[d]) % q]
    if not (isinstance(a, MultiPoly) and isinstance(b, MultiPoly)):
        raise TypeError("a congruence needs two polynomials of the same kind")
    at, bt = a.terms, b.terms
    longer, shorter = (at, bt) if len(at) >= len(bt) else (bt, at)
    bad = {k for k, c in longer.items() if c % q}
    get_a, get_b = at.get, bt.get
    for k in shorter:
        if (get_a(k, 0) - get_b(k, 0)) % q:
            bad.add(k)
        else:
            bad.discard(k)
    return [
        ({"exponents": list(_unpack(k))}, get_a(k, 0) - get_b(k, 0), req)
        for k in sorted(bad, key=_grevlex)
    ]


def congruent_mod(a: Poly, b: Poly, m: int, ctx: PadicContext):
    """Coefficientwise test of a = b (mod m*Z_p).

    Returns (True, None) on success, else (False, witness) where the witness
    names the first offending monomial, the coefficient difference, and the
    observed/required valuations.
    """
    bad = congruence_witnesses(a, b, m, ctx)
    if not bad:
        return True, None
    place, c, req = bad[0]
    return False, dict(place, difference=c, observed_vp=ctx.vp(c), required_vp=req)
