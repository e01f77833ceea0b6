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
  prod (j e_i + 1) for e_i the top exponent of X_i. The choice reads only
  s, n and the nonzero e_i in increasing order, and is memoized by them. Few-term sparse bases are
  expanded from about n = 4 on, dense and many-term bases at small n are
  squared. Python's three-argument ``pow(P, n, q)`` gives P^n in Z/q: P is
  reduced into [0, q), the same choice is made for the reduced base, and
  both kernels reduce as they go, the expansion its tables and prefix
  coefficients (a prefix that is 0 mod q is dropped) and squaring each
  product. Every coefficient of the result lies in [0, q).
* :class:`UniPoly` -- dense univariate polynomials, coefficient list
  indexed by degree.

Coefficientwise congruence mod m*Z_p is decided by
:func:`congruence_witnesses`, which reads the two operands' coefficients and
builds no difference; :func:`congruent_mod` and the checkers' reports both
read it.
"""
from __future__ import annotations

import json
from codecs import utf_16_le_decode
from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Union

from .padic import PadicContext

SLOT_BITS = 16  # MultiPoly.json_chunks reads each slot as a UTF-16 code unit
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


def _grevlex_sorted(keys: Iterable[int]) -> list:
    """keys in descending graded revlex order: higher total degree first,
    then the smaller exponent of the last variable first. Keys of one total
    degree share slot 0, so an ascending sort orders them, and the sort by
    degree with ``reverse`` keeps that order."""
    ks = sorted(keys)
    ks.sort(key=MAX_DEGREE.__and__, reverse=True)
    return ks


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds the packed limit {MAX_DEGREE}"
        )


def _mul_terms(a: dict, b: dict, q: Optional[int] = None) -> dict:
    """Product of two term maps whose degrees sum to at most MAX_DEGREE:
    exact, or with every coefficient reduced into [0, q) if q is given."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    if q:
        return _reduced(out, q)
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _reduced(terms: dict, q: int) -> dict:
    """terms with every coefficient reduced into [0, q), zeros dropped."""
    return {k: r for k, c in terms.items() if (r := c % q)}


def _multinomial_power(terms: dict, n: int, q: Optional[int] = None) -> dict:
    """Term map of P^n, P given by a term map of at least two terms; with q,
    of P^n with every coefficient reduced into [0, q).

    Multinomial theorem: each composition k_1 + ... + k_s = n contributes
    prod C(rem_i, k_i) c_i^k_i at key sum k_i key_i, where rem_i is what the
    earlier exponents leave of n and the last exponent takes the rest. The
    compositions are walked depth first on an explicit stack, so the depth
    does not grow with s; a prefix that uses up n is added at once, and the
    last two terms come from a precomputed row of (t_a + t_b)^rem. Each
    composition is one update, each prefix of at most s-2 exponents summing
    below n one stack entry. With q the power tables, the rows and each
    prefix's coefficient are reduced mod q, and a prefix whose coefficient
    is 0 mod q is dropped when it is popped. The caller checks that n times
    the total degree is within MAX_DEGREE.
    """
    tables = []
    for key, c in terms.items():
        pw = [1]
        for _ in range(n):
            pw.append(pw[-1] * c % q if q else pw[-1] * c)
        tables.append((key, pw))
    (key_a, pw_a), (key_b, pw_b) = tables.pop(), tables.pop()

    def last_two(rem: int) -> list:
        # (t_a + t_b)^rem, one term per split of rem: distinct keys, and
        # no zero (with q, no zero residue)
        row = []
        b = 1  # C(rem, k)
        for k in range(rem + 1):
            r = rem - k
            c = b * pw_b[k] * pw_a[r]
            if q:
                c %= q
            if c:
                row.append((k * key_b + r * key_a, c))
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
        if q:
            coeff %= q
            if not coeff:  # every composition below adds a multiple of q
                continue
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
    if q:
        return _reduced(out, q)
    for mono in [mono for mono, c in out.items() if not c]:
        del out[mono]
    return out


def _tops(terms: dict) -> tuple:
    """The nonzero largest exponents of the X_i in the keys of terms, in
    increasing order: the kernel choice reads them only through
    prod (j e_i + 1), which sees neither their order nor the zeros."""
    tops = map(max, zip_longest(*map(_unpack, terms), fillvalue=0))
    return tuple(sorted(filter(None, tops)))


def _squaring_pairs(s: int, tops: tuple, n: int) -> int:
    """A bound on the term pairs square-and-multiply forms for P^n, P of s
    terms and top exponents tops: P^j has at most C(j+s-1, s-1) terms, one
    per composition of j, and at most prod (j e_i + 1)."""

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


@lru_cache(maxsize=4096)
def _expands(s: int, n: int, tops: tuple) -> bool:
    """True if __pow__ expands P^n, P of s terms and top exponents tops, and
    False if it squares: the expansion's steps cost about 1.4 term pairs each
    (median over sparse, dense and cycle-indicator bases of 3 to 150 terms),
    and the pairs are only an upper bound, so it must win by 2."""
    steps = comb(n + s - 1, s - 1) + comb(n + s - 2, s - 2)
    return 2 * steps <= _squaring_pairs(s, tops, n)


def _square_and_multiply(base, n: int, one, mul):
    """base^n under the product mul, for n >= 0 and one its identity."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _mul_add(out: list, x, y, w: int = 1) -> None:
    """In-place out += w * x * y, for x, y and out dense coefficient lists
    indexed by degree; out is extended to the product's length."""
    if len(out) < len(x) + len(y) - 1:
        out.extend([0] * (len(x) + len(y) - 1 - len(out)))
    for i, xi in enumerate(x):
        if xi:
            wx = w * xi
            for k, yj in enumerate(y, i):
                out[k] += wx * yj


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
        terms = self.terms
        return [(_unpack(k), terms[k]) for k in _grevlex_sorted(terms)]

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
        return self.to_text(8)

    def to_text(self, limit: Optional[int] = None) -> str:
        """The terms as ``MultiPoly(c*X1^2*X2 + ...)``, leading term first;
        past ``limit`` terms, if given, the rest are written as ``...``."""
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for e, c in self.sorted_terms()[:limit]:
            mono = "*".join(
                f"X{i+1}" if x == 1 else f"X{i+1}^{x}"
                for i, x in enumerate(e)
                if x
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        if limit is not None and len(self.terms) > limit:
            parts.append("...")
        return "MultiPoly(" + " + ".join(parts) + ")"

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

    def __pow__(self, n: int, modulo: Optional[int] = None) -> "MultiPoly":
        """self**n, or with ``pow(self, n, q)`` self**n with every
        coefficient reduced into [0, q) and the zeros dropped."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        base = self
        mod: tuple = ()  # the modulus, passed on to the kernel if given
        if modulo is not None:
            if not isinstance(modulo, int) or modulo < 1:
                raise ValueError("modulus must be a positive integer")
            base = MultiPoly(_reduced(self.terms, modulo), _raw=True)
            mod = (modulo,)
        if n == 0:
            return MultiPoly.constant(1 % modulo if mod else 1)
        if n == 1 or not base.terms:
            return base
        # deg(P^n) = n deg(P) over Z, so this is the only check needed, and
        # below it no slot of a sum of keys carries into the next
        _check_degree(n * base.total_degree())
        terms = base.terms
        s = len(terms)
        if s == 1:
            (key, c), = terms.items()
            c = pow(c, n, *mod)
            return MultiPoly({n * key: c} if c else {}, _raw=True)
        if _expands(s, n, _tops(terms)):
            return MultiPoly(_multinomial_power(terms, n, *mod), _raw=True)
        return MultiPoly(
            _square_and_multiply(terms, n, {0: 1},
                                 lambda a, b: _mul_terms(a, b, *mod)),
            _raw=True,
        )

    # -- serialization ------------------------------------------------

    def json_chunks(self) -> Iterator[str]:
        """The text of :meth:`to_json` in pieces, one per term, so that a
        large polynomial is written out without building all of its text.

        A key is read as nvars + 1 UTF-16 code units, one per slot, which
        pads its exponents with zeros to nvars. Slot 0, the total degree, is
        dropped, and ``str.translate`` turns each exponent into its digits
        through a table: no int is converted to text one at a time. Slots in
        the surrogate range (55,296 to 57,343) pass as lone surrogates; two
        of them never form a pair, since a high slot followed by a low one
        would need a total degree over MAX_DEGREE.
        """
        k = self.nvars
        size = (k + 1) * SLOT_BITS // 8
        digits = [f"{e}," for e in range(self.total_degree() + 1)]
        terms = self.terms
        yield f'{{"vars":{k},"terms":['
        sep = "[["
        for key in _grevlex_sorted(terms):
            slots = utf_16_le_decode(key.to_bytes(size, "little"), "surrogatepass",
                                     True)[0]
            yield f'{sep}{slots[1:].translate(digits)[:-1]}],"{terms[key]}"]'
            sep = ",[["
        yield "]}"

    def to_json_obj(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return "".join(self.json_chunks())

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

    to_text = __repr__

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
        out: list = []
        _mul_add(out, self.coeffs, other.coeffs)
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        return _square_and_multiply(self, n, UniPoly.constant(1), UniPoly.__mul__)

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
    powers: dict = {}  # (i, e) -> images[i] ** e
    total = UniPoly()
    for key, c in a.terms.items():
        prod = UniPoly.constant(c)
        for i, e in enumerate(_unpack(key), start=1):
            if e:
                if i not in images:
                    raise ValueError(f"no image for variable X_{i}")
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                prod = prod * powers[i, e]
                if prod.is_zero():
                    break
        total = total + prod
    return total


Poly = Union[MultiPoly, UniPoly]


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
        for k in _grevlex_sorted(bad)
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
