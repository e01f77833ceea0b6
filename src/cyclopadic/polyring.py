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
  Powers are squared and multiplied on the same kernel as products.
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


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term maps whose degrees sum to at most MAX_DEGREE."""
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

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        if n == 0:
            return MultiPoly.one()
        if n == 1 or not self.terms:
            return self
        # deg(P^n) = n deg(P) over Z, so this is the only check needed, and
        # below it no slot of a sum of keys carries into the next
        _check_degree(n * self.total_degree())
        return MultiPoly(
            _square_and_multiply(self.terms, n, {0: 1}, _mul_terms), _raw=True
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
