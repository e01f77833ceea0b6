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
* :class:`UniPoly` -- dense univariate polynomials, coefficient list
  indexed by degree.

Coefficientwise congruence mod m*Z_p is provided by :func:`congruent_mod`,
on top of :meth:`MultiPoly.nondivisible_terms`.
"""
from __future__ import annotations

import json
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


def _add_scaled(acc: dict, src: dict, scale: int, step: int = 0) -> None:
    """In-place acc += scale * src, times the monomial with packed key step.

    The caller checks that the shifted degrees stay within MAX_DEGREE.
    """
    if not scale:
        return
    get = acc.get
    for k, c in src.items():
        k += step
        v = get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            del acc[k]


def _shift_accumulate(acc: dict, src: "MultiPoly", var: int, scale: int) -> None:
    """In-place acc += scale * X_var * src on a packed term map (var 1-based)."""
    if var < 1:
        raise ValueError("variable index is 1-based")
    _check_degree(src.total_degree() + 1)
    _add_scaled(acc, src.terms, scale, 1 | 1 << SLOT_BITS * var)


class MultiPoly:
    """Immutable sparse multivariate polynomial with integer coefficients."""

    # _degree caches total_degree(), read before every product and shift
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

    def nondivisible_terms(self, q: int) -> list:
        """The terms whose coefficient q does not divide, as sorted_terms() does.

        Only those terms are sorted and unpacked, so a congruent difference
        costs one remainder per term.
        """
        bad = [k for k, c in self.terms.items() if c % q]
        return [(_unpack(k), self.terms[k]) for k in sorted(bad, key=_grevlex)]

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


def congruent_mod(a: Poly, b: Poly, m: int, ctx: PadicContext):
    """Coefficientwise test of a = b (mod m*Z_p).

    Returns (True, None) on success, else (False, witness) where the witness
    names the first offending monomial, the coefficient difference, and the
    observed/required valuations.
    """
    if m == 0:
        raise ValueError("modulus m must be nonzero")
    req = ctx.vp(m)

    if isinstance(a, int):
        a = MultiPoly.constant(a)
    if isinstance(b, int):
        b = (
            UniPoly.constant(b)
            if isinstance(a, UniPoly)
            else MultiPoly.constant(b)
        )

    if isinstance(a, UniPoly) and isinstance(b, UniPoly):
        diff = a - b
        for d, c in enumerate(diff.coeffs):
            if c and ctx.vp(c) < req:
                return False, {
                    "degree": d,
                    "difference": c,
                    "observed_vp": ctx.vp(c),
                    "required_vp": req,
                }
        return True, None

    if isinstance(a, MultiPoly) and isinstance(b, MultiPoly):
        bad = (a - b).nondivisible_terms(ctx.p**req)
        if bad:
            e, c = bad[0]
            return False, {
                "exponents": list(e),
                "difference": c,
                "observed_vp": ctx.vp(c),
                "required_vp": req,
            }
        return True, None

    raise TypeError("congruent_mod requires two polynomials of the same kind")
