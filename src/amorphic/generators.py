"""Desk-scale corpus constructors: net (slope-grouping) schemes on n^2
points, cyclotomic schemes over small prime-power fields, binary Hamming
schemes, and the one-class scheme.

Each is a translation scheme of an abelian group G, ``labels[x, y] =
row0[y - x]``: GF(n)^2, GF(q), Z_2^m and Z_v.  A generator computes only
row 0 and the subtraction table of G, in the smallest integer dtype that
holds its indices (uint8 up to v = 256, uint16 up to 65536), and
:func:`~amorphic.core._translation_scheme` checks the axioms on row 0 and
reads the intersection tensor off it, in O(v^2), with labels in the
smallest dtype that holds d; no v x v int64 array is made.  The v x v
:func:`~amorphic.core.validate_scheme` is left to files and relabelled
matrices, which carry no group.  Closure on row 0 is sound only when the
subtraction table is one of a group, so :class:`SmallField` checks the
field axioms on its tables and raises :class:`FieldUnsupported` when one
fails.

GF(n) is supported for the primes up to 31 and for 4, 8, 9, 16, 25, 27,
32, 49, 64 and 81 (``SUPPORTED_FIELD_ORDERS``).  A prime power's tables
are array operations on the base-p digits of its elements: one broadcast
polynomial product, reduced by an irreducible modulus from
``_IRREDUCIBLE``.  A scheme above ``MAX_POINTS`` = 6561 points, the net on
GF(81)^2, raises :class:`LimitExceeded` before any v x v table is made."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    AssociationScheme,
    _translation_scheme,
    validate_scheme,  # unused here; bench/selftest.py looks the binding up in this module
)
from .errors import FieldUnsupported, LimitExceeded, NotSymmetric

__all__ = [
    "SmallField",
    "SlopeGrouping",
    "CyclotomicSpec",
    "gen_net_scheme",
    "gen_cyclotomic",
    "gen_hamming_binary",
    "gen_complete",
    "SUPPORTED_FIELD_ORDERS",
]

MAX_POINTS = 81 * 81

# irreducible polynomial coefficients, lowest degree first, for each
# supported prime power; prime fields need none
_IRREDUCIBLE = {
    4: (1, 1, 1),        # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),     # x^3 + x + 1
    9: (1, 0, 1),        # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 0, 1),       # x^2 + 2 over GF(5)
    27: (1, 2, 0, 1),    # x^3 + 2x + 1 over GF(3)
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    49: (1, 0, 1),       # x^2 + 1 over GF(7)
    64: (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    81: (2, 1, 0, 0, 1),  # x^4 + x + 2 over GF(3)
}

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SUPPORTED_FIELD_ORDERS = frozenset(_PRIMES) | frozenset(_IRREDUCIBLE)


def _char_of(n: int) -> tuple[int, int]:
    for p in _PRIMES:
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        if m == 1 and e >= 1:
            return p, e
    raise FieldUnsupported(f"order {n} is not a supported prime power")


class SmallField:
    """GF(n) via full addition/multiplication tables.

    Elements are integers 0..n-1 encoding base-p digit vectors (so 0 and 1
    are the additive and multiplicative identities).  The field axioms are
    verified on the tables at construction.
    """

    def __init__(self, n: int):
        if n not in SUPPORTED_FIELD_ORDERS:
            raise FieldUnsupported(f"no construction table for order {n}")
        self.order = n
        self.p, self.e = _char_of(n)
        self.modulus = _IRREDUCIBLE.get(n)

        self.add, self.mul = _poly_tables(self.p, self.e, self.modulus)
        self._check_axioms()
        self.neg = np.argmax(self.add == 0, axis=1)

    def _check_axioms(self):
        """Raise :class:`FieldUnsupported` naming the first field axiom the
        tables break.  The translation schemes built on GF(n) are only
        sound when addition is an abelian group, so this is no ``assert``,
        which ``python -O`` strips."""
        n, add, mul = self.order, self.add, self.mul
        idx = np.arange(n)
        axioms = {
            "commutativity": np.array_equal(add, add.T) and np.array_equal(mul, mul.T),
            "identities": (np.array_equal(add[0], idx) and np.array_equal(mul[1], idx)
                           and not mul[0].any()),
            "additive inverses": (add == 0).any(axis=1).all(),
            # (a+b)+c == a+(b+c), (a*b)*c == a*(b*c), (a+b)*c == a*c + b*c
            "associativity": (np.array_equal(add[add[:, :, None], idx[None, None, :]],
                                             add[idx[:, None, None], add[None, :, :]])
                              and np.array_equal(mul[mul[:, :, None], idx[None, None, :]],
                                                 mul[idx[:, None, None], mul[None, :, :]])),
            "distributivity": np.array_equal(mul[add[:, :, None], idx[None, None, :]],
                                             add[mul[:, None, :], mul[None, :, :]]),
            "multiplicative inverses": (mul[1:] == 1).any(axis=1).all(),
        }
        for name, holds in axioms.items():
            if not holds:
                raise FieldUnsupported(f"the tables for order {n} break the field axiom: {name}")

    def multiplicative_generator(self) -> int:
        n = self.order
        if n == 2:
            return 1
        for g in range(2, n):
            x, order = g, 1
            while x != 1:
                x = int(self.mul[x, g])
                order += 1
            if order == n - 1:
                return g
        raise FieldUnsupported(f"no generator found for order {n}")  # unreachable


def _poly_tables(p: int, e: int, modulus) -> tuple[np.ndarray, np.ndarray]:
    """The addition and multiplication tables of GF(p^e) = GF(p)[x] /
    (modulus), element x encoding the polynomial whose coefficients are
    the base-p digits of x, lowest degree first; a prime field (e = 1)
    needs no modulus.

    All n^2 products are one broadcast polynomial product of digit arrays,
    reduced by the monic modulus from the highest degree down."""
    n = p ** e
    power = p ** np.arange(e)
    digits = np.arange(n)[:, None] // power % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ power
    # place[s, t, u] = 1 when s = t + u: coefficient s of a product
    place = np.arange(2 * e - 1)[:, None, None] == np.add.outer(np.arange(e), np.arange(e))
    prod = np.einsum("at,bu,stu->abs", digits, digits, place.astype(np.int64)) % p
    for deg in range(2 * e - 2, e - 1, -1):
        prod[:, :, deg - e:deg + 1] = (prod[:, :, deg - e:deg + 1]
                                       - prod[:, :, deg:deg + 1] * np.array(modulus)) % p
    return add, prod[:, :, :e] @ power


@lru_cache(maxsize=None)
def _field(n: int) -> SmallField:
    return SmallField(n)


@dataclass(frozen=True)
class SlopeGrouping:
    """Partition of the n+1 parallel classes of the affine plane AG(2, n).

    Slopes are named by field-element index, with the vertical direction
    (infinity) last, at index n.
    """

    n: int
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def from_groups(cls, n: int, groups) -> "SlopeGrouping":
        norm = tuple(sorted(tuple(sorted(set(g))) for g in groups if len(g)))
        flat = sorted(i for g in norm for i in g)
        if flat != list(range(n + 1)):
            raise ValueError(f"groups {groups} do not partition the {n + 1} slopes")
        return cls(n=n, groups=norm)

    @classmethod
    def singletons(cls, n: int) -> "SlopeGrouping":
        return cls.from_groups(n, [[i] for i in range(n + 1)])

    @property
    def d(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class CyclotomicSpec:
    q: int
    d: int
    generator: int | None = None


def gen_net_scheme(n: int, grouping: SlopeGrouping) -> AssociationScheme:
    """Points are the affine plane over GF(n); two points fall in class i
    when the slope of their connecting line lies in slope group i."""
    F = _field(n)
    if grouping.n != n:
        raise ValueError(f"grouping is for n={grouping.n}, field has order {n}")
    v = n * n
    group_of = np.empty(n + 1, dtype=np.int64)
    for gi, g in enumerate(grouping.groups):
        for s in g:
            group_of[s] = gi

    # point p = (x, y) = divmod(p, n); the slope from the origin to p is
    # y / x, or vertical (index n) when x == 0
    x, y = np.divmod(np.arange(v), n)
    inv = np.argmax(F.mul == 1, axis=1)  # inv[0] is unused
    row0 = group_of[np.where(x == 0, n, F.mul[y, inv[x]])] + 1
    row0[0] = 0
    # g - a coordinatewise over GF(n)^2; (n - 1) n + n - 1 = v - 1 fits
    add = F.add.astype(np.min_scalar_type(v - 1))
    sub = add[x[:, None], F.neg[x][None, :]]
    sub *= n
    sub += add[y[:, None], F.neg[y][None, :]]
    return _translation_scheme(row0, sub, grouping.d)


def gen_cyclotomic(spec: CyclotomicSpec) -> AssociationScheme:
    """Points are GF(q); x ~ y in class i when x - y lies in the i-th coset
    of the index-d subgroup of the multiplicative group.

    Symmetry needs -1 inside the subgroup: q even, or (q-1)/d even.
    """
    q, d = spec.q, spec.d
    F = _field(q)
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"d={d} must divide q-1={q - 1}")
    g = spec.generator if spec.generator is not None else F.multiplicative_generator()
    if not 1 <= g < q:
        raise ValueError(f"generator {g} is not a nonzero element 1..{q - 1} of GF({q})")

    dlog = np.full(q, -1, dtype=np.int64)
    x, e = 1, 0
    while dlog[x] < 0:
        dlog[x] = e
        x = int(F.mul[x, g])
        e += 1
    if e != q - 1:
        raise ValueError(f"{g} does not generate the multiplicative group of GF({q})")

    minus_one = int(F.neg[1])
    if dlog[minus_one] % d != 0:
        raise NotSymmetric(
            f"-1 lies outside the index-{d} subgroup of GF({q})*; "
            "the cosets would give directed relations")

    row0 = dlog % d + 1
    row0[0] = 0
    idx = np.arange(q)
    sub = F.add.astype(np.min_scalar_type(q - 1))[idx[:, None], F.neg[idx][None, :]]  # g - a
    return _translation_scheme(row0, sub, d)


def gen_hamming_binary(m: int) -> AssociationScheme:
    """H(m, 2): points are binary m-tuples, class = Hamming distance."""
    top = MAX_POINTS.bit_length() - 1  # the largest m with 2^m <= MAX_POINTS
    if not 1 <= m <= top:
        raise LimitExceeded(f"m must be in 1..{top}, got {m}")
    v = 1 << m
    pts = np.arange(v, dtype=np.min_scalar_type(v - 1))
    row0 = np.zeros(v, dtype=np.int64)
    for bit in range(m):
        row0 += (pts >> bit) & 1
    # over Z_2^m, g - a is g xor a
    return _translation_scheme(row0, pts[:, None] ^ pts[None, :], m)


def gen_complete(v: int) -> AssociationScheme:
    """The 1-class scheme K_v."""
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    if v > MAX_POINTS:
        raise LimitExceeded(f"v = {v} is above the generators' limit of {MAX_POINTS} points")
    # signed and holding v itself: g - a goes below 0 before the % v
    pts = np.arange(v, dtype=np.min_scalar_type(-v - 1))
    row0 = np.ones(v, dtype=np.int64)
    row0[0] = 0
    # the cyclic group Z_v
    return _translation_scheme(row0, (pts[:, None] - pts[None, :]) % v, 1)
