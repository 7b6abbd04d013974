"""Exact arithmetic in GF(p^h) backed by exp/log and Zech-logarithm tables.

An element is a plain int in [0, p^h): the index is the base-p encoding of
the coefficient vector of its polynomial representative, so 0 is the zero
element and 1 is the one element.  A ``GF`` instance is immutable after
construction and all operations are pure functions of their arguments.

For small fields (order <= ``TABLE_LIMIT``) dense numpy operation tables
are built on first use, and ``vadd`` and ``vmul`` add and multiply arrays
of elements, in the field's ``dtype``, with one gather from them each.
"""

from functools import lru_cache

import numpy as np

TABLE_LIMIT = 4096  # largest order for which dense m x m numpy tables are built
_INT = (int, np.integer)


def check_order(p: int, h: int) -> None:
    """Refuse the order p^h past the 2^16 table budget, before any factoring."""
    if p > 1 and (h > 16 or p**h > 1 << 16):  # any p > 1 exceeds it when h > 16
        raise ValueError(f"order {p}^{h} exceeds the 2^16 table budget")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are tuples of int coefficients
# in ascending degree order with no trailing zeros (except the zero poly ()).


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(a, b, p):
    a = list(a)
    db, lead_inv = len(b) - 1, pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] * lead_inv % p
        if f:
            q[i - db] = f
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - f * bj) % p
    return _poly_trim(q), _poly_trim(a)


def is_irreducible(p: int, coeffs) -> bool:
    """Trial division of a monic polynomial by every monic divisor of
    degree at most deg/2."""
    coeffs = _poly_trim(coeffs)
    h = len(coeffs) - 1
    if h < 1:
        return False
    if h == 1:
        return True
    for deg in range(1, h // 2 + 1):
        for k in range(p**deg):
            div = [k // p**i % p for i in range(deg)] + [1]
            _, r = _poly_divmod(coeffs, div, p)
            if not r:
                return False
    return True


def default_modulus(p: int, h: int):
    """First irreducible monic degree-h polynomial in the deterministic scan
    order (lower coefficients counted up in base p)."""
    if h == 1:
        return (0, 1)
    for k in range(p**h):
        cand = tuple(k // p**i % p for i in range(h)) + (1,)
        if is_irreducible(p, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _built_on_first_use(build):
    """Read-only property whose value ``build(self)`` is computed on first
    use and kept in a plain attribute.  ``functools.cached_property`` would
    store it through the instance ``__dict__``; on CPython 3.11 that access
    turns off the fast attribute lookup for the instance, and every later
    scalar ``GF.mul`` on the field ran about 1.8x slower."""
    attr = "_" + build.__name__

    def get(self):
        if not hasattr(self, attr):
            setattr(self, attr, build(self))
        return getattr(self, attr)

    return property(get, doc=build.__doc__)


class GF:
    """The finite field GF(p^h) with a fixed modulus and primitive element."""

    def __init__(self, p: int, h: int = 1, modulus=None):
        if h < 1:
            raise ValueError("exponent must be positive")
        check_order(p, h)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, h)
        else:
            modulus = tuple(modulus)
            bad = [c for c in modulus if not 0 <= c < p]
            if bad:
                raise ValueError(f"modulus coefficient {bad[0]} is not in 0..{p - 1}")
            if len(modulus) != h + 1 or modulus[h] != 1:
                raise ValueError(f"modulus must be monic of degree {h}")
            if not is_irreducible(p, modulus):
                raise ValueError(f"modulus {modulus} factors over GF({p})")
        self.p = p
        self.h = h
        self.order = p**h
        self.dtype = np.dtype(np.uint8 if self.order <= 256 else np.uint16)  # of every array of elements
        self.modulus = modulus
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _poly_mul(self, a: int, b: int) -> int:
        p, h, m = self.p, self.h, self.order
        da = [a // p**i % p for i in range(h)]
        db = [b // p**i % p for i in range(h)]
        prod = [0] * (2 * h - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce x^k for k >= h using x^h = -(lower part of modulus)
        for k in range(2 * h - 2, h - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(h):
                    prod[k - h + i] = (prod[k - h + i] - c * self.modulus[i]) % p
        return sum(prod[i] * p**i for i in range(h))

    def _build_tables(self):
        m = self.order
        # find the first primitive element by index order (1 generates the
        # trivial group of GF(2))
        for cand in range(2, m) if m > 2 else (1,):
            exp = [1] * (m - 1)
            x, n = 1, 0
            while True:
                x = self._poly_mul(x, cand)
                n += 1
                if x == 1:
                    break
                if n < m - 1:
                    exp[n] = x
            if n == m - 1:
                self.generator = cand
                break
        else:
            raise AssertionError("no primitive element")  # unreachable
        log = [0] * m
        for i, e in enumerate(exp):
            log[e] = i
        self._exp = exp
        self._log = log
        # -a = (-1)*a, and -1 is the element p-1
        log_minus_one = log[self.p - 1]
        self._neg = [0] + [exp[(log[a] + log_minus_one) % (m - 1)] for a in range(1, m)]
        # Zech logarithms: zech[k] = log(1 + g^k), -1 when 1 + g^k = 0;
        # adding 1 changes only the lowest base-p digit
        p = self.p
        self._zech = [log[s] if s else -1 for s in (e - e % p + (e + 1) % p for e in exp)]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.h, self.modulus) == (other.p, other.h, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.h, self.modulus))

    def __repr__(self):
        return f"GF({self.order})"

    def describe(self) -> dict:
        """Field description used in every report: modulus coefficients ascending."""
        return {"p": self.p, "h": self.h, "order": self.order, "modulus": list(self.modulus)}

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        la, lb = self._log[a], self._log[b]
        z = self._zech[(lb - la) % (self.order - 1)]
        if z < 0:
            return 0
        return self._exp[(la + z) % (self.order - 1)]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[self._log[a] * k % (self.order - 1)]

    # -- squares ----------------------------------------------------------

    def is_square(self, a: int) -> bool:
        return a == 0 or self.p == 2 or self._log[a] % 2 == 0

    def nonsquares(self):
        """Non-squares in increasing index order (empty in even characteristic)."""
        return [e for e in range(1, self.order) if not self.is_square(e)]

    def squares(self):
        """Nonzero squares in increasing index order."""
        return [e for e in range(1, self.order) if self.is_square(e)]

    # -- subfield machinery ----------------------------------------------------

    def subfield_elements(self, small_order: int):
        """The q fixed points of x -> x^q inside this field of order q^2."""
        if small_order * small_order != self.order:
            raise ValueError(f"{small_order}^2 != {self.order}")
        q = small_order
        elems = [0] + [self._exp[j * (q + 1)] for j in range(q - 1)]
        return tuple(sorted(elems))

    def require_element(self, a: int, what: str = "element") -> int:
        """a as a Python int, when it is a field element: an integer (numpy
        integers included, bool not) in 0..order-1; ValueError otherwise."""
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise ValueError(f"{what} {a} is not a field element (0..{self.order - 1})")
        return int(a)

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    # -- dense numpy tables for vectorised sweeps -------------------------------

    def row_offsets(self, a):
        """a*order for an array a of field elements, in the narrowest
        unsigned dtype that holds every index below order^2: the offset of
        row a in an order x order table's ``ravel()``, where table[a, b]
        sits at a*order + b, as ``vadd`` and ``vmul`` read it.  On large
        arrays a flat gather at such narrow indices ran about 3x faster
        than the 2-D table[a, b]."""
        return a.astype(np.uint16 if self.order <= 256 else np.uint32) * self.order

    def vadd(self, a, b):
        """a + b elementwise over ints or broadcasting arrays of elements."""
        try:
            flat = self._add_flat
        except AttributeError:
            flat = self._add_flat = self.add_table.ravel()
        return self._gather(flat, a, b)

    def vmul(self, a, b):
        """a * b elementwise over ints or broadcasting arrays of elements."""
        try:
            flat = self._mul_flat
        except AttributeError:
            flat = self._mul_flat = self.mul_table.ravel()
        return self._gather(flat, a, b)

    def _gather(self, flat, a, b):
        """flat[a*order + b] from the flat view, a plain attribute (a property
        read costs a hasattr and a getattr), of a commutative operation's
        table; an int operand reads its own row.  No entry is range-checked."""
        if isinstance(b, _INT):
            a, b = b, a
        if isinstance(a, _INT):
            lo = int(a) * self.order
            return flat[lo : lo + self.order][b]
        return flat[self.row_offsets(a) + b]

    @_built_on_first_use
    def add_table(self):
        if self.order > TABLE_LIMIT:
            raise ValueError(f"order {self.order} too large for dense tables")
        idx = np.arange(self.order)
        out = np.zeros((self.order, self.order), dtype=np.int64)
        for k in range(self.h):
            d = idx // self.p**k % self.p
            out += (d[:, None] + d[None, :]) % self.p * self.p**k
        return out.astype(self.dtype)

    @_built_on_first_use
    def mul_table(self):
        if self.order > TABLE_LIMIT:
            raise ValueError(f"order {self.order} too large for dense tables")
        lg = self.log_table
        out = self.exp_table[(lg[:, None] + lg[None, :]) % (self.order - 1)]
        out[0, :] = 0
        out[:, 0] = 0
        return out

    @_built_on_first_use
    def log_table(self):
        """int64 discrete logarithm of every element to the base
        ``generator``; the entry of 0 is 0 and means nothing."""
        return np.array(self._log, dtype=np.int64)

    @_built_on_first_use
    def exp_table(self):
        """generator**k for k in 0..order-2."""
        return np.array(self._exp, dtype=self.dtype)

    @_built_on_first_use
    def inv_table(self):
        """Inverse of every element, with 0 mapped to 0."""
        return np.array([0] + [self.inv(a) for a in self.units()], dtype=self.dtype)

    @_built_on_first_use
    def neg_table(self):
        return np.array(self._neg, dtype=self.dtype)

    @_built_on_first_use
    def character_table(self):
        """int8 table: 0 for zero, 1 for nonzero squares, -1 for non-squares."""
        nonsquare = (self.log_table % 2 == 1) & (self.p != 2)
        return np.select([np.arange(self.order) == 0, nonsquare], [0, -1], 1).astype(np.int8)


@lru_cache(maxsize=None)
def field(p: int, h: int = 1, modulus=None) -> GF:
    """Memoised field constructor; modulus as a tuple of ascending coefficients."""
    return GF(p, h, modulus)
