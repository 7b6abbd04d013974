"""A small GF(p^h) arithmetic of the benchmark's own, used to check the
program's reports without calling the program.

Elements are encoded as ``unitals.gf`` documents them: the index of an
element is the base-p encoding of the coefficient vector of its polynomial
representative (constant term first), reduced modulo a monic irreducible
modulus whose coefficients are given in ascending order.  The tables are
built by plain polynomial arithmetic, with no logarithms, so that they
share nothing with the program's exp/log/Zech tables.
"""


def _digits(a, p, h):
    return [a // p**i % p for i in range(h)]


def _poly_mod_zero(coeffs, divisor, p):
    """Whether the monic ``divisor`` divides ``coeffs`` over GF(p)."""
    rem = list(coeffs)
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for j, b in enumerate(divisor):
                rem[top - d + j] = (rem[top - d + j] - c * b) % p
    return not any(rem[:d])


def irreducible_moduli(p, h):
    """Every monic irreducible polynomial of degree h over GF(p), as
    ascending coefficient tuples, in increasing order of their lower
    coefficients read as a base-p number."""
    out = []
    for k in range(p**h):
        cand = tuple(_digits(k, p, h)) + (1,)
        divisible = any(
            _poly_mod_zero(cand, tuple(_digits(j, p, deg)) + (1,), p)
            for deg in range(1, h // 2 + 1)
            for j in range(p**deg)
        )
        if not divisible:
            out.append(cand)
    return out


class Field:
    """GF(p^h) with the given ascending monic modulus."""

    def __init__(self, p, h, modulus):
        modulus = tuple(modulus)
        if len(modulus) != h + 1 or modulus[h] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {h}")
        self.p, self.h, self.order = p, h, p**h
        self.modulus = modulus
        m = self.order
        digits = [_digits(a, p, h) for a in range(m)]
        self._add = [[0] * m for _ in range(m)]
        self._mul = [[0] * m for _ in range(m)]
        for a in range(m):
            da = digits[a]
            for b in range(m):
                db = digits[b]
                self._add[a][b] = sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(da, db)))
                self._mul[a][b] = self._poly_mul(da, db)
        self._neg = [next(b for b in range(m) if self._add[a][b] == 0) for a in range(m)]

    @classmethod
    def from_report(cls, desc):
        """The field a report describes in its ``field`` entry."""
        return cls(desc["p"], desc["h"], desc["modulus"])

    def _poly_mul(self, da, db):
        p, h = self.p, self.h
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * h - 2, h - 1, -1):
            c = prod[top]
            if c:
                for j in range(h + 1):
                    prod[top - h + j] = (prod[top - h + j] - c * self.modulus[j]) % p
        return sum(prod[i] * p**i for i in range(h))

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def pow(self, a, k):
        out = 1
        for _ in range(k):
            out = self._mul[out][a]
        return out

    def inv(self, a):
        return next(b for b in range(1, self.order) if self._mul[a][b] == 1)

    def is_field(self):
        """Every nonzero element has an inverse (the modulus is irreducible)."""
        return all(any(self._mul[a][b] == 1 for b in range(1, self.order)) for a in range(1, self.order))

    def squares(self):
        """Nonzero squares."""
        return {self._mul[a][a] for a in range(1, self.order)}

    def nonsquares(self):
        sq = self.squares()
        return sorted(a for a in range(1, self.order) if a not in sq)

    def subfield(self, q):
        """The q elements fixed by x -> x^q."""
        return sorted(a for a in range(self.order) if self.pow(a, q) == a)

    def normalize(self, vec):
        """Projective representative with first nonzero coordinate 1."""
        lead = next(c for c in vec if c)
        inv = self.inv(lead)
        return tuple(self._mul[inv][c] for c in vec)

    def rank(self, rows):
        """Rank of a matrix given as a list of rows."""
        rows = [list(r) for r in rows]
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = self.inv(rows[rank][col])
            rows[rank] = [self._mul[inv][x] for x in rows[rank]]
            for i in range(len(rows)):
                f = rows[i][col]
                if i != rank and f:
                    rows[i] = [self.sub(x, self._mul[f][y]) for x, y in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def symmetric_rank(self, v):
        """Rank of the symmetric matrix ((v0,v3,v4),(v3,v1,v5),(v4,v5,v2))."""
        a11, a22, a33, a12, a13, a23 = v
        return self.rank([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])

    def conic_value(self, coeffs, point):
        """a11 x^2 + a22 y^2 + a33 z^2 + 2 a12 xy + 2 a13 xz + 2 a23 yz."""
        a11, a22, a33, a12, a13, a23 = coeffs
        x, y, z = point
        mul, add = self.mul, self.add
        two = add(1, 1)
        square = add(add(mul(a11, mul(x, x)), mul(a22, mul(y, y))), mul(a33, mul(z, z)))
        cross = add(add(mul(a12, mul(x, y)), mul(a13, mul(x, z))), mul(a23, mul(y, z)))
        return add(square, mul(two, cross))

    def plane_points(self):
        """Every point of PG(2,order), normalised."""
        m = self.order
        pts = [(1, y, z) for y in range(m) for z in range(m)]
        pts += [(0, 1, z) for z in range(m)]
        return pts + [(0, 0, 1)]
