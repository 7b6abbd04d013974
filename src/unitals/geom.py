"""Points, lines and incidence for PG(2,n) and PG(5,n).

Points are normalised coordinate tuples (first nonzero coordinate 1) of
field-element indices.  The canonical point index enumerates normalised
vectors in lexicographic order; lines of PG(2,n) are enumerated by the same
scheme through their dual vectors.  The incidence of PG(2,n) is one
(npoints, n+1) int32 array, ``ProjectiveSpace.lines``, whose row li lists
the points of line li in increasing order.  A point set is a boolean
membership array (``PointSet``); ``line_counts`` is the one place that
counts the points of a set on each line, and ``tangent_counts`` the one
place that counts its tangent lines through each point.  PG(5,n) has no
line objects: a line there is the n+1 points ``span`` gives for a point
pair, indexed with ``index_rows``.

Everything here is immutable after construction; the line table and the
membership arrays are read-only.
"""

from functools import lru_cache

import numpy as np

from .gf import GF


# line-table entries written per block of duals: PG(2,81) is one block
_LINE_BLOCK_ENTRIES = 1 << 20


class UnsupportedDimension(ValueError):
    pass


class CoincidentPoints(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class ProjectiveSpace:
    """PG(d,n) for d in {2,5} over the field F of order n."""

    def __init__(self, F: GF, dim: int):
        if dim not in (2, 5):
            raise UnsupportedDimension(f"dim {dim} not supported")
        self.field = F
        self.dim = dim
        m = F.order
        self.npoints = sum(m**k for k in range(dim + 1))
        # block of points whose leading one sits at position i starts here
        self._offsets = [(m ** (dim - i) - 1) // (m - 1) for i in range(dim + 1)]
        self._coords_array = None
        self._point_cache = None
        if dim == 2:
            self._point_cache = tuple(map(tuple, self.coords_array().tolist()))
            self.lines = self._build_lines()

    def __repr__(self):
        return f"PG({self.dim},{self.field.order})"

    # -- canonical enumeration ------------------------------------------------

    def normalize(self, vec):
        F = self.field
        vec = tuple(vec)
        for i, c in enumerate(vec):
            if c:
                if c == 1:
                    return vec
                inv = F.inv(c)
                return tuple(0 if j < i else F.mul(inv, x) for j, x in enumerate(vec))
        raise ValueError("zero vector has no projective point")

    def index(self, coords) -> int:
        """Canonical index of a normalised point."""
        m, d = self.field.order, self.dim
        i = next(t for t, c in enumerate(coords) if c)
        idx = self._offsets[i]
        for t in range(i + 1, d + 1):
            # int(): a numpy row's fixed-width coordinates would overflow
            idx += int(coords[t]) * m ** (d - t)
        return idx

    def point(self, idx: int):
        """Normalised coordinates of the point with the given index."""
        if self._point_cache is not None:
            return self._point_cache[idx]
        return self._point(idx)

    def _point(self, idx: int):
        m, d = self.field.order, self.dim
        # offsets decrease with the leading position; pick the block containing idx
        lead = next(i for i in range(d + 1) if idx >= self._offsets[i])
        rem = idx - self._offsets[lead]
        coords = [0] * (d + 1)
        coords[lead] = 1
        for t in range(d, lead, -1):
            coords[t] = rem % m
            rem //= m
        return tuple(coords)

    def points(self):
        """All points in canonical order."""
        if self._point_cache is not None:
            return list(self._point_cache)
        return [self._point(i) for i in range(self.npoints)]

    def coords_array(self):
        """(npoints, dim+1) numpy array of all normalised points, cached; its
        transpose is C-contiguous, one row per coordinate."""
        if self._coords_array is None:
            self._coords_array = point_array(self.field.order, self.dim)
        return self._coords_array

    def index_rows(self, rows):
        """Canonical indices (int64) of the points spanned by the rows of an
        (m, dim+1) array of field elements: normalize and index, row by row,
        in numpy.  A zero row spans no point and raises ValueError."""
        F = self.field
        m, d = F.order, self.dim
        rows = np.asarray(rows)
        lead = (rows != 0).argmax(axis=1)
        leading = rows[np.arange(len(rows)), lead]
        if not leading.all():
            raise ValueError(f"row {int(np.argmin(leading))} is zero and spans no projective point")
        scale = F.inv_table[leading]
        weights = m ** np.arange(d, -1, -1, dtype=np.int64)
        # the leading coordinate scales to 1, which the block offset replaces
        idx = np.asarray(self._offsets, dtype=np.int64)[lead] - weights[lead]
        for t in range(d + 1):
            idx += F.mul_table[scale, rows[:, t]].astype(np.int64) * weights[t]
        return idx

    # -- lines -----------------------------------------------------------------

    def _build_lines(self):
        """(npoints, n+1) int32 array: row li holds the sorted indices of the
        points of the line L.x = 0 whose dual vector L is the point with
        index li.

        With l2 != 0 the line holds Q = (0, 1, q), q = -l1/l2, and the points
        P + lam*Q of P = (1, 0, p), p = -l0/l2, all normalised: the row is
        1 + q, then n+1 + n*lam + (p + lam*q) for lam = 0..n-1, in increasing
        order.  With l2 = 0 it holds (0, 0, 1), index 0, and the n points
        (1, b, lam), b = -l0/l1, or (0, 1, lam) when l1 = 0 too.  The rows
        are written into the table a block of duals at a time, so that the
        temporaries stay at two bytes per entry of one block."""
        F = self.field
        m = F.order
        out = np.empty((self.npoints, m + 1), dtype=np.int32)
        lam = np.arange(m)
        block = max(1, _LINE_BLOCK_ENTRIES // (m + 1))
        for start in range(0, self.npoints, block):
            l0, l1, l2 = self.coords_array()[start : start + block].T
            misses_z = l2 != 0  # the line misses (0, 0, 1)
            q = F.neg_table[F.mul_table[l1, F.inv_table[l2]]]
            p = F.neg_table[F.mul_table[l0, F.inv_table[l2]]]
            b = F.neg_table[F.mul_table[l0, F.inv_table[l1]]].astype(np.int32)
            rows = out[start : start + block]
            rows[:, 0] = np.where(misses_z, 1 + q.astype(np.int32), 0)
            tail = rows[:, 1:]
            np.multiply(np.where(misses_z, m, 1)[:, None], lam, out=tail)
            tail += np.where(misses_z, m + 1, np.where(l1 != 0, m + 1 + m * b, 1))[:, None]
            tail += F.add_table[p[:, None], F.mul_table[lam, q[:, None]]]
        out.flags.writeable = False
        return out

    def line_index(self, dual) -> int:
        return self.index(self.normalize(dual))

    def line_through(self, P, Q):
        """The normalised dual vector of the unique line through two distinct
        points of PG(2,n)."""
        if self.dim != 2:
            raise UnsupportedDimension("lines are only built in PG(2,n)")
        P, Q = tuple(P), tuple(Q)
        if self.normalize(P) == self.normalize(Q):
            raise CoincidentPoints(f"{P} and {Q} coincide")
        F = self.field
        u = F.sub(F.mul(P[1], Q[2]), F.mul(P[2], Q[1]))
        v = F.sub(F.mul(P[2], Q[0]), F.mul(P[0], Q[2]))
        w = F.sub(F.mul(P[0], Q[1]), F.mul(P[1], Q[0]))
        return self.normalize((u, v, w))

    def points_on_line(self, line):
        """Points of a line of PG(2,n), given as a dual vector or a line
        index, in canonical index order, as coordinate tuples."""
        li = line if isinstance(line, int) else self.line_index(line)
        return [self.point(i) for i in self.lines[li].tolist()]


def span(F: GF, P, Q):
    """Representatives of the n+1 points of the line PQ, not normalised: a
    (..., n+1, d+1) array in the field's table dtype holding Q, then
    P + lambda*Q for every lambda in F.  P and Q are (..., d+1) arrays of
    field elements and broadcast against each other, so a batch of point
    pairs gives a batch of lines."""
    m = F.order
    dt = F.add_table.dtype
    # C order: a slice of a coordinate-major array would make every
    # temporary below strided
    P, Q = np.ascontiguousarray(P, dtype=dt), np.ascontiguousarray(Q, dtype=dt)
    shape = np.broadcast_shapes(P.shape, Q.shape)
    out = np.empty(shape[:-1] + (m + 1, shape[-1]), dtype=dt)
    out[..., 0, :] = Q
    lam_q = F.mul_table[np.arange(m)[:, None], Q[..., None, :]]
    # a flat-table gather on narrow indices (< m^2) is ~3x faster than add_table[P, lam_q]
    wide = np.uint16 if m <= 256 else np.uint32
    out[..., 1:, :] = F.add_table.ravel()[(P.astype(wide) * m)[..., None, :] + lam_q]
    return out


def point_array(m: int, d: int):
    """(npoints, d+1) array of the normalised points of PG(d,m) in canonical
    order: the transpose of a coordinate-major (d+1, npoints) array, so that
    each coordinate is one contiguous row.

    The points whose leading one sits at position i form the block at
    offset (m^(d-i) - 1)/(m - 1), which counts the later coordinates in
    base m; the blocks come in decreasing i.  So row t is 0 on the blocks
    of i > t, 1 on the block of i = t, and after it one periodic run:
    each digit m^(d-t) times, period m^(d-t+1), which divides the size of
    every later block.  The first period is written and then copied over
    the rest of the row, doubling the written part each time."""
    dt = np.uint8 if m <= 256 else np.uint16
    out = np.empty((d + 1, (m ** (d + 1) - 1) // (m - 1)), dtype=dt)
    for t, row in enumerate(out):
        start, run = (m ** (d - t) - 1) // (m - 1), m ** (d - t)
        row[:start] = 0
        row[start : start + run] = 1
        tail = row[start + run :]
        if len(tail):
            tail[: run * m].reshape(m, run)[:] = np.arange(m, dtype=dt)[:, None]
            done = run * m
            while done < len(tail):
                k = min(done, len(tail) - done)
                tail[done : done + k] = tail[:k]
                done += k
    return out.T


@lru_cache(maxsize=None)
def projective_space(F: GF, dim: int) -> ProjectiveSpace:
    return ProjectiveSpace(F, dim)


def projective_plane(F: GF) -> ProjectiveSpace:
    return projective_space(F, 2)


# -- 3x3 matrices over a field ----------------------------------------------


def det3(F: GF, M) -> int:
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    t1 = F.mul(a, F.sub(F.mul(e, i), F.mul(f, h)))
    t2 = F.mul(b, F.sub(F.mul(d, i), F.mul(f, g)))
    t3 = F.mul(c, F.sub(F.mul(d, h), F.mul(e, g)))
    return F.add(F.sub(t1, t2), t3)


def matvec3(F: GF, M, v):
    return tuple(
        F.add(F.add(F.mul(row[0], v[0]), F.mul(row[1], v[1])), F.mul(row[2], v[2]))
        for row in M
    )


def matmul3(F: GF, A, B):
    return tuple(
        tuple(
            F.add(F.add(F.mul(A[i][0], B[0][j]), F.mul(A[i][1], B[1][j])), F.mul(A[i][2], B[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


def transpose3(M):
    return tuple(tuple(M[j][i] for j in range(3)) for i in range(3))


def inv3(F: GF, M):
    det = det3(F, M)
    if det == 0:
        raise SingularMatrix("matrix is singular")
    dinv = F.inv(det)
    cof = [[0] * 3 for _ in range(3)]
    idx = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        for j in range(3):
            r1, r2 = idx[i]
            c1, c2 = idx[j]
            minor = F.sub(F.mul(M[r1][c1], M[r2][c2]), F.mul(M[r1][c2], M[r2][c1]))
            cof[i][j] = F.mul(dinv, minor if (i + j) % 2 == 0 else F.neg(minor))
    return tuple(tuple(cof[j][i] for j in range(3)) for i in range(3))


def apply_collineation(space: ProjectiveSpace, M, P):
    """Image of a point of PG(2,n) under an invertible 3x3 matrix."""
    F = space.field
    if det3(F, M) == 0:
        raise SingularMatrix("collineation matrix is singular")
    return space.normalize(matvec3(F, M, P))


# -- point sets ---------------------------------------------------------------


class PointSet:
    """Subset of the points of a projective space: a read-only boolean
    membership array of length npoints."""

    __slots__ = ("space", "member")

    def __init__(self, space: ProjectiveSpace, member):
        member = np.array(member, dtype=bool)
        if member.shape != (space.npoints,):
            raise ValueError(f"membership array must have shape ({space.npoints},)")
        member.flags.writeable = False
        self.space = space
        self.member = member

    @classmethod
    def from_indices(cls, space, idxs):
        idxs = np.fromiter(idxs, dtype=np.int64)
        bad = idxs[(idxs < 0) | (idxs >= space.npoints)]
        if len(bad):
            raise ValueError(f"point index {bad[0]} is outside 0..{space.npoints - 1}")
        member = np.zeros(space.npoints, dtype=bool)
        member[idxs] = True
        return cls(space, member)

    @property
    def card(self) -> int:
        return int(np.count_nonzero(self.member))

    def __len__(self):
        return self.card

    def contains(self, idx: int) -> bool:
        return 0 <= idx < self.space.npoints and bool(self.member[idx])

    def indices(self):
        """Indices of the points in the set, ascending, as Python ints."""
        return np.flatnonzero(self.member).tolist()

    def __iter__(self):
        return iter(self.indices())

    def __or__(self, other):
        return PointSet(self.space, self.member | other.member)

    def __and__(self, other):
        return PointSet(self.space, self.member & other.member)

    def __sub__(self, other):
        return PointSet(self.space, self.member & ~other.member)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.space is other.space
            and np.array_equal(self.member, other.member)
        )

    def complement(self):
        return PointSet(self.space, ~self.member)


def line_counts(S: PointSet):
    """Number of points of S on each line of PG(2,n), indexed by line."""
    return np.count_nonzero(S.member[S.space.lines], axis=1)


def tangent_lines(S: PointSet):
    """Indices of the lines of PG(2,n) meeting the point set S in exactly
    one point, in increasing order."""
    return np.flatnonzero(line_counts(S) == 1)


def tangent_counts(S: PointSet):
    """Number of tangent lines of S (lines meeting it in one point) through
    each point of PG(2,n), indexed by point."""
    plane = S.space
    return np.bincount(plane.lines[tangent_lines(S)].ravel(), minlength=plane.npoints)
