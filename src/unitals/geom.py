"""Points, lines and incidence for PG(2,n) and PG(5,n).

Points are normalised coordinate tuples (first nonzero coordinate 1) of
field-element indices.  The canonical point index enumerates normalised
vectors in lexicographic order; lines of PG(2,n) are enumerated by the same
scheme through their dual vectors.  The incidence of PG(2,n) is one
(npoints, n+1) int32 array, ``ProjectiveSpace.lines``, whose row li lists
the points of line li in increasing order.  A point set is a boolean
membership array (``PointSet``).  The table is symmetric, row i listing
the lines through point i as well as the points on line i, so every
incidence count, ``lines_through`` and the ``line_counts`` and
``tangent_counts`` built on it, reads only the rows of the points or lines
it counts.  ``line_blocks`` walks the whole table a block of rows at a
time for the one reader that needs each line's points in order, the
pencil search's scan in ``analysis``.  PG(5,n) has no line objects: a line
there is the n+1 points ``span`` gives for a point pair, indexed with
``index_rows``.

Nothing is kept per point: a space holds its coordinate array
(``coords_array``) and, for PG(2,n), its line table, and ``point`` decodes
one index at a time.  Both are built on first read, and a line table
above ``_LINE_TABLE_BYTES`` is refused with ``ValueError`` before it is
allocated; the line table and the membership arrays are read-only.
"""

from functools import cached_property, lru_cache

import numpy as np

from .gf import GF


# line-table entries per block of rows, written by _build_lines or read
# by line_blocks and lines_through: PG(2,49) is one block.  The scan of
# the pencil search keeps two temporaries per entry, the gathered ranks
# and their mask; with the four it used to keep, 1 << 20 outgrew the
# cache and the scan ran 35% slower at plane order 625 (2-vCPU host)
_LINE_BLOCK_ENTRIES = 1 << 18
# the largest line table a plane builds: PG(2,1024), 4.30 GB, is built and
# PG(2,1369), 10.3 GB, refused
_LINE_TABLE_BYTES = 8 << 30


class ProjectiveSpace:
    """PG(d,n) for d in {2,5} over the field F of order n."""

    def __init__(self, F: GF, dim: int):
        if dim not in (2, 5):
            raise ValueError(f"dim {dim} not supported")
        self.field = F
        self.dim = dim
        m = F.order
        self.npoints = sum(m**k for k in range(dim + 1))
        # block of points whose leading one sits at position i starts here
        self._offsets = [(m ** (dim - i) - 1) // (m - 1) for i in range(dim + 1)]
        # index_rows reads a normalised row's digits in base m; the leading
        # digit 1 at position i gives way to the block offset
        weights = m ** np.arange(dim, -1, -1, dtype=np.int64)
        self._lead_shift = np.array(self._offsets, dtype=np.int64) - weights
        self._coords_array = None

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

    def point(self, idx: int):
        """Normalised coordinates of the point with the given index."""
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

    def coords_array(self):
        """(npoints, dim+1) numpy array of all normalised points, cached; its
        transpose is C-contiguous, one row per coordinate."""
        if self._coords_array is None:
            self._coords_array = point_array(self.field, self.dim)
        return self._coords_array

    def index_rows(self, rows):
        """Canonical indices (int64) of the points spanned by the rows of an
        (m, dim+1) array: normalize and index, row by row, in numpy.  Every
        entry must be a field element, 0..n-1, and every row nonzero; a
        zero row spans no point, and either fault raises ValueError.  Each
        row is scaled by the inverse of its leading entry in one ``vmul``,
        and the index summed up in int64 one coordinate at a time."""
        F = self.field
        m = F.order
        rows = np.asarray(rows)
        # vmul would read a neighbouring table entry for an out-of-range
        # one, so the range is checked first
        if len(rows) and (rows.min() < 0 or rows.max() >= m):
            bad = rows[(rows < 0) | (rows >= m)][0]
            raise ValueError(f"entry {bad} is not a field element (0..{m - 1})")
        lead = (rows != 0).argmax(axis=1)
        leading = rows[np.arange(len(rows)), lead]
        if not leading.all():
            raise ValueError(f"row {int(np.argmin(leading))} is zero and spans no projective point")
        digits = F.vmul(F.inv_table[leading][:, None], rows)
        idx = digits[:, 0].astype(np.int64)
        for t in range(1, self.dim + 1):
            idx *= m
            idx += digits[:, t]
        idx += self._lead_shift[lead]
        return idx

    # -- lines -----------------------------------------------------------------

    # a plane whose lines nobody reads, as a pair of conics classified in odd
    # characteristic, never builds them
    lines = cached_property(lambda self: self._build_lines())

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
        nbytes = self.npoints * (m + 1) * 4
        if nbytes > _LINE_TABLE_BYTES:
            raise ValueError(f"the line table of {self} would take {nbytes} bytes, more than {_LINE_TABLE_BYTES}")
        out = np.empty((self.npoints, m + 1), dtype=np.int32)
        lam = np.arange(m)
        block = max(1, _LINE_BLOCK_ENTRIES // (m + 1))
        for start in range(0, self.npoints, block):
            l0, l1, l2 = self.coords_array()[start : start + block].T
            misses_z = l2 != 0  # the line misses (0, 0, 1)
            q = F.neg_table[F.vmul(l1, F.inv_table[l2])]
            p = F.neg_table[F.vmul(l0, F.inv_table[l2])]
            b = F.neg_table[F.vmul(l0, F.inv_table[l1])].astype(np.int32)
            rows = out[start : start + block]
            rows[:, 0] = np.where(misses_z, 1 + q.astype(np.int32), 0)
            tail = rows[:, 1:]
            np.multiply(np.where(misses_z, m, 1)[:, None], lam, out=tail)
            tail += np.where(misses_z, m + 1, np.where(l1 != 0, m + 1 + m * b, 1))[:, None]
            tail += F.vadd(p[:, None], F.vmul(lam, q[:, None]))
        out.flags.writeable = False
        return out


def span(F: GF, P, Q):
    """Representatives of the n+1 points of the line PQ, not normalised: a
    (..., n+1, d+1) array in the field's dtype holding Q, then
    P + lambda*Q for every lambda in F.  P and Q are (..., d+1) arrays of
    field elements and broadcast against each other, so a batch of point
    pairs gives a batch of lines."""
    # C order: a slice of a coordinate-major array would make every
    # temporary below strided
    P, Q = np.ascontiguousarray(P, dtype=F.dtype), np.ascontiguousarray(Q, dtype=F.dtype)
    shape = np.broadcast_shapes(P.shape, Q.shape)
    out = np.empty(shape[:-1] + (F.order + 1, shape[-1]), dtype=F.dtype)
    out[..., 0, :] = Q
    lam = np.arange(F.order)[:, None]
    out[..., 1:, :] = F.vadd(P[..., None, :], F.vmul(lam, Q[..., None, :]))
    return out


def point_array(F: GF, d: int):
    """(npoints, d+1) array, in F.dtype, of the normalised points of PG(d,m),
    m = F.order, in canonical order: the transpose of a coordinate-major
    (d+1, npoints) array, so that each coordinate is one contiguous row.

    The points whose leading one sits at position i form the block at
    offset (m^(d-i) - 1)/(m - 1), which counts the later coordinates in
    base m; the blocks come in decreasing i.  So row t is 0 on the blocks
    of i > t, 1 on the block of i = t, and after it one periodic run:
    each digit m^(d-t) times, period m^(d-t+1), which divides the size of
    every later block.  The first period is written and then copied over
    the rest of the row, doubling the written part each time."""
    m, dt = F.order, F.dtype
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


def inv3(F: GF, M):
    det = det3(F, M)
    if det == 0:
        raise ValueError("matrix is singular")
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
        idxs = np.asarray(idxs, dtype=np.int64)
        bad = idxs[(idxs < 0) | (idxs >= space.npoints)]
        if len(bad):
            raise ValueError(f"point index {bad[0]} is outside 0..{space.npoints - 1}")
        member = np.zeros(space.npoints, dtype=bool)
        member[idxs] = True
        return cls(space, member)

    @property
    def card(self) -> int:
        return int(np.count_nonzero(self.member))

    def indices(self):
        """Indices of the points in the set, ascending, as Python ints."""
        return np.flatnonzero(self.member).tolist()

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.space is other.space
            and np.array_equal(self.member, other.member)
        )

    def complement(self):
        return PointSet(self.space, ~self.member)


def line_blocks(plane: ProjectiveSpace, values):
    """(lo, values.take(lines[lo:hi])) for each block lo..hi of rows of the
    line table of PG(2,n), about _LINE_BLOCK_ENTRIES entries a block: a
    per-point array read along the lines, with no copy of the table's
    size."""
    lines = plane.lines
    block = max(1, _LINE_BLOCK_ENTRIES // lines.shape[1])
    for lo in range(0, len(lines), block):
        yield lo, values.take(lines[lo : lo + block])


def lines_through(plane: ProjectiveSpace, chosen):
    """Number of the chosen lines of PG(2,n), an array of line indices,
    through each point, indexed by point.  The table is symmetric: row i
    lists the points on line i and equally the lines through point i, so
    with chosen points it gives the number of them on each line.  Only the
    chosen rows are read, about _LINE_BLOCK_ENTRIES entries at a time."""
    lines = plane.lines
    out = np.zeros(plane.npoints, dtype=np.intp)
    block = max(1, _LINE_BLOCK_ENTRIES // lines.shape[1])
    for lo in range(0, len(chosen), block):
        np.add.at(out, lines[chosen[lo : lo + block]], 1)
    return out


def line_counts(S: PointSet):
    """Number of points of S on each line of PG(2,n), indexed by line."""
    return lines_through(S.space, np.flatnonzero(S.member))


def tangent_counts(S: PointSet):
    """Number of tangent lines of S (lines meeting it in one point) through
    each point of PG(2,n), indexed by point."""
    return lines_through(S.space, np.flatnonzero(line_counts(S) == 1))
