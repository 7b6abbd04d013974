from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals.gf import (
    GF,
    default_modulus,
    field,
    is_irreducible,
)
from oracles import nullspace

ODD_ORDERS = [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 4)]


def _last_modulus(p, h):
    """The last irreducible monic degree-h polynomial in the default
    modulus's scan order."""
    for k in reversed(range(p**h)):
        cand = tuple(k // p**i % p for i in range(h)) + (1,)
        if is_irreducible(p, cand):
            return cand


# (p, h, modulus) for orders 2 to 256 in both characteristics, each with
# its default modulus and, where there is one, the last in the scan order
TABLE_FIELDS = [
    (p, h, modulus)
    for p, h in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 1), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (13, 2))
    for modulus in sorted({default_modulus(p, h), _last_modulus(p, h)})
]


def test_construction_basic():
    F3 = field(3)
    assert F3.order == 3 and list(F3.elements()) == [0, 1, 2]
    F9 = GF(3, 2, (1, 0, 1))
    assert F9.order == 9 and F9.modulus == (1, 0, 1)
    # deterministic default moduli: first irreducible in the scan order
    assert field(3, 2).modulus == (1, 0, 1)  # -1 is a non-square mod 3
    assert field(2, 2).modulus == (1, 1, 1)
    assert field(5, 2).modulus == (2, 0, 1)
    with pytest.raises(ValueError):
        GF(2, 17)  # beyond the 2^16 table budget


def test_construction_errors():
    with pytest.raises(ValueError, match="6 is not prime"):
        GF(6, 1)
    with pytest.raises(ValueError, match="1 is not prime"):
        GF(1, 20)  # not read as an order past the table budget
    with pytest.raises(ValueError, match=r"factors over GF\(3\)"):
        GF(3, 2, (0, 2, 1))  # x^2 + 2x = x(x+2)
    with pytest.raises(ValueError, match="modulus must be monic of degree 2"):
        GF(3, 2, (1, 1))
    with pytest.raises(ValueError, match="modulus must be monic of degree 2"):
        GF(3, 2, (1, 0, 0, 1))
    # each is congruent mod 3 to the irreducible (1,0,1) or (2,0,1), and none
    # may be read as it
    for modulus, bad in (((4, 0, 1), 4), ((-2, 0, 1), -2), ((5, 0, 1), 5), ((1, 0, 4), 4)):
        with pytest.raises(ValueError, match=f"modulus coefficient {bad} is not in 0..2"):
            GF(3, 2, modulus)


def test_irreducibility_oracle():
    # trial division against every monic polynomial of degree <= h/2
    def reducible_by_roots(p, coeffs):
        # degree 2/3 polynomials are reducible iff they have a root
        return any(
            sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p)
        )

    for p in (2, 3, 5):
        for k in range(p**2):
            coeffs = (k % p, k // p % p, 1)
            assert is_irreducible(p, coeffs) == (not reducible_by_roots(p, coeffs))


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(TABLE_FIELDS), st.data())
def test_field_axioms(spec, data):
    F = field(*spec)
    a, b, c = (data.draw(st.integers(0, F.order - 1)) for _ in range(3))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.add(a, 0) == a and F.mul(a, 1) == a


def test_inverse_exhaustive():
    for p, h in ((3, 2), (5, 2), (2, 4), (7, 2)):
        F = field(p, h)
        for e in F.units():
            assert F.mul(e, F.inv(e)) == 1
    with pytest.raises(ZeroDivisionError):
        field(3, 2).inv(0)


def test_exp_table_wraparound():
    F = field(3, 2)
    g = F.generator
    assert F.mul(g, F.pow(g, 8)) == g
    assert F.pow(g, 8) == 1
    assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


@pytest.mark.parametrize("p,h", ODD_ORDERS)
def test_quadratic_character_matches_euler_criterion(p, h):
    F = field(p, h)
    m = F.order
    chi = F.character_table
    assert F.is_square(0) and chi[0] == 0
    squares = 0
    for e in F.units():
        euler = F.pow(e, (m - 1) // 2)
        assert F.is_square(e) == (euler == 1)
        assert chi[e] == (1 if euler == 1 else -1)
        squares += F.is_square(e)
    assert squares == (m - 1) // 2


def test_character_examples():
    F3 = field(3)
    assert not F3.is_square(2) and F3.character_table[2] == -1
    F9 = field(3, 2)
    assert F9.is_square(F9.neg(1)) and F9.character_table[F9.neg(1)] == 1
    assert F9.is_square(0) and F9.character_table[0] == 0


def test_even_characteristic_everything_is_square():
    for p, h in ((2, 1), (2, 2), (2, 4)):
        F = field(p, h)
        assert F.is_square(0) and F.character_table[0] == 0
        for e in F.units():
            assert F.is_square(e) and F.character_table[e] == 1
            assert any(F.mul(r, r) == e for r in F.elements())


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_quadratic_character_against_squaring_oracle(p, h):
    F = field(p, h)
    squares = {F.mul(x, x) for x in F.elements()}
    for e in F.elements():
        assert F.is_square(e) == (e in squares)
        assert F.character_table[e] == (0 if e == 0 else 1 if e in squares else -1)


def test_nonsquare_products():
    for p, h in ((3, 2), (5, 2)):
        F = field(p, h)
        ns = F.nonsquares()
        sq = F.squares()
        for a in ns:
            for b in ns:
                assert F.is_square(F.mul(a, b))
            for b in sq:
                assert not F.is_square(F.mul(a, b))


def test_subfield_elements():
    F9 = field(3, 2)
    assert F9.subfield_elements(3) == (0, 1, 2)
    F25 = field(5, 2)
    sub = F25.subfield_elements(5)
    assert len(sub) == 5
    for e in sub:
        assert F25.pow(e, 5) == e
    # closure under the field operations
    for a in sub:
        assert F25.neg(a) in sub
        if a:
            assert F25.inv(a) in sub
        for b in sub:
            assert F25.add(a, b) in sub
            assert F25.mul(a, b) in sub
    with pytest.raises(ValueError, match=r"4\^2 != 9"):
        F9.subfield_elements(4)


def test_numpy_tables_match_scalar_ops():
    for spec in TABLE_FIELDS:
        F = field(*spec)
        add, mul, neg = F.add_table, F.mul_table, F.neg_table
        elems = np.arange(F.order)
        # scalar add goes through the Zech logarithms, add_table digit by digit
        assert np.array_equal(add, [[F.add(a, b) for b in F.elements()] for a in F.elements()]), F
        assert np.array_equal(mul, [[F.mul(a, b) for b in F.elements()] for a in F.elements()]), F
        assert np.array_equal(neg, [F.neg(a) for a in F.elements()]), F
        assert not add[elems, neg].any(), F
        chi = F.character_table
        assert chi.tolist() == [0 if e == 0 else 1 if F.is_square(e) else -1 for e in F.elements()], F
        # against squaring: 0, then 1 on the nonzero squares and -1 elsewhere
        squares = np.zeros(F.order, dtype=bool)
        squares[mul[elems, elems]] = True
        assert np.array_equal(chi, np.where(elems == 0, 0, np.where(squares, 1, -1))), F
        inv = F.inv_table
        assert inv[0] == 0 and all(inv[a] == F.inv(a) for a in F.units())
        lg, ex = F.log_table, F.exp_table
        assert len(ex) == F.order - 1
        assert all(ex[k] == F.pow(F.generator, k) and lg[ex[k]] == k for k in range(F.order - 1))
        # built once per field
        assert F.add_table is add and F.mul_table is mul and F.inv_table is inv
    big = GF(2, 13)  # order 8192, above TABLE_LIMIT
    for name in ("add_table", "mul_table"):
        with pytest.raises(ValueError, match="too large for dense tables"):
            getattr(big, name)


@pytest.mark.parametrize("p,h,dtype", [(2, 8, np.uint16), (17, 2, np.uint32)])
def test_row_offsets_index_the_flat_tables(p, h, dtype):
    # 255*256 + 255 is the largest uint16; at order 289 the last index,
    # 288*289 + 288, needs uint32
    F = field(p, h)
    elems = np.arange(F.order, dtype=F.add_table.dtype)
    offsets = F.row_offsets(elems)
    assert offsets.dtype == dtype
    idx = offsets[:, None] + elems
    assert idx.ravel().tolist() == list(range(F.order**2))
    assert np.array_equal(F.add_table.ravel()[idx], F.add_table)
    # the kernels read every entry of both tables at these offsets
    assert np.array_equal(F.vadd(elems[:, None], elems), F.add_table)
    assert np.array_equal(F.vmul(elems[:, None], elems), F.mul_table)


# orders 2 to 256 in both characteristics, and 289, where the row offsets
# widen from uint16 to uint32
_KERNEL_FIELDS = [field(*spec) for spec in TABLE_FIELDS] + [field(17, 2)]


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(_KERNEL_FIELDS), st.sampled_from(["vadd", "vmul"]), st.data())
def test_vector_kernels_match_scalar_ops(F, op, data):
    scalar = {"vadd": F.add, "vmul": F.mul}[op]
    shape = data.draw(st.lists(st.integers(1, 4), max_size=3))
    dtypes = ([np.uint8] if F.order <= 256 else []) + [np.uint16, np.int32, np.int64]

    def operand():
        # an int, Python's or numpy's, or an array of any integer dtype
        # holding the elements, on a shape that broadcasts against shape:
        # leading axes dropped and any axis of length 1
        kind = data.draw(st.sampled_from(["int", "numpy int", "array"]))
        if kind != "array":
            e = data.draw(st.integers(0, F.order - 1))
            return e if kind == "int" else data.draw(st.sampled_from(dtypes))(e)
        own = [data.draw(st.sampled_from([n, 1])) for n in shape[data.draw(st.integers(0, len(shape))) :]]
        entries = data.draw(st.lists(st.integers(0, F.order - 1), min_size=int(np.prod(own)), max_size=int(np.prod(own))))
        return np.array(entries, dtype=data.draw(st.sampled_from(dtypes))).reshape(own)

    a, b = operand(), operand()
    got = getattr(F, op)(a, b)
    pairs = np.broadcast(a, b)
    assert got.dtype == F.dtype
    assert np.shape(got) == pairs.shape
    assert np.ravel(got).tolist() == [scalar(int(x), int(y)) for x, y in pairs]


def test_nullspace():
    F = field(3, 2)
    basis = nullspace(F, [(1, 1, 0), (0, 0, 1)])
    assert len(basis) == 1
    for v in basis:
        assert F.add(v[0], v[1]) == 0 and v[2] == 0
    # a rank-2 system in 6 unknowns leaves a 4-dimensional null space
    rows = [(1, 0, 0, 2, 0, 1), (0, 1, 0, 1, 1, 0)]
    basis = nullspace(F, rows)
    assert len(basis) == 4
    for v in basis:
        for row in rows:
            acc = 0
            for r, x in zip(row, v):
                acc = F.add(acc, F.mul(r, x))
            assert acc == 0


def _combinations(F, vectors, ncols):
    """(F.order**k, ncols) array of every F-linear combination of k
    vectors of length ncols, one row per coefficient tuple."""
    add, mul = F.add_table, F.mul_table
    vectors = np.array(vectors, dtype=np.int64).reshape(-1, ncols)
    k = len(vectors)
    coeffs = np.array(list(product(range(F.order), repeat=k)), dtype=np.int64).reshape(F.order**k, k)
    out = np.zeros((len(coeffs), ncols), dtype=np.int64)
    for c, v in zip(coeffs.T, vectors):
        out = add[out, mul[c[:, None], v]]
    return out


# small orders in both characteristics, where F^rows and F^cols enumerate
_NULLSPACE_FIELDS = [field(p, h) for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (7, 1), (3, 2))]


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(_NULLSPACE_FIELDS), st.data())
def test_nullspace_on_random_systems(F, data):
    ncols = data.draw(st.integers(1, 5))
    # zeros drawn often, so that low ranks and zero rows occur
    entry = st.one_of(st.just(0), st.integers(0, F.order - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    # the rank by brute force: the row space has F.order**rank vectors
    row_space = len(np.unique(_combinations(F, rows, ncols), axis=0))
    rank = next(r for r in range(ncols + 1) if F.order**r == row_space)
    basis = nullspace(F, rows)
    assert len(basis) == ncols - rank
    # each combination of the basis solves every row, and the F.order**k
    # combinations are distinct, so the basis is independent
    kernel = _combinations(F, basis, ncols)
    assert len(np.unique(kernel, axis=0)) == F.order ** len(basis)
    for row in rows:
        acc = np.zeros(len(kernel), dtype=np.int64)
        for r, x in zip(row, kernel.T):
            acc = F.add_table[acc, F.mul_table[r, x]]
        assert not acc.any()


@pytest.mark.parametrize("a", [-1, 9, 99])
def test_require_element_refuses_non_elements(a):
    F = field(3, 2)
    assert [F.require_element(x) for x in F.elements()] == list(F.elements())
    with pytest.raises(ValueError, match=f"t {a} is not a field element"):
        F.require_element(a, "t")
