import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals.gf import (
    GF,
    DegreeMismatch,
    NotASubfieldOrder,
    NotPrime,
    QuadraticCharacter,
    ReducibleModulus,
    default_modulus,
    field,
    is_irreducible,
    nullspace,
)

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
    with pytest.raises(NotPrime):
        GF(6, 1)
    with pytest.raises(ReducibleModulus):
        GF(3, 2, (0, 2, 1))  # x^2 + 2x = x(x+2)
    with pytest.raises(DegreeMismatch):
        GF(3, 2, (1, 1))
    with pytest.raises(DegreeMismatch):
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
    squares = 0
    for e in F.elements():
        ch = F.quadratic_character(e)
        if e == 0:
            assert ch == QuadraticCharacter.ZERO
            continue
        euler = F.pow(e, (m - 1) // 2)
        assert (ch == QuadraticCharacter.NONZERO_SQUARE) == (euler == 1)
        if ch == QuadraticCharacter.NONZERO_SQUARE:
            squares += 1
    assert squares == (m - 1) // 2


def test_character_examples():
    F3 = field(3)
    assert F3.quadratic_character(2) == QuadraticCharacter.NON_SQUARE
    F9 = field(3, 2)
    assert F9.quadratic_character(F9.neg(1)) == QuadraticCharacter.NONZERO_SQUARE
    assert F9.quadratic_character(0) == QuadraticCharacter.ZERO


def test_even_characteristic_everything_is_square():
    for p, h in ((2, 1), (2, 2), (2, 4)):
        F = field(p, h)
        for e in F.units():
            assert F.quadratic_character(e) == QuadraticCharacter.NONZERO_SQUARE
            assert any(F.mul(r, r) == e for r in F.elements())


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_quadratic_character_against_squaring_oracle(p, h):
    F = field(p, h)
    squares = {F.mul(x, x) for x in F.elements()}
    for e in F.elements():
        assert (F.quadratic_character(e) != QuadraticCharacter.NON_SQUARE) == (e in squares)
        assert F.is_square(e) == (e in squares)


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
    with pytest.raises(NotASubfieldOrder):
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
        assert chi.tolist() == [F.quadratic_character(e).value for e in F.elements()], F
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


@pytest.mark.parametrize("a", [-1, 9, 99])
def test_require_element_refuses_non_elements(a):
    F = field(3, 2)
    assert [F.require_element(x) for x in F.elements()] == list(F.elements())
    with pytest.raises(ValueError, match=f"t {a} is not a field element"):
        F.require_element(a, "t")
