import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt.errors import (
    ConstantPolynomialError,
    DivisionByZeroError,
    FieldMismatchError,
    NotCoprimeError,
    ProductMismatchError,
    ResourceLimitError,
    UnitElementError,
    ZeroConstantTermError,
    ZeroElementError,
    ZeroPolynomialError,
)
from helpers import field_elements, fraction_squarefree_part
from leavitt.fields import (
    Field,
    LaurentElement,
    Polynomial,
    crt_profile,
    find_roots,
    is_dlf,
    laurent_normalize,
    linear_factorization,
    poly_gcd,
    squarefree_part,
)

Q = Field.rationals()
F2, F3, F5 = Field.gf(2), Field.gf(3), Field.gf(5)


def P(field, *coeffs):
    return Polynomial.of(field, coeffs)


class TestField:
    def test_headers(self):
        assert Field.from_header("Q") == Q
        assert Field.from_header("F5") == F5
        with pytest.raises(ValueError):
            Field.from_header("F4")  # not prime
        with pytest.raises(ValueError):
            Field.from_header("R")

    def test_rational_normal_form(self):
        x = Q.coerce(Fraction(2, -4))
        assert x == Fraction(-1, 2) and x.denominator == 2

    def test_residues_reduced(self):
        assert F5.coerce(-1) == 4
        assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5

    def test_parse_scalar(self):
        assert Q.parse_scalar("-3/6") == Fraction(-1, 2)
        assert F5.parse_scalar("4") == 4
        with pytest.raises(ValueError):
            F5.parse_scalar("5")
        with pytest.raises(ValueError):
            F5.parse_scalar("-1")

    def test_inverse(self):
        assert F5.mul(F5.inv(3), 3) == 1
        with pytest.raises(DivisionByZeroError):
            Q.inv(Fraction(0))

    def test_enumeration_limit(self):
        big = Field.gf(2**20 + 7)  # prime above the exhaustion bound
        with pytest.raises(ResourceLimitError):
            list(field_elements(big))


class TestArithmetic:
    def test_gcd_common_factor(self):
        assert poly_gcd(P(Q, -1, 0, 1), P(Q, -1, 1)) == P(Q, -1, 1)

    def test_derivative_formal(self):
        assert P(Q, 1, -2, 1).derivative() == P(Q, -2, 2)

    def test_divrem_f5(self):
        f, d = P(F5, 1, 0, 1), P(F5, -2, 1)
        q, r = divmod(f, d)
        assert q == P(F5, 2, 1) and r.is_zero
        assert q * d + r == f

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            P(Q, 1) + P(F5, 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            divmod(P(Q, 1, 1), Polynomial.zero(Q))

    def test_gcd_monic(self):
        g = poly_gcd(P(Q, 2, 2), P(Q, 4, 8, 4))
        assert g == P(Q, 1, 1)


class TestRoots:
    def test_rootless_over_q(self):
        rm = find_roots(P(Q, 1, 0, 1))
        assert rm.roots == () and rm.unfactored_degree == 2

    def test_split_over_f5(self):
        rm = find_roots(P(F5, 1, 0, 1))
        assert rm.roots == ((2, 1), (3, 1)) and rm.unfactored_degree == 0

    def test_double_root(self):
        rm = find_roots(P(Q, 1, -2, 1))
        assert rm.roots == ((Fraction(1), 2),) and rm.unfactored_degree == 0

    def test_rational_roots_with_denominators(self):
        # (1-2x)(1-3x)(1+x^2) has roots 1/2, 1/3
        f = P(Q, 1, -2) * P(Q, 1, -3) * P(Q, 1, 0, 1)
        rm = find_roots(f)
        assert rm.roots == ((Fraction(1, 3), 1), (Fraction(1, 2), 1))
        assert rm.unfactored_degree == 2

    def test_root_zero(self):
        rm = find_roots(P(Q, 0, 0, 1, 1))  # x^2(1+x)
        assert rm.multiplicity(Fraction(0)) == 2
        assert rm.multiplicity(Fraction(-1)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            find_roots(Polynomial.zero(Q))

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.header())
    def test_deflation_reconstructs(self, field):
        rng = random.Random(20240811)
        for _ in range(200):
            deg = rng.randint(1, 6)
            while True:
                coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
                f = Polynomial.of(field, coeffs)
                if not f.is_zero and f.degree >= 1:
                    break
            rm = find_roots(f)
            assert sum(m for _, m in rm.roots) + rm.unfactored_degree == f.degree
            assert len({r for r, _ in rm.roots}) == len(rm.roots)
            product = Polynomial.one(field)
            for r, m in rm.roots:
                product = product * Polynomial.from_roots(field, [r] * m)
            cofactor, rem = divmod(f, product)
            assert rem.is_zero
            assert cofactor.degree == rm.unfactored_degree
            if field.is_prime_field:
                assert all(cofactor.evaluate(a) != 0 for a in field_elements(field))
            else:
                assert all(cofactor.evaluate(r) != 0 for r, _ in rm.roots)


class TestDlf:
    def test_repeated_root_f2(self):
        v = is_dlf(P(F2, 1, 0, -1))
        assert not v.is_dlf and v.repeated_root == 1

    def test_split_f3(self):
        v = is_dlf(P(F3, 1, 0, -1))
        assert v.is_dlf and v.roots == (1, 2)

    def test_irreducible_f2(self):
        v = is_dlf(P(F2, 1, 1, 1))
        assert not v.is_dlf and v.repeated_root is None and v.unfactored_degree == 2

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomialError):
            is_dlf(P(Q, 3))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exhaustive_oracle_divides_xp_minus_x(self, p):
        # f is dlf iff f | x^p - x, for every f of degree <= 4
        field = Field.gf(p)
        xp_minus_x = Polynomial.of(field, [0, -1] + [0] * (p - 2) + [1])
        assert xp_minus_x == Polynomial.from_roots(field, list(range(p)))
        for deg in range(1, 5):
            for coeffs in itertools.product(range(p), repeat=deg + 1):
                if coeffs[-1] == 0:
                    continue
                f = Polynomial.of(field, coeffs)
                if f.constant_term == 0 and all(c == 0 for c in coeffs[:-1]):
                    pass  # x^d, still fine below
                assert is_dlf(f).is_dlf == f.divides(xp_minus_x), coeffs


class TestSquarefree:
    def test_double_root_over_q(self):
        assert squarefree_part(P(Q, 1, -2, 1)) == P(Q, 1, -1)

    def test_pth_power_over_f2(self):
        assert squarefree_part(P(F2, 1, 0, -1)) == P(F2, 1, 1)

    def test_already_squarefree(self):
        assert squarefree_part(P(Q, 1, -1)) == P(Q, 1, -1)

    def test_mixed_multiplicities(self):
        # (1-x)^2 (1+x) -> 1 - x^2
        assert squarefree_part(P(Q, 1, -1, -1, 1)) == P(Q, 1, 0, -1)

    def test_preconditions(self):
        with pytest.raises(ConstantPolynomialError):
            squarefree_part(P(Q, 2))
        with pytest.raises(ZeroConstantTermError):
            squarefree_part(P(Q, 0, 1))

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=3),
                              st.integers(1, 3)), min_size=1, max_size=3),
           st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool))
    def test_integer_path_matches_fraction_path_over_q(self, factors, constant):
        """Over ℚ the integer primitive remainder sequence gives the same
        polynomial as Euclid's gcd on Fraction polynomials."""
        f = P(Q, constant)
        for tail, m in factors:  # (constant + tail x + ...)^m, f(0) stays nonzero
            for _ in range(m):
                f = f * P(Q, constant, *tail)
        if f.degree >= 1:
            assert squarefree_part(f) == fraction_squarefree_part(f)

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.header())
    def test_squarefree_properties(self, field):
        rng = random.Random(77)
        candidates = []
        for _ in range(120):
            deg = rng.randint(1, 5)
            coeffs = [rng.randint(1, 6)] + [rng.randint(-6, 6) for _ in range(deg)]
            f = Polynomial.of(field, coeffs)
            if not f.is_zero and f.degree >= 1 and f.constant_term != 0:
                candidates.append(f)
        # deterministic hard cases: high powers, p-th powers
        for base in (P(field, 1, 1), P(field, 1, -1), P(field, 1, 1, 1)):
            power = base
            for _ in range(4):
                power = power * base
                candidates.append(power)
        for f in candidates:
            g = squarefree_part(f)
            assert g.divides(f)
            assert g.constant_term == field.one
            assert squarefree_part(g) == g
            dg = g.derivative()
            if not dg.is_zero:
                assert poly_gcd(g, dg).degree == 0


class TestLaurent:
    def test_negative_exponents(self):
        monic, canonical = laurent_normalize(LaurentElement.of(Q, {-1: 1, 1: -1}))
        assert monic == P(Q, -1, 0, 1)
        assert canonical == P(Q, 1, 0, -1)

    def test_plain_polynomial(self):
        monic, canonical = laurent_normalize(LaurentElement.of(Q, {0: 1, 1: -1}))
        assert monic == P(Q, -1, 1) and canonical == P(Q, 1, -1)

    def test_unit_rejected(self):
        with pytest.raises(UnitElementError):
            laurent_normalize(LaurentElement.of(Q, {2: 3}))
        with pytest.raises(ZeroElementError):
            laurent_normalize(LaurentElement.of(Q, {}))

    def test_idempotent_and_scalar_linked(self):
        g = LaurentElement.of(F5, {-2: 3, 0: 1, 3: 2})
        monic, canonical = laurent_normalize(g)
        again_monic, again_canonical = laurent_normalize(
            LaurentElement.of(F5, dict(enumerate(monic.coeffs))))
        assert again_monic == monic and again_canonical == canonical
        assert canonical == monic.scale(F5.inv(monic.constant_term))


class TestCrtProfile:
    def test_two_distinct_linear(self):
        f = P(Q, -1, 1) * P(Q, -2, 1)
        prof = crt_profile(f, [(P(Q, -1, 1), 1), (P(Q, -2, 1), 1)])
        assert prof.total_dimension == 2
        assert prof.maximal_ideal_count == 2
        assert prof.is_split_product

    def test_square(self):
        f = P(Q, -1, 1) * P(Q, -1, 1)
        prof = crt_profile(f, [(P(Q, -1, 1), 2)])
        assert prof.total_dimension == 2
        assert prof.maximal_ideal_count == 1
        assert not prof.is_split_product

    def test_single_linear(self):
        prof = crt_profile(P(Q, -1, 1), [(P(Q, -1, 1), 1)])
        assert prof.total_dimension == 1 and prof.maximal_ideal_count == 1
        assert prof.is_split_product

    def test_not_coprime(self):
        f = P(Q, -1, 1) * P(Q, -1, 0, 1)
        with pytest.raises(NotCoprimeError):
            crt_profile(f, [(P(Q, -1, 1), 1), (P(Q, -1, 1) * P(Q, 1, 1), 1)])

    def test_product_mismatch(self):
        with pytest.raises(ProductMismatchError):
            crt_profile(P(Q, -1, 0, 1), [(P(Q, -1, 1), 1)])

    def test_scalar_slack_allowed(self):
        f = (P(Q, -1, 1) * P(Q, -2, 1)).scale(7)
        prof = crt_profile(f, [(P(Q, -1, 1), 1), (P(Q, -2, 1), 1)])
        assert prof.total_dimension == 2

    def test_derived_from_roots(self):
        prof = crt_profile(P(F5, 1, 0, 1))
        assert prof.is_split_product and prof.maximal_ideal_count == 2

    def test_dimension_conservation(self):
        rng = random.Random(5)
        for _ in range(50):
            roots = rng.sample(range(1, 10), rng.randint(1, 3))
            mults = [rng.randint(1, 3) for _ in roots]
            factors = [(P(Q, -r, 1), m) for r, m in zip(roots, mults)]
            f = Polynomial.one(Q)
            for g, m in factors:
                for _ in range(m):
                    f = f * g
            prof = crt_profile(f, factors)
            assert sum(dim for _, _, dim in prof.blocks) == prof.total_dimension == f.degree

    def test_linear_factorization_requires_split(self):
        with pytest.raises(ProductMismatchError):
            linear_factorization(P(F2, 1, 1, 1))
