"""Root finding against the exhaustive searches, and the primality check.

``find_roots`` over 𝔽p splits gcd(f, xᵖ − x) by Cantor–Zassenhaus and sweeps
only tiny fields; :func:`helpers.sweep_roots` is the exhaustive oracle it
must agree with.  Over ℚ it lifts roots mod p p-adically;
:func:`helpers.divisor_roots`, the rational-root theorem's divisor search, is
its oracle for small coefficients.  Beyond either search's reach, planted
roots and sympy (when installed) are the reference.
"""

import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import fields, rationals, scalars
from leavitt.cli import main
from leavitt.errors import InternalConsistencyError, ProductMismatchError
from leavitt.fields import (
    DlfVerdict,
    Field,
    Polynomial,
    find_roots,
    is_dlf,
)
from leavitt.laurent import linear_factorization
from leavitt.scalars import MILLER_RABIN_BOUND

from helpers import divisor_roots, sweep_roots
from test_io_cli import child_env

SMALL_PRIMES = [2, 3, 5, 7, 31, 1009]
LARGE_PRIMES = [1048583, 2**61 - 1]


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _irreducible_quadratic(draw, p: int) -> list[int]:
    """(x + c)² − n for a non-residue n; x² + x + 1 over 𝔽2."""
    if p == 2:
        return [1, 1, 1]
    n = draw(st.integers(1, p - 1).filter(lambda n: pow(n, (p - 1) // 2, p) == p - 1))
    c = draw(st.integers(0, p - 1))
    return [c * c - n, 2 * c, 1]


@st.composite
def planted(draw, p: int, max_roots: int = 5):
    """(f, {root: multiplicity}, #quadratics): a scaled product of linear
    factors, some repeated, and irreducible quadratics."""
    field = Field.gf(p)
    roots = draw(st.lists(st.integers(0, p - 1), max_size=max_roots))
    quadratics = draw(st.integers(0, 2))
    f = Polynomial.of(field, [draw(st.integers(1, p - 1))])
    for r in roots:
        f = f * Polynomial.of(field, [-r, 1])
    for _ in range(quadratics):
        f = f * Polynomial.of(field, _irreducible_quadratic(draw, p))
    return f, Counter(r % p for r in roots), quadratics


@st.composite
def polynomials(draw, p: int):
    """Random nonzero polynomials of degree ≤ 9 and planted products."""
    if draw(st.booleans()):
        return draw(planted(p))[0]
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10)
                  .filter(lambda cs: any(cs)))
    return Polynomial.of(Field.gf(p), coeffs)


def _expected_verdict(f: Polynomial) -> DlfVerdict:
    rm = sweep_roots(f)
    repeated = next((r for r, m in rm.roots if m > 1), None)
    if repeated is not None:
        return DlfVerdict(False, repeated_root=repeated, unfactored_degree=rm.unfactored_degree)
    if rm.unfactored_degree:
        return DlfVerdict(False, unfactored_degree=rm.unfactored_degree)
    return DlfVerdict(True, roots=tuple(r for r, _ in rm.roots))


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if scalars._is_prime(n)] == \
            [n for n in range(10**5) if _trial_division(n)]

    @pytest.mark.parametrize(
        "n", [561, 1105, 41041, 3215031751, 318665857834031151167461])
    def test_rejects_carmichael_and_strong_pseudoprimes(self, n):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7;
        # 318665857834031151167461 = 399165290221 · 798330580441 is one to
        # every base from 2 to 37, so only the base 41 rejects it
        assert not scalars._is_prime(n)

    def test_large_primes(self):
        for p in [2**61 - 1, 2**89 - 1, 100000000000031, 1000000000000000003]:
            assert scalars._is_prime(p)
        assert not scalars._is_prime((2**31 - 1) * (2**61 - 1))

    def test_fourteen_digit_header_is_quick(self):
        start = time.perf_counter()
        field = Field.from_header("F100000000000031")
        assert time.perf_counter() - start < 0.2
        assert field.p == 100000000000031

    def test_characteristic_beyond_the_bound_is_refused(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            Field.from_header(f"F{2**127 - 1}")
        graph, ideal = tmp_path / "loop.graph", tmp_path / "big.ideal"
        graph.write_text("digraph loop\nvertex v\narrow e v v\n")
        ideal.write_text(f"ideal big\nfield F{2**127 - 1}\ncycle C: e\npoly C: 1 1\n")
        assert main(["decide", str(graph), str(ideal)]) == 2
        assert str(MILLER_RABIN_BOUND) in capsys.readouterr().err


class TestAgainstSweep:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_find_roots(self, p, data):
        f = data.draw(polynomials(p))
        assert find_roots(f) == sweep_roots(f)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_is_dlf(self, p, data):
        f = data.draw(polynomials(p).filter(lambda f: f.degree >= 1))
        assert is_dlf(f) == _expected_verdict(f)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_linear_factorization(self, p, data):
        f = data.draw(polynomials(p))
        rm = sweep_roots(f)
        if rm.unfactored_degree:
            with pytest.raises(ProductMismatchError):
                linear_factorization(f)
        else:
            field = f.field
            assert linear_factorization(f) == [
                (Polynomial.of(field, [field.neg(r), 1]), m) for r, m in rm.roots]

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @settings(max_examples=150)
    @given(data=st.data())
    def test_splitting_below_the_sweep_threshold(self, p, data):
        # find_roots sweeps fields this small, so call the splitting directly
        f = data.draw(polynomials(p).filter(lambda f: f.degree >= 1 and f.constant_term))
        coeffs = fields._monic(list(f.coeffs), p)
        assert fields._split_roots(coeffs, p) == [r for r, _ in sweep_roots(f).roots]


class TestLargeFields:
    @pytest.mark.parametrize("p", LARGE_PRIMES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_planted_roots(self, p, data):
        f, roots, quadratics = data.draw(planted(p, max_roots=6))
        rm = find_roots(f)
        assert rm.roots == tuple(sorted(roots.items()))
        assert rm.unfactored_degree == 2 * quadratics

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_sympy(self, p, data):
        sympy = pytest.importorskip("sympy")
        f, _, _ = data.draw(planted(p, max_roots=4))
        noise = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
        f = f * Polynomial.of(f.field, noise + [1])
        x = sympy.symbols("x")
        expected = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).ground_roots()
        assert dict(find_roots(f).roots) == {int(r) % p: m for r, m in expected.items()}


class TestInexactDeflation:
    def test_deflating_by_a_non_root_raises(self):
        with pytest.raises(InternalConsistencyError):
            rationals._exact_quotient([1, 1], [-5, 1])
        with pytest.raises(InternalConsistencyError):  # 3x − 1 over 2x − 1
            rationals._exact_quotient([-1, 3], [-1, 2])

    def test_root_that_does_not_deflate_exits_5(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(rationals, "_vanishes", lambda f, u, v: True)
        with pytest.raises(InternalConsistencyError):
            find_roots(Polynomial.of(Field.rationals(), [-7, 0, 1]))
        graph, ideal = tmp_path / "loop.graph", tmp_path / "j.ideal"
        graph.write_text("digraph loop\nvertex v\narrow e v v\n")
        ideal.write_text("ideal j\nfield Q\ncycle C: e\npoly C: 1 0 -7\n")
        assert main(["decide", str(graph), str(ideal)]) == 5
        assert "internal consistency failure" in capsys.readouterr().err

    def test_non_pth_power_raises(self):
        with pytest.raises(InternalConsistencyError):
            fields._pth_root(Polynomial.of(Field.gf(3), [1, 1]))

    def test_wrong_split_root_exits_5(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fields, "_split_roots", lambda f, p: [1])
        f = Polynomial.of(Field.gf(1009), [3, 0, 1])
        with pytest.raises(InternalConsistencyError):
            find_roots(f)
        graph, ideal = tmp_path / "loop.graph", tmp_path / "j.ideal"
        graph.write_text("digraph loop\nvertex v\narrow e v v\n")
        ideal.write_text("ideal j\nfield F1009\ncycle C: e\npoly C: 1 0 3\n")
        assert main(["decide", str(graph), str(ideal)]) == 5
        assert "internal consistency failure" in capsys.readouterr().err

    def test_checks_survive_optimize_flag(self):
        code = (
            "from leavitt import fields, rationals\n"
            "from leavitt.errors import InternalConsistencyError\n"
            "F = fields.Field\n"
            "checks = [lambda: rationals._exact_quotient([1, 1], [-5, 1]),\n"
            "          lambda: fields._pth_root(fields.Polynomial.of(F(3), [1, 1]))]\n"
            "for check in checks:\n"
            "    try:\n"
            "        check()\n"
            "    except InternalConsistencyError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 0, proc.stderr


# -- ℚ: p-adic lifting against the divisor search and sympy ----------------------

Q = Field.rationals()

#: Irreducible over ℚ: x² + 1, x² − 2, 2x² − 3, 3x² + x + 1, x² + x + 1.
QUADRATICS = [[1, 0, 1], [-2, 0, 1], [-3, 0, 2], [1, 1, 3], [1, 1, 1]]


def _expand(scale, factors) -> Polynomial:
    f = Polynomial.of(Q, [scale])
    for factor in factors:
        f = f * Polynomial.of(Q, factor)
    return f


@st.composite
def rational_planted(draw, digits: int = 1):
    """(f, {root: multiplicity}, unfactored degree): a rational multiple,
    possibly negative, of xᵏ · ∏ (v·x − u)^m · irreducible quadratics, with
    |u| < 10^digits and 1 ≤ v ≤ 4 (v = 1 when digits > 1)."""
    top = 10**digits - 1
    numerators = st.integers(-top, top).filter(bool)
    denominators = st.integers(1, 4 if digits == 1 else 1)
    roots = draw(st.lists(st.builds(Fraction, numerators, denominators), max_size=4))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    zeros = draw(st.integers(0, 2))
    quadratics = draw(st.lists(st.sampled_from(QUADRATICS), max_size=2))
    scale = draw(st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3)))
    linear = [[-r.numerator, r.denominator] for r, m in zip(roots, mults) for _ in range(m)]
    f = _expand(scale, [[0, 1]] * zeros + linear + quadratics)
    expected = Counter()
    for r, m in zip(roots, mults):
        expected[r] += m
    if zeros:
        expected[Fraction(0)] = zeros
    return f, expected, 2 * len(quadratics)


@st.composite
def rational_polynomials(draw):
    """Random nonzero polynomials with small coefficients, and planted products."""
    if draw(st.booleans()):
        return draw(rational_planted())[0]
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(any))
    return Polynomial.of(Q, coeffs)


class TestRationalRoots:
    @settings(max_examples=150)
    @given(f=rational_polynomials())
    def test_find_roots_matches_divisor_search(self, f):
        assert find_roots(f) == divisor_roots(f)

    @settings(max_examples=150)
    @given(planted=rational_planted())
    def test_planted_roots(self, planted):
        f, roots, unfactored = planted
        rm = find_roots(f)
        assert rm.roots == tuple(sorted(roots.items()))
        assert rm.unfactored_degree == unfactored

    @settings(max_examples=25)
    @given(planted=rational_planted(digits=50), data=st.data())
    def test_matches_sympy_for_50_digit_roots(self, planted, data):
        sympy = pytest.importorskip("sympy")
        f = planted[0]
        v = data.draw(st.integers(1, 10**20))
        f = f * Polynomial.of(Q, [-data.draw(st.integers(1, 10**50)), v])
        x = sympy.symbols("x")
        expected = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(f.coeffs)], x, domain="QQ").ground_roots()
        assert dict(find_roots(f).roots) == {
            Fraction(int(r.p), int(r.q)): m for r, m in expected.items()}

    @pytest.mark.parametrize("factors,roots", [
        # a repeated rational root stays repeated modulo every prime
        ([[-3, 1], [-3, 1], [5, 2], [1, 0, 1]], {Fraction(3): 2, Fraction(-5, 2): 1}),
        # squarefree, but the roots 1 and 1 + 2·3·…·23 meet modulo each of the
        # first nine primes, so at all LIFTING_PRIME_TRIES = 8 primes tried
        ([[-1, 1], [-1 - 223092870, 1], [1, 0, 1]],
         {Fraction(1): 1, Fraction(1 + 223092870): 1}),
    ], ids=["repeated", "colliding"])
    def test_prime_with_repeated_roots_falls_back_to_squarefree_part(
            self, monkeypatch, factors, roots):
        assert rationals.LIFTING_PRIME_TRIES == 8
        calls = []
        squarefree = rationals._squarefree
        monkeypatch.setattr(rationals, "_squarefree",
                            lambda f: calls.append(f) or squarefree(f))
        rm = find_roots(_expand(-7, factors))
        assert rm.roots == tuple(sorted(roots.items()))
        assert rm.unfactored_degree == 2
        assert len(calls) == 1

    def test_root_near_the_cauchy_bound(self):
        # f = (x + q)(x² + 1) lifts at p = 3, and q + 1 < 3³² ≤ 2q: only a
        # modulus above 2B = 2(q + 1) tells −q from 3³² − q
        q = 3**32 - 5
        rm = find_roots(_expand(1, [[q, 1], [1, 0, 1]]))
        assert rm == fields.RootMultiset(((Fraction(-q), 1),), 2)

    def test_degree_one_needs_no_prime(self, monkeypatch):
        monkeypatch.setattr(scalars, "_is_prime", None)
        assert find_roots(Polynomial.of(Q, [Fraction(-10**60, 7), 3])).roots == \
            ((Fraction(10**60, 21), 1),)

    def test_forty_digit_root_is_quick(self, tmp_path, capsys):
        q = 10**40 + 121
        graph, ideal = tmp_path / "loop.graph", tmp_path / "big.ideal"
        graph.write_text("digraph loop\nvertex v\narrow e v v\n")
        # θ = (1 − x/q)(1 + x²), i.e. (q − x)(1 + x²) with constant term 1
        ideal.write_text(f"ideal big\nfield Q\ncycle C: e\npoly C: 1 -1/{q} 1 -1/{q}\n")
        start = time.perf_counter()
        find_roots(Polynomial.of(Q, [q, -1, q, -1]))
        assert time.perf_counter() - start < 0.05
        codes = [main([command, str(graph), str(ideal)])
                 for command in ("decide", "certificate", "radical")]
        assert time.perf_counter() - start < 2.0
        assert codes == [0, 3, 0]
        captured = capsys.readouterr()
        assert "notLPA: cycle C: unfactored degree 2" in captured.out
        assert "no certificate: C: unfactored degree 2" in captured.err
        assert "squarefree part is not split (unfactored degree 2)" in captured.out
