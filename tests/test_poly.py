import numpy as np
import pytest

from resodrift.poly import PolyField


def brute_eval(terms, I1, I2):
    total = np.zeros(np.broadcast(np.asarray(I1), np.asarray(I2)).shape)
    for (d1, d2, c) in terms:
        total = total + c * np.asarray(I1) ** d1 * np.asarray(I2) ** d2
    return total


def test_terms_round_trip_and_eval(rng):
    terms = [(0, 0, 1.5), (1, 0, -2.0), (0, 2, 0.25), (2, 1, 3.0)]
    p = PolyField.from_terms(terms)
    assert sorted(p.to_terms()) == sorted(terms)
    I1 = rng.uniform(-2, 2, 40)
    I2 = rng.uniform(-2, 2, 40)
    np.testing.assert_allclose(p(I1, I2), brute_eval(terms, I1, I2), rtol=1e-13)


def test_zero_and_constant():
    z = PolyField.zero()
    assert z.is_zero
    assert z(0.3, -0.7) == 0.0
    c = PolyField.constant(4.0)
    assert c.is_constant
    assert c(123.0, -456.0) == 4.0


def test_algebra_matches_pointwise(rng):
    p = PolyField.from_terms([(1, 0, 1.0), (0, 1, -0.5)])
    q = PolyField.from_terms([(0, 0, 2.0), (1, 1, 0.3)])
    I1 = rng.uniform(-1, 1, 25)
    I2 = rng.uniform(-1, 1, 25)
    np.testing.assert_allclose((p + q)(I1, I2), p(I1, I2) + q(I1, I2), atol=1e-14)
    np.testing.assert_allclose((p - q)(I1, I2), p(I1, I2) - q(I1, I2), atol=1e-14)
    np.testing.assert_allclose((p * q)(I1, I2), p(I1, I2) * q(I1, I2), atol=1e-14)
    np.testing.assert_allclose((2.5 * p)(I1, I2), 2.5 * p(I1, I2), atol=1e-14)


def test_partial_against_finite_differences(rng):
    p = PolyField.from_terms([(3, 0, 0.7), (1, 2, -1.2), (0, 1, 0.4), (2, 2, 0.05)])
    d1 = p.partial(1, 0)
    d2 = p.partial(0, 1)
    d12 = p.partial(1, 1)
    h = 1e-6
    for _ in range(30):
        I1, I2 = rng.uniform(-1.5, 1.5, 2)
        fd1 = (p(I1 + h, I2) - p(I1 - h, I2)) / (2 * h)
        fd2 = (p(I1, I2 + h) - p(I1, I2 - h)) / (2 * h)
        assert abs(d1(I1, I2) - fd1) < 1e-7
        assert abs(d2(I1, I2) - fd2) < 1e-7
        # wider step for the mixed difference: its roundoff error scales as 1/h^2
        g = 1e-4
        fd12 = (
            p(I1 + g, I2 + g) - p(I1 + g, I2 - g) - p(I1 - g, I2 + g) + p(I1 - g, I2 - g)
        ) / (4 * g * g)
        assert abs(d12(I1, I2) - fd12) < 1e-6


def test_partial_drops_degree_to_zero():
    p = PolyField.from_terms([(1, 1, 2.0)])
    assert p.partial(2, 0).is_zero
    assert p.partial(1, 1).to_terms() == [(0, 0, 2.0)]


def test_compose_affine_is_substitution(rng):
    # q(J) = p(A J + b) must agree with evaluating p at the moved point
    p = PolyField.from_terms([(2, 0, 1.0), (1, 1, -0.7), (0, 3, 0.2), (0, 0, 5.0)])
    A = np.array([[0.5, 1.0], [-1.0, 2.0]])
    b = np.array([0.3, -0.1])
    q = p.compose_affine(A, b)
    for _ in range(40):
        J = rng.uniform(-1, 1, 2)
        moved = A @ J + b
        assert abs(q(J[0], J[1]) - p(moved[0], moved[1])) < 1e-12


def test_compose_affine_identity_is_noop(rng):
    p = PolyField.from_terms([(2, 1, 0.3), (0, 2, -1.0)])
    q = p.compose_affine(np.eye(2), np.zeros(2))
    I1 = rng.uniform(-2, 2, 10)
    I2 = rng.uniform(-2, 2, 10)
    np.testing.assert_allclose(q(I1, I2), p(I1, I2), atol=1e-14)


def test_degree_tracks_array_extent():
    assert PolyField.from_terms([(2, 1, 0.3)]).degree == 3
    assert PolyField.from_terms([(0, 0, 1.0)]).degree == 0
    assert PolyField.zero().degree == 0


def test_equal_fields_with_signed_zeros_hash_alike():
    # negation stores a -0.0 coefficient where from_terms stores 0.0
    a = -PolyField.from_terms([(0, 1, 1.0)])
    b = PolyField.from_terms([(0, 1, -1.0)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
