"""Tests for the numerical kernel."""

import numpy as np
import pytest

from gnnase import numerics
from gnnase.errors import NonFinite


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        grad = numerics.finite_diff_grad(lambda m: float(np.sum(m**2)), np.array([[1.0, 2.0]]))
        assert grad == pytest.approx(np.array([[2.0, 4.0]]), abs=1e-6)

    def test_constant_function(self):
        grad = numerics.finite_diff_grad(lambda m: 3.5, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert grad == pytest.approx(np.zeros((2, 2)))

    def test_product_rule(self):
        grad = numerics.finite_diff_grad(lambda m: float(m[0, 0] * m[0, 1]), np.array([[3.0, 5.0]]))
        assert grad == pytest.approx(np.array([[5.0, 3.0]]), abs=1e-6)

    def test_polynomial_matches_closed_form(self):
        rng = numerics.make_rng(11)
        x = rng.normal(size=(3, 2))
        grad = numerics.finite_diff_grad(lambda m: float(np.sum(m**3 - 2 * m)), x.copy())
        closed = 3 * x**2 - 2
        assert np.max(np.abs(grad - closed) / np.maximum(1.0, np.abs(closed))) < 1e-6

    def test_non_finite_evaluation(self):
        with pytest.raises(NonFinite):
            numerics.finite_diff_grad(lambda m: float(np.log(m[0, 0])), np.array([[0.0]]))


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = numerics.make_rng(42).normal(size=100)
        b = numerics.make_rng(42).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = numerics.make_rng(1).normal(size=10)
        b = numerics.make_rng(2).normal(size=10)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable_and_distinct(self):
        s1 = numerics.derive_seed(5, "simulate")
        s2 = numerics.derive_seed(5, "simulate")
        s3 = numerics.derive_seed(5, "train")
        assert s1 == s2
        assert s1 != s3
        assert 0 <= s1 < 2**63
