"""Tests for the numerical kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnase import numerics
from gnnase.errors import AsymmetricSpectrum, EmptySignal, NonFinite


class TestDft:
    def test_constant_signal_all_energy_in_dc(self):
        spec = numerics.dft([1.0, 1.0, 1.0, 1.0], 4.0)
        assert spec.bins == pytest.approx([4, 0, 0, 0], abs=1e-12)

    def test_hand_evaluated_n4(self):
        # X_k = sum_n x_n exp(-2*pi*i*k*n/4) for x = [1, 0, -1, 0]
        spec = numerics.dft([1.0, 0.0, -1.0, 0.0], 4.0)
        assert spec.bins == pytest.approx([0, 2, 0, 2], abs=1e-12)

    def test_parseval_identity(self):
        rng = numerics.make_rng(7)
        x = rng.normal(size=64)
        spec = numerics.dft(x, 64.0)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spec.bins) ** 2) / len(x)
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_too_short_raises(self):
        with pytest.raises(EmptySignal):
            numerics.dft([1.0], 1.0)

    def test_non_finite_raises(self):
        with pytest.raises(NonFinite):
            numerics.dft([1.0, np.nan, 0.0], 1.0)

    def test_frequencies_one_sided(self):
        spec = numerics.dft(np.zeros(8) + 1.0, 8.0).to_one_sided()
        assert spec.frequencies() == pytest.approx([0, 1, 2, 3, 4])


class TestInverseDft:
    def test_inverse_of_constant(self):
        spec = numerics.ComplexSpectrum(np.array([4, 0, 0, 0], dtype=complex), 4.0, 4)
        assert numerics.inverse_dft(spec) == pytest.approx([1, 1, 1, 1], abs=1e-12)

    def test_inverse_of_hand_computed(self):
        spec = numerics.ComplexSpectrum(np.array([0, 2, 0, 2], dtype=complex), 4.0, 4)
        assert numerics.inverse_dft(spec) == pytest.approx([1, 0, -1, 0], abs=1e-12)

    def test_asymmetric_spectrum_rejected(self):
        spec = numerics.ComplexSpectrum(np.array([0, 2j, 0, 2j]), 4.0, 4)
        with pytest.raises(AsymmetricSpectrum):
            numerics.inverse_dft(spec)

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 17, 100, 255, 256, 1024])
    def test_round_trip(self, n):
        rng = numerics.make_rng(n)
        x = rng.normal(size=n)
        back = numerics.inverse_dft(numerics.dft(x, 100.0))
        assert np.max(np.abs(back - x)) < 1e-9

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_parseval_property(self, n, seed):
        x = numerics.make_rng(seed).normal(size=n)
        spec = numerics.dft(x, 10.0)
        assert np.max(np.abs(numerics.inverse_dft(spec) - x)) < 1e-9
        time_energy = np.sum(x**2)
        freq_energy = np.sum(np.abs(spec.bins) ** 2) / n
        assert abs(freq_energy - time_energy) <= 1e-9 * max(1.0, time_energy)


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
