import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo.oracle import make_benchmark, make_linear, make_quadratic
from dzo.theory import (
    ContractionCertificate,
    certify_contraction,
    contraction_matrix,
    contraction_step_limit,
    estimator_variance_limit,
    gradient_gap_check,
    residual_radius_sum,
    step_size_limit,
    step_size_limit_inv_dim,
)

SQRT29 = np.sqrt(29.0)


def test_inputs_validation():
    with pytest.raises(ValueError, match="sigma"):
        step_size_limit(sigma=1.0, d=4, p=0.5, L=1.0)
    with pytest.raises(ValueError, match="dimension"):
        step_size_limit(sigma=0.5, d=2, p=0.5, L=1.0)
    with pytest.raises(ValueError, match="L must"):
        step_size_limit(sigma=0.5, d=4, p=0.5, L=0.0)


def test_step_limit_frozen_value():
    # sigma=0, d=9, p=1: the dimension term binds.
    got = step_size_limit(sigma=0.0, d=9, p=1.0, L=1.0)
    assert got == pytest.approx(1.0 / (216.0 * SQRT29 * 9**2.5), rel=1e-14)
    assert got < 1.0 / 18.0


def test_step_limit_middle_term_unbinding_at_p1():
    # At p=1 only the other two terms matter.
    a = step_size_limit(sigma=0.3, d=16, p=1.0, L=2.0)
    t1 = 1.0 / (6.0 * 4.0)
    t3 = (1.0 - 0.09) ** 3 / (216.0 * SQRT29 * 16**2.5)
    assert a == pytest.approx(min(t1, t3) / 2.0, rel=1e-14)


def test_step_limit_dimension_scaling():
    lo = step_size_limit(sigma=0.5, d=64, p=1.0, L=1.0)
    hi = step_size_limit(sigma=0.5, d=128, p=1.0, L=1.0)
    assert hi / lo == pytest.approx(2.0**-2.5, rel=1e-12)


def test_step_limit_outside_regime():
    with pytest.raises(ValueError):
        step_size_limit(sigma=0.0, d=4, p=0.25, L=1.0)


def test_step_limit_monotone_at_p1():
    vals_d = [step_size_limit(sigma=0.5, d=d, p=1.0, L=1.0)
              for d in (3, 8, 16, 64, 256)]
    assert all(a >= b for a, b in zip(vals_d, vals_d[1:]))
    vals_s = [step_size_limit(sigma=s, d=16, p=1.0, L=1.0)
              for s in (0.0, 0.2, 0.4, 0.6, 0.8)]
    assert all(a >= b for a, b in zip(vals_s, vals_s[1:]))


def test_inv_dim_limit():
    with pytest.warns(UserWarning):
        assert step_size_limit_inv_dim(0.0, 8, 1.0) == 0.0
    val = step_size_limit_inv_dim(0.9, 64, 1.0)
    assert val > 0
    # relative to the general limit at p = 1/d, the specialized third term is
    # looser by a factor 216 d / 264
    general = step_size_limit(sigma=0.9, d=64, p=1.0 / 64, L=1.0)
    assert val >= general

    a = step_size_limit_inv_dim(0.9, 64, 1.0)
    b = step_size_limit_inv_dim(0.9, 256, 1.0)
    assert b / a == pytest.approx(1.0 / 8.0, rel=1e-12)  # d^{-3/2} term binds


def test_contraction_matrix_structure():
    sigma, d = 0.4, 12
    a0 = contraction_matrix(sigma, d, 0.0)
    mix2 = (1 + 2 * sigma**2) / 3
    want = np.array([
        [mix2, 0.0, 0.0],
        [mix2, 1 - (1 - sigma**2) / d, 0.0],
        [0.0, 0.0, (2 + sigma**2) / 3],
    ])
    np.testing.assert_allclose(a0, want, atol=1e-15)

    eig = np.sort(np.linalg.eigvals(contraction_matrix(0.0, 10, 0.0)).real)
    np.testing.assert_allclose(eig, [1 / 3, 2 / 3, 1 - 1 / 10], atol=1e-12)

    al = 0.003
    a = contraction_matrix(sigma, d, al)
    assert a[0, 2] == pytest.approx(9 * SQRT29 * np.sqrt(d) * al / (1 - sigma**2), rel=1e-14)


def test_certificate_at_guaranteed_level():
    cert = certify_contraction(0.5, 10, contraction_step_limit(0.5, 10))
    assert isinstance(cert, ContractionCertificate)
    assert cert.satisfied
    assert cert.weighted_norm <= cert.bound + 1e-12


def test_certificate_fails_far_above_level():
    cert = certify_contraction(0.5, 10, 10 * contraction_step_limit(0.5, 10))
    assert not cert.satisfied


def test_certificate_grid():
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for d in (3, 16, 64, 256):
            cert = certify_contraction(sigma, d, contraction_step_limit(sigma, d))
            assert cert.satisfied, (sigma, d)
            assert cert.spectral_radius <= cert.weighted_norm + 1e-10


def test_certificate_holds_at_general_step_limit():
    # The general step bound's dimension term sits 18x below the contraction
    # level, so the certificate must hold there across the whole grid, and
    # a fortiori at the full minimum whenever it is positive.
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for d in (3, 8, 64, 512):
            al3 = (1.0 - sigma**2) ** 3 / (216.0 * SQRT29 * d**2.5)
            assert certify_contraction(sigma, d, al3).satisfied, (sigma, d)
            for p in (1.0 / d, 0.5, 1.0):
                al = step_size_limit(sigma, d, p, 1.0)
                if al > 0:
                    assert certify_contraction(sigma, d, al).satisfied, (sigma, d, p)


@settings(max_examples=60, deadline=None)
@given(sigma=st.floats(min_value=0.0, max_value=0.95),
       d=st.integers(min_value=3, max_value=400),
       scale=st.floats(min_value=0.0, max_value=50.0))
def test_weighted_norm_dominates_spectral_radius(sigma, d, scale):
    cert = certify_contraction(sigma, d, scale * contraction_step_limit(sigma, d))
    assert cert.spectral_radius <= cert.weighted_norm + 1e-10


def test_variance_limit_values():
    assert estimator_variance_limit(3, 1.0, 0.0, 0.0, 0.0) == 0.0
    assert estimator_variance_limit(1, 1.0, 1.0, 1.0, 0.0) == 24.0
    assert estimator_variance_limit(4, 2.0, 0.0, 0.0, 0.5) == 56.0
    with pytest.raises(ValueError):
        estimator_variance_limit(4, 2.0, -1.0, 0.0, 0.5)


def test_residual_radius_sum():
    u0, q, d, p = 3.0, 0.75, 8, 0.25
    got = residual_radius_sum(u0, q, d, p)
    # brute-force partial sum plus an integral tail bound
    ks = np.arange(1, 2_000_000)
    partial = np.sum((d * u0 / ks**q) ** 2)
    tail_hi = (d * u0) ** 2 * ks[-1] ** (1 - 2 * q) / (2 * q - 1)
    assert (d * u0) ** 2 / p + partial <= got <= (d * u0) ** 2 / p + partial + tail_hi
    assert residual_radius_sum(u0, 0.5, d, p) == np.inf


def test_gradient_gap_quadratic_equality():
    spec = make_quadratic(2, 3)
    x = np.array([1.0, -2.0, 0.5])
    # ||x||^2 <= 2 * L * (0.5 ||x||^2) holds with equality at L = 1
    assert gradient_gap_check(spec, x, L=1.0, f_star=0.0)


def test_gradient_gap_linear_not_applicable():
    assert gradient_gap_check(make_linear(2, 3, seed=0), np.zeros(3)) is None


def test_gradient_gap_benchmark_random_points():
    spec = make_benchmark(4, 6, seed=3)
    rng = np.random.default_rng(1)
    from dzo.oracle import estimate_smoothness
    from dzo.theory import _benchmark_lower_bound

    lhat = estimate_smoothness(spec)
    f_star = _benchmark_lower_bound(spec)
    for _ in range(50):
        x = rng.normal(0.0, 1.5, 6)
        assert gradient_gap_check(spec, x, L=lhat, f_star=f_star)
