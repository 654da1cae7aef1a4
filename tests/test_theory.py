import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo.theory import (
    ContractionCertificate,
    certify_contraction,
    contraction_matrix,
    contraction_step_limit,
    estimator_variance_limit,
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
    with pytest.raises(ValueError, match="L must"):
        step_size_limit_inv_dim(sigma=0.5, d=4, L=-1.0)
    with pytest.raises(ValueError, match="alpha_l must"):
        contraction_matrix(sigma=0.5, d=4, alpha_l=-1e-3)
    # L must be finite and alpha_l finite: NaN and inf used to give a NaN
    # or zero result instead of an error.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="L must"):
            step_size_limit(sigma=0.5, d=16, p=0.5, L=bad)
        with pytest.raises(ValueError, match="L must"):
            step_size_limit_inv_dim(sigma=0.5, d=16, L=bad)
        with pytest.raises(ValueError, match="L must"):
            estimator_variance_limit(16, bad, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="alpha_l must"):
            contraction_matrix(sigma=0.5, d=16, alpha_l=bad)
    # contraction_step_limit checks sigma and d like its siblings.
    with pytest.raises(ValueError, match="sigma"):
        contraction_step_limit(sigma=1.5, d=10)
    with pytest.raises(ValueError, match="dimension"):
        contraction_step_limit(sigma=0.5, d=1)


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


def test_inv_dim_limit_terms():
    # Each term pinned where it binds: the middle one at small sigma, the
    # (1-sigma^2)^3 / (264 sqrt(29) d^{3/2}) one elsewhere.
    t2 = np.sqrt(3.0) / (12.0 * np.sqrt(10.0)) * (np.sqrt(1.0 + 0.0025 / 9.0) - 1.0)
    assert step_size_limit_inv_dim(0.05, 10, 2.0) == pytest.approx(t2 / 2.0, rel=1e-12)
    t3 = 0.75**3 / (264.0 * SQRT29 * 27.0)
    assert step_size_limit_inv_dim(0.5, 9, 1.0) == pytest.approx(t3, rel=1e-14)
    t3 = 0.19**3 / (264.0 * SQRT29 * 512.0)
    assert step_size_limit_inv_dim(0.9, 64, 4.0) == pytest.approx(t3 / 4.0, rel=1e-14)
    # The first term, 1/(6 sqrt(d)), never binds: the middle one stays below
    # (sqrt(3)/2)(sqrt(3/2) - 1) < 0.2 of it for sigma < 1 and d >= 3.
    for sigma in (0.05, 0.5, 0.99):
        for d in (3, 4, 64):
            assert step_size_limit_inv_dim(sigma, d, 1.0) < 0.2 / (6.0 * np.sqrt(d))


# (sigma, d, alpha_l): the matrix entries in closed form, and the
# certificate's weighted norm with pi = [(1-sigma^2)/d, 3, 1].  At the two
# small levels the middle row sets the norm, so the weight 3 shows in it.
CONTRACTION_POINTS = {
    (0.0, 4, 1e-4): (
        [[1 / 3, 0.0, 1.8e-3 * SQRT29],
         [3.4e-3 + 1 / 3, 0.75, 1.8e-3 * SQRT29],
         [1.8e-3 * SQRT29, 6e-4 * SQRT29, 2 / 3]],
        (3.4e-3 + 1 / 3) / 12 + 0.75 + 6e-4 * SQRT29),
    (0.5, 9, 1e-5): (
        [[0.5, 0.0, 3.6e-4 * SQRT29],
         [5.1e-4 + 0.5, 11 / 12, 3.6e-4 * SQRT29],
         [3.6e-4 * SQRT29, 1.2e-4 * SQRT29, 0.75]],
        (5.1e-4 + 0.5) / 36 + 11 / 12 + 1.2e-4 * SQRT29),
    (0.5, 9, 2e-3): (
        [[0.5, 0.0, 0.072 * SQRT29],
         [0.602, 11 / 12, 0.072 * SQRT29],
         [0.072 * SQRT29, 0.024 * SQRT29, 0.75]],
        0.5 + 0.864 * SQRT29),
}


@pytest.mark.parametrize("point", sorted(CONTRACTION_POINTS))
def test_contraction_matrix_and_certificate_pinned(point):
    want, norm = CONTRACTION_POINTS[point]
    np.testing.assert_allclose(contraction_matrix(*point), want, rtol=1e-13, atol=0.0)
    assert certify_contraction(*point).weighted_norm == pytest.approx(norm, rel=1e-13)


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
    # NaN compares false, so a sign check alone let NaN d or distances and
    # an infinite distance through to a NaN or inf envelope.
    for bad in ((16, 1.0, math.nan, 1.0, 0.1), (math.nan, 1.0, 1.0, 1.0, 0.1),
                (16, 1.0, 1.0, math.inf, 0.1), (16, 1.0, 1.0, 1.0, math.nan),
                (math.inf, 1.0, 1.0, 1.0, 0.1)):
        with pytest.raises(ValueError, match="distances nonnegative, all finite"):
            estimator_variance_limit(*bad)
