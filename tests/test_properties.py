"""Property tests over randomly drawn Gaussian models."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shaploc import GaussianModel, shapley_from_values  # noqa: E402
from shaploc.shapley import gaussian_shapley_form  # noqa: E402


@st.composite
def correlated_models(draw):
    """A model with n = 1..12, nonzero means and every |rho| <= 0.95."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, n))
    corr = g @ g.T
    scale = np.sqrt(np.diag(corr))
    shrink = draw(st.floats(0.0, 0.95))
    corr = shrink * corr / np.outer(scale, scale) + (1.0 - shrink) * np.eye(n)
    sigma = np.exp(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    mean = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return GaussianModel(mean, corr * np.outer(sigma, sigma)), rng


@given(correlated_models())
def test_form_matches_the_coalition_table(drawn):
    model, rng = drawn
    xs = model.sample(rng, 6) + rng.normal(scale=3.0, size=(6, model.n))
    table = model.coalition_values(xs)
    d = xs - model.mean
    # the table path subtracts scores as large as the largest coalition's
    scale = np.max(np.abs(table), axis=0)
    for i in range(model.n):
        c, a = gaussian_shapley_form(model, i)
        phi = c + np.einsum("mi,ij,mj->m", d, a, d)
        assert np.all(np.abs(phi - shapley_from_values(table, i)) <= 1e-12 * scale)
