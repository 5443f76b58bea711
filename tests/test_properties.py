"""Property tests over randomly drawn Gaussian models."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shaploc import (  # noqa: E402
    AttackSpec,
    Coalition,
    ExperimentConfig,
    GaussianModel,
    GaussianValueFunction,
    all_shapley,
    sampled_shapley,
    shapley_from_values,
    simulate_scores,
)
from shaploc.shapley import _TABLE_PER_PERMUTATION, gaussian_shapley_form  # noqa: E402


@st.composite
def correlated_models(draw, max_n=12):
    """A model with n = 1..max_n, nonzero means and every |rho| <= 0.95."""
    n = draw(st.integers(1, max_n))
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


def _observation(model, rng):
    """A clean draw pushed off-centre, so large scores are exercised too."""
    return model.sample(rng) + rng.normal(scale=3.0, size=model.n)


@given(correlated_models())
def test_efficiency(drawn):
    model, rng = drawn
    vf = GaussianValueFunction(model)
    x = _observation(model, rng)
    v_full = vf(Coalition.of(range(model.n), model.n), x)
    phi = all_shapley(vf, x).phi
    scale = np.max(np.abs(model.coalition_values(x[None, :])))
    assert abs(phi.sum() - v_full) <= 1e-12 * model.n * scale


@given(correlated_models(), st.data())
def test_symmetry(drawn, data):
    model, rng = drawn
    n = model.n
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    swap = np.arange(n)
    swap[[i, j]] = swap[[j, i]]
    # averaging a model with its relabelled copy makes sensors i and j
    # exchangeable: the swap leaves the model unchanged
    mean = 0.5 * (model.mean + model.mean[swap])
    cov = 0.5 * (model.cov + model.cov[np.ix_(swap, swap)])
    vf = GaussianValueFunction(GaussianModel(mean, cov))
    x = _observation(model, rng)
    phi = all_shapley(vf, x).phi
    phi_swapped = all_shapley(vf, x[swap]).phi
    scale = np.max(np.abs(vf.model.coalition_values(x[None, :])))
    assert np.all(np.abs(phi_swapped - phi[swap]) <= 1e-12 * n * scale)


@given(correlated_models(), st.data())
def test_independence_identity(drawn, data):
    model, rng = drawn
    n = model.n
    i = data.draw(st.integers(0, n - 1))
    cov = model.cov.copy()
    cov[i, np.arange(n) != i] = 0.0
    cov[np.arange(n) != i, i] = 0.0
    vf = GaussianValueFunction(GaussianModel(model.mean, cov))
    x = _observation(model, rng)
    phi = all_shapley(vf, x).phi
    scale = np.max(np.abs(vf.model.coalition_values(x[None, :])))
    assert abs(phi[i] - vf(Coalition.of([i], n), x)) <= 1e-12 * n * scale


class PlainValueFunction:
    """The Gaussian score behind a plain callable, scored one coalition at a time."""

    def __init__(self, vf):
        self.vf = vf
        self.n = vf.n

    def __call__(self, s, x):
        return self.vf(s, x)


@given(correlated_models(max_n=14), st.data())
def test_sampled_table_path_equals_memo_path(drawn, data):
    model, rng = drawn
    n = model.n
    vf = GaussianValueFunction(model)
    x = _observation(model, rng)
    least = -(-(1 << n) // _TABLE_PER_PERMUTATION)  # the table path from here on
    permutations = data.draw(st.integers(least, least + 30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for i in range(n):
        table_rng = np.random.default_rng([seed, i])
        memo_rng = np.random.default_rng([seed, i])
        got = sampled_shapley(vf, x, i, permutations, table_rng)
        want = sampled_shapley(PlainValueFunction(vf), x, i, permutations, memo_rng)
        assert got == want
        assert table_rng.bit_generator.state == memo_rng.bit_generator.state


@given(correlated_models(), st.data())
def test_scores_do_not_depend_on_the_chunk(drawn, data):
    model, _ = drawn
    n = model.n
    targets = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    kind = data.draw(st.sampled_from(["A", "B", "C"]))
    attack = AttackSpec(
        kind=kind, am=data.draw(st.floats(-5.0, 5.0)),
        targets=Coalition.of(targets, n),
        sigma_a=1.5 if kind == "B" else None, um=2.0 if kind == "C" else None,
    )
    trials = data.draw(st.integers(1, 60))
    config = ExperimentConfig(
        model=model, attack=attack, sensor_under_test=data.draw(st.integers(0, n - 1)),
        trials=trials, seed=data.draw(st.integers(0, 2**128 - 1)),
    )
    whole = simulate_scores(config)
    chunked = simulate_scores(config, chunk=data.draw(st.integers(1, trials)))
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


@given(st.integers(0, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_coalition_round_trip(drawn):
    n, bits = drawn
    s = Coalition(bits, n)
    assert Coalition.of(list(s), n) == s
