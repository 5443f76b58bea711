"""Property tests over randomly drawn Gaussian models and labelled scores."""

import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shaploc import (  # noqa: E402
    AttackSpec,
    Coalition,
    EmptyKeptSetError,
    ErrorRateReport,
    ExperimentConfig,
    GaussianModel,
    GaussianValueFunction,
    GridSpec,
    all_shapley,
    binomial_ci,
    exact_shapley,
    run_experiment,
    sampled_shapley,
    shapley_from_values,
    truncated_shapley,
)
from shaploc import harness  # noqa: E402
from shaploc.harness import _COARSE_STEP, _COUNT_BLOCK  # noqa: E402
from shaploc.shapley import (  # noqa: E402
    _TABLE_PER_PERMUTATION,
    _pair_weights,
    _transform,
    gaussian_shapley_form,
)

from harness_helpers import optimize_exact, optimize_grid, trial_scores  # noqa: E402


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
    d = xs - model.mean
    forms = [gaussian_shapley_form(model, i) for i in range(model.n)]
    for x, d_x in zip(xs, d):
        table = model.coalition_values(x)
        # the table path subtracts scores as large as the largest coalition's
        scale = np.max(np.abs(table))
        for i, (c, a) in enumerate(forms):
            assert abs(c + d_x @ a @ d_x - shapley_from_values(table, i)) <= 1e-12 * scale


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
    scale = np.max(np.abs(model.coalition_values(x)))
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
    scale = np.max(np.abs(vf.model.coalition_values(x)))
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
    scale = np.max(np.abs(vf.model.coalition_values(x)))
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


def reference_error_curve(scores, labels):
    """(sorted scores, errors per cut): one argsort and a cumulative count.

    Cut c declares the c smallest scores clean; errors[c] counts the
    attacked among them plus the clean among the rest.
    """
    m = scores.size
    n_att = int(np.count_nonzero(labels))
    order = np.argsort(scores)
    s = scores[order]
    att_below = np.concatenate(([0], np.cumsum(labels[order])))
    clean_below = np.arange(m + 1) - att_below
    return s, att_below + ((m - n_att) - clean_below)


def reference_exact(scores, labels):
    s, errors = reference_error_curve(scores, labels)
    m = scores.size
    cuts = np.concatenate(([0], np.flatnonzero(s[1:] > s[:-1]) + 1, [m]))
    best = int(cuts[int(np.argmin(errors[cuts]))])
    if best == 0:
        return -math.inf, float(errors[0] / m)
    if best == m:
        return math.inf, float(errors[m] / m)
    return float(0.5 * (s[best - 1] + s[best])), float(errors[best] / m)


def reference_grid(scores, labels, lo, hi, steps):
    s, errors = reference_error_curve(scores, labels)
    taus = np.linspace(lo, hi, steps)
    cuts = np.searchsorted(s, taus, side="right")
    best = int(np.argmin(errors[cuts]))
    return float(taus[best]), float(errors[cuts[best]] / scores.size)


@st.composite
def labelled_scores(draw):
    """m = 1..200 scores with any label mix, tie-heavy or continuous."""
    m = draw(st.integers(1, 200))
    if draw(st.booleans()):
        scores = 0.5 * np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    else:
        scores = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
    labels = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    return scores, labels


@given(labelled_scores(), st.floats(-8.0, 8.0), st.floats(1e-3, 16.0), st.integers(2, 60))
def test_optimizers_equal_the_reference_error_curve(drawn, lo, width, steps):
    scores, labels = drawn
    hi = lo + width
    if labels.all() or not labels.any():
        return  # one class: run_experiment refuses it before any search
    assert optimize_exact(scores, labels) == reference_exact(scores, labels)
    assert optimize_grid(scores, labels, lo, hi, steps) == reference_grid(
        scores, labels, lo, hi, steps
    )


@pytest.mark.parametrize("mode", ["exact", GridSpec(0.0, 8.0, 301)])
@pytest.mark.parametrize("prior", [3e-5, 1 - 3e-5])
def test_experiment_equals_the_reference_optimizers_on_the_simulated_scores(prior, mode):
    # a block of 2^14 trials at a prior this far from 1/2 holds half a trial
    # of the rarer class on average, so most blocks, 61% in expectation and
    # seven of these eight, are of one class
    model = GaussianModel([0.5, -1.0], [[2.0, 1.2], [1.2, 1.5]])
    attack = AttackSpec(kind="A", am=2.5, targets=Coalition.of([0], 2))
    size = harness._STREAM_BLOCK
    config = ExperimentConfig(
        model=model, attack=attack, trials=7 * size + 2003, attack_prior=prior, seed=21,
        threshold_mode=mode,
    )
    phi, v, labels = trial_scores(config)
    starts = np.arange(0, labels.size, size)
    attacked = np.add.reduceat(labels, starts)
    one_class = (attacked == 0) | (attacked == np.diff(starts, append=labels.size))
    assert labels.any() and not labels.all()
    assert one_class.any() and not one_class.all()
    # the classes the chunks filled hold exactly the trial-order scores of each class
    for (att, clean), scores in zip(harness._simulate_classes(config), (phi, v)):
        assert np.array_equal(att, np.sort(scores[labels]))
        assert np.array_equal(clean, np.sort(scores[~labels]))
    want = []
    for statistic, scores in (("shapley", phi), ("single-term", v)):
        if mode == "exact":
            tau, pe = reference_exact(scores, labels)
        else:
            tau, pe = reference_grid(scores, labels, mode.lo, mode.hi, mode.steps)
        want.append(ErrorRateReport(statistic, tau, pe, binomial_ci(pe, labels.size), labels.size))
    assert run_experiment(config) == tuple(want)


def block_edge_scores(shape, n_clean, rng):
    """(clean, attacked) scores with a flat error curve across count blocks.

    An attacked score lies between each clean value and the next, so every
    clean cut errs as often as the first, the coarse pass keeps every block
    and the fine pass counts all n_clean cuts.  In the tied shapes the
    clean scores come in runs of 7 tied values, one run straddling the
    first block edge, each run followed by as many attacked copies.  The
    edge shape drops the attacked run below the run at the block edge (or
    at the last clean score), so the minimum lies at that run's last copy.
    """
    if shape == "continuous":
        clean = np.sort(rng.normal(size=n_clean))
        gaps = np.diff(clean, append=clean[-1] + 1.0)
        return clean, clean + gaps * (1.0 - rng.random(n_clean))
    clean = np.arange(n_clean) // 7 * 2.0
    if shape == "tied":
        return clean, clean + 1.0
    w = clean[min(n_clean, _COUNT_BLOCK) - 1]
    return clean, np.delete(clean + 1.0, np.flatnonzero(clean == w - 2.0))


@pytest.mark.parametrize("shape", ["continuous", "tied", "edge"])
@pytest.mark.parametrize("n_clean", [
    _COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 2 * _COUNT_BLOCK + 1,
])
def test_exact_counts_across_count_blocks(monkeypatch, shape, n_clean):
    rng = np.random.default_rng([n_clean, len(shape)])
    clean, attacked = block_edge_scores(shape, n_clean, rng)
    if shape != "continuous" and n_clean > _COUNT_BLOCK:
        edge = clean[_COUNT_BLOCK - 1 : _COUNT_BLOCK + 1]
        assert edge[0] == edge[1]  # a tied run straddles the block edge
    order = rng.permutation(clean.size + attacked.size)
    scores = np.concatenate((clean, attacked))[order]
    labels = (np.arange(scores.size) >= clean.size)[order]
    batches = []
    run_all = harness._run_all

    def recording(fn, items):
        batches.append(len(items))
        run_all(fn, items)

    monkeypatch.setattr(harness, "_run_all", recording)
    with ThreadPoolExecutor(2) as two:
        if harness._POOL is None:
            monkeypatch.setattr(harness, "_POOL", two)
        tau, pe = optimize_exact(scores, labels)
    # every cut in count blocks on the pool; a single block starts no helper
    blocks = -(-n_clean // _COUNT_BLOCK)
    assert batches == [blocks]
    assert (tau, pe) == reference_exact(scores, labels)
    if shape == "continuous":
        assert (tau, pe) == (0.5 * (clean[0] + attacked[0]), (n_clean - 1) / scores.size)
    elif shape == "tied":
        assert (tau, pe) == (0.5, (n_clean - 7) / scores.size)
    else:
        w = clean[min(n_clean, _COUNT_BLOCK) - 1]
        errors = n_clean - 7 - np.count_nonzero(clean == w)
        assert (tau, pe) == (w + 0.5, errors / scores.size)


def placed_minimum(shape, n_clean, place, rng):
    """(sorted clean scores, attacked scores, sorted index of the clean score
    just below the smallest minimizing cut, or None for the cut below every score).

    The minimum sits at the first clean cut, at the last cut of the first
    coarse block (or the last copy of the tied run across its edge), at
    the last clean score, or below every score.
    """
    target = {"first": 0, "edge": min(_COARSE_STEP, n_clean) - 1, "last": n_clean - 1}
    if shape == "interleaved":
        # clean scores at the even numbers and an attacked score just above
        # each: a flat error curve, whose smallest cut is the first.  With
        # the attacked scores just below each, it ties with the cut below
        # every score, which wins the tie.  Dropping the attacked score just
        # below a clean score lowers the curve from that score on.
        clean = 2.0 * np.arange(n_clean)
        if place == "-inf":
            return clean, clean - 1.0, None
        k = target[place]
        return clean, np.delete(clean + 1.0, k - 1) if k else clean + 1.0, k
    if shape == "continuous":
        clean = np.sort(rng.normal(size=n_clean))
    else:  # runs of 3 tied scores, one of them across the first coarse edge
        clean = np.arange(n_clean) // 3 * 0.5
    if place == "-inf":  # more attacked scores than clean ones, all below them
        return clean, clean[0] - 1.0 - rng.random(n_clean + 1), None

    def above(j, count):
        # count attacked scores above the j-th clean score, at or below the
        # next clean run: tied with it in the tied shape
        nxt = clean[j + 1] if j + 1 < n_clean else clean[j] + 1.0
        if shape == "tied":
            return np.full(count, nxt)
        return clean[j] + (nxt - clean[j]) * (1.0 - rng.random(count))

    k = int(np.searchsorted(clean, clean[target[place]], "right")) - 1
    if k == n_clean - 1:
        return clean, above(k, n_clean + 1), k
    # as many attacked scores just above the k-th clean score as the next
    # run has copies, so the cut above that run ties with the k-th; then
    # more attacked than clean scores just above that run
    j = int(np.searchsorted(clean, clean[k + 1], "right")) - 1
    return clean, np.concatenate((above(k, j - k), above(j, n_clean + 1))), k


@pytest.mark.parametrize("place", ["first", "edge", "last", "-inf"])
@pytest.mark.parametrize("shape", ["continuous", "tied", "interleaved"])
@pytest.mark.parametrize("n_clean", [63, 64, 65, 129, 3 * _COARSE_STEP - 5])
def test_exact_minimum_at_coarse_block_boundaries(n_clean, shape, place):
    rng = np.random.default_rng([n_clean, len(shape), len(place)])
    clean, attacked, k = placed_minimum(shape, n_clean, place, rng)
    if shape == "tied" and place == "edge" and n_clean > _COARSE_STEP:
        # a tied run straddles the edge, and the minimum is at its last copy
        assert clean[_COARSE_STEP - 1] == clean[_COARSE_STEP] == clean[k]
        assert k >= _COARSE_STEP
    order = rng.permutation(clean.size + attacked.size)
    scores = np.concatenate((clean, attacked))[order]
    labels = (np.arange(scores.size) >= clean.size)[order]
    tau, pe = optimize_exact(scores, labels)
    assert (tau, pe) == reference_exact(scores, labels)
    if k is None:
        assert tau == -math.inf
    else:
        assert np.searchsorted(clean, tau) == k + 1  # just above the k-th clean score


@given(st.integers(0, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_coalition_round_trip(drawn):
    n, bits = drawn
    s = Coalition(bits, n)
    assert Coalition.of(list(s), n) == s


class TableGame:
    """A value function read from a 2^n table; it also checks each coalition's universe."""

    def __init__(self, table):
        self.table = table
        self.n = table.size.bit_length() - 1

    def __call__(self, s, x=None):
        return self.table[s.bits] if s.n == self.n else math.nan


def listed_values(v, x):
    """v(S, x) for every mask, one coalition built per call: the engine's former loop."""
    n = v.n
    return np.array([v(Coalition._trusted(mask, n), x) for mask in range(1 << n)], dtype=float)


def listed_truncated(values, n, i, keep):
    """Sensor i's truncated Shapley sum, its predicate called by the engine's former loop."""
    low = (1 << i) - 1
    kept = np.array([
        bool(keep(Coalition._trusted(((sub & ~low) << 1) | (sub & low), n)))
        for sub in range(1 << (n - 1))
    ])
    weights = np.where(kept, _pair_weights(n), 0.0)
    mass = weights.sum()
    if mass == 0.0:
        raise EmptyKeptSetError("truncation predicate kept no coalition")
    return float(_transform(values, (i,), weights)[0] / mass)


def _outcome(f, *args):
    """The bytes of f's result, so -0.0 differs from 0.0, or the type of its refusal."""
    try:
        return np.float64(f(*args)).tobytes()
    except EmptyKeptSetError as e:
        return type(e)


@settings(max_examples=30)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from(["sizes", "masks"]),
       st.floats(0.0, 1.0))
@example(14, 0, "sizes", 0.3)
@example(14, 1, "masks", 0.02)
def test_block_enumeration_equals_the_former_loops(n, seed, kind, share):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << n)
    table[0] = 0.0
    game = TableGame(table)
    values = listed_values(game, None)
    assert all_shapley(game, None).phi.tobytes() == shapley_from_values(values).tobytes()
    if kind == "sizes":
        sizes = {c for c in range(n) if rng.random() < share}

        def keep(s):
            return len(s) in sizes
    else:
        masks = set(np.flatnonzero(rng.random(1 << n) < share).tolist())

        def keep(s):
            return s.bits in masks

    for i in range(n):
        assert _outcome(exact_shapley, game, None, i) == _outcome(shapley_from_values, values, i)
        want = _outcome(listed_truncated, values, n, i, keep)
        assert _outcome(truncated_shapley, game, None, i, keep) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(14, 2, 0.3)
@example(16, 3, 0.05)
def test_kept_universe_and_blocks_give_the_same_bits(n, seed, share):
    from unittest import mock

    import shaploc.shapley as shapley

    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << n)
    table[0] = 0.0
    game = TableGame(table)
    masks = set(np.flatnonzero(rng.random(1 << n) < share).tolist())

    def keep(s):
        return s.bits in masks

    sensors = range(n) if n <= 12 else sorted(set(rng.integers(0, n, size=3).tolist()))

    def outcomes():
        got = [all_shapley(game, None).phi.tobytes()]
        for i in sensors:
            got.append(_outcome(exact_shapley, game, None, i))
            got.append(_outcome(truncated_shapley, game, None, i, keep))
        return got

    try:
        with mock.patch.object(shapley, "_KEPT_COALITIONS", 1 << n):
            kept = outcomes()
    finally:
        if n > 14:  # drop the universe the raised limit kept, and its selections
            shapley._universe.cache_clear()
            shapley._selection.cache_clear()
    with mock.patch.object(shapley, "_KEPT_COALITIONS", 0):
        assert outcomes() == kept


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_fails_only_itself(tmp_path):
    # pytest runs under this repository's settings, which turn warnings into
    # errors: reporting a failing example must not abort the run
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    out = done.stdout.decode()
    assert done.returncode == 1, out + done.stderr.decode()
    assert "1 failed, 1 passed" in out
