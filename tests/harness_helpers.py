"""What the harness tests share: chunk results, trial-order scores and
observations the caller owns, and threshold searches over trial-order
scores and labels."""

import numpy as np

from shaploc import harness


def chunk(config, start, count):
    """``_simulate_chunk``'s (phi, v, attacked), each copied out of the scratch.

    The scores are views of the thread's scratch, so a second chunk on the
    same thread would overwrite a first one that was not copied.
    """
    return tuple(a.copy() for a in harness._simulate_chunk(config, start, count))


def trial_scores(config):
    """(phi, v, attacked) of every trial, in trial order.

    The chunks run through ``harness._run_all``, ``harness._TRIAL_CHUNK``
    trials each, both read at call time, so a test that patches the pool,
    ``_run_all`` or the chunk size sees its own chunking.
    """
    m, size = config.trials, harness._TRIAL_CHUNK
    phi, v, attacked = np.empty(m), np.empty(m), np.empty(m, dtype=bool)

    def run(start):
        stop = min(start + size, m)
        phi[start:stop], v[start:stop], attacked[start:stop] = harness._simulate_chunk(
            config, start, stop - start
        )

    harness._run_all(run, range(0, m, size))
    return phi, v, attacked


def trial_observations(config, start, count):
    """(observations, attacked labels) for trials start..start+count-1.

    The observations are trial-major.  The trials are taken
    ``harness._WIDTH`` at a time, each tile as one chunk.
    """
    xs, attacked = np.empty((config.model.n, count)), np.empty(count, dtype=bool)
    for lo in range(0, count, harness._WIDTH):
        hi = min(lo + harness._WIDTH, count)
        tile, attacked[lo:hi], _ = harness._chunk_observations(config, start + lo, hi - lo)
        xs[:, lo:hi] = tile[:, : hi - lo]
    return xs.T, attacked


def split_sorted(scores, labels):
    """(sorted attacked scores, sorted clean scores)."""
    return np.sort(scores[labels]), np.sort(scores[~labels])


def optimize_exact(scores, labels):
    """``_exact_threshold`` over the classes of trial-order scores and labels."""
    return harness._exact_threshold(*split_sorted(scores, labels))


def optimize_grid(scores, labels, lo, hi, steps):
    """``_grid_threshold`` over the classes of trial-order scores and labels."""
    return harness._grid_threshold(*split_sorted(scores, labels), lo, hi, steps)
