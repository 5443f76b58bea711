"""What the harness tests share: chunk results, trial-order scores and
deviations the caller owns, and threshold searches over trial-order
scores and labels."""

import numpy as np

from shaploc import harness


def chunk(config, block):
    """``_simulate_chunk``'s (phi, v, attacked) of one block, each copied out of the scratch.

    The scores are views of the thread's scratch, so a second chunk on the
    same thread would overwrite a first one that was not copied.
    """
    return tuple(a.copy() for a in harness._simulate_chunk(config, block))


def trial_scores(config):
    """(phi, v, attacked) of every trial, in trial order.

    The blocks run through ``harness._run_all``, read at call time, so a
    test that patches the pool or ``_run_all`` sees its own scheduling.
    """
    m, size = config.trials, harness._STREAM_BLOCK
    phi, v, attacked = np.empty(m), np.empty(m), np.empty(m, dtype=bool)

    def run(block):
        start = block * size
        stop = min(start + size, m)
        phi[start:stop], v[start:stop], attacked[start:stop] = harness._simulate_chunk(
            config, block
        )

    harness._run_all(run, range(-(-m // size)))
    return phi, v, attacked


def trial_deviations(config, start, count):
    """(deviations x - mean, attacked labels) of trials start..start+count-1.

    The deviations are trial-major.  Every block of the config's trials
    that the window touches is drawn whole, as one chunk, so the config's
    trials must cover the window.
    """
    size = harness._STREAM_BLOCK
    assert 0 <= start and 0 < count and start + count <= config.trials
    blocks = range(start // size, (start + count - 1) // size + 1)
    first = blocks[0] * size
    ds = np.empty((config.model.n, len(blocks) * size))
    attacked = np.empty(len(blocks) * size, dtype=bool)
    for block in blocks:
        d, labels, _ = harness._chunk_deviations(config, block)
        lo, hi = block * size - first, block * size - first + labels.size
        ds[:, lo:hi], attacked[lo:hi] = d[:, : labels.size], labels
    lo = start - first
    return ds[:, lo : lo + count].T, attacked[lo : lo + count]


def split_sorted(scores, labels):
    """(sorted attacked scores, sorted clean scores)."""
    return np.sort(scores[labels]), np.sort(scores[~labels])


def optimize_exact(scores, labels):
    """``_exact_threshold`` over the classes of trial-order scores and labels."""
    return harness._exact_threshold(*split_sorted(scores, labels))


def optimize_grid(scores, labels, lo, hi, steps):
    """``_grid_threshold`` over the classes of trial-order scores and labels."""
    return harness._grid_threshold(*split_sorted(scores, labels), lo, hi, steps)
