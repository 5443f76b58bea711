"""What the harness tests share: chunk results the caller owns, and
threshold searches over trial-order scores and labels."""

import numpy as np

from shaploc import harness


def chunk(config, start, count):
    """``_simulate_chunk``'s (phi, v, attacked), each copied out of the scratch.

    The scores are views of the thread's scratch, so a second chunk on the
    same thread would overwrite a first one that was not copied.
    """
    return tuple(a.copy() for a in harness._simulate_chunk(config, start, count))


def split_sorted(scores, labels):
    """(sorted attacked scores, sorted clean scores)."""
    return np.sort(scores[labels]), np.sort(scores[~labels])


def optimize_exact(scores, labels):
    """``_exact_threshold`` over the classes of trial-order scores and labels."""
    return harness._exact_threshold(*split_sorted(scores, labels))


def optimize_grid(scores, labels, lo, hi, steps):
    """``_grid_threshold`` over the classes of trial-order scores and labels."""
    return harness._grid_threshold(*split_sorted(scores, labels), lo, hi, steps)
