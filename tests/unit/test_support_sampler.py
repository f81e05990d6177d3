"""Contract of the fast path's support sampler.

:func:`repro.sim.fastpath._sample_support` replaces
``rng.choice(1 << n_phys, size, p=full)`` over a zero-padded physical
register with a CDF over only the indices that can occur.  Sampled ARG
stays bit-identical to the gate-by-gate path only while the two draw the
same indices *and* leave the generator in the same state, so both are
checked against ``Generator.choice`` itself: a numpy release that changes
how ``choice`` samples fails here first.
"""

import numpy as np
import pytest

from repro.sim.fastpath import (
    _physical_index_map,
    _sample_support,
    _sorted_support,
)

CASES = 120


def _case(seed):
    """A random support over up to 20 physical qubits: a logical-to-
    physical map, a dirt mask on unmapped qubits, and normalised
    probabilities with some exact zeros (sometimes the first or last)."""
    rng = np.random.default_rng([seed, 7])
    n_phys = int(rng.integers(1, 21))
    n = int(rng.integers(1, min(n_phys, 10) + 1))
    phys = rng.permutation(n_phys)
    mapping = {q: int(phys[q]) for q in range(n)}
    dirt_mask = 0
    for p in phys[n:]:
        if rng.random() < 0.3:
            dirt_mask |= 1 << int(p)
    order, support = _sorted_support(mapping, n)
    support = support | dirt_mask
    probs = rng.random(1 << n) ** 3
    probs[rng.random(1 << n) < 0.25] = 0.0
    if rng.random() < 0.3:
        probs[-1] = 0.0
    if rng.random() < 0.3:
        probs[0] = 0.0
    if probs.sum() == 0.0:
        probs[0] = 1.0
    probs /= probs.sum()
    size = int(rng.integers(1, 3000))
    return n_phys, support, probs, size, int(rng.integers(2**31))


@pytest.mark.parametrize("seed", range(CASES))
def test_draws_and_generator_state_match_choice(seed):
    n_phys, support, probs, size, draw_seed = _case(seed)
    assert np.all(np.diff(support) > 0), "support must be ascending"
    full = np.zeros(1 << n_phys)
    full[support] = probs

    ours_rng = np.random.default_rng(draw_seed)
    theirs_rng = np.random.default_rng(draw_seed)
    ours = _sample_support(ours_rng, support, probs, size)
    theirs = theirs_rng.choice(1 << n_phys, size=size, p=full)

    np.testing.assert_array_equal(ours, theirs)
    assert ours.dtype == theirs.dtype
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
    assert np.all(probs[np.searchsorted(support, ours)] > 0.0)


def test_sorted_support_sorts_the_physical_index_map():
    mapping = {0: 7, 1: 2, 2: 11, 3: 0}
    order, support = _sorted_support(mapping, 4)
    phys = _physical_index_map(mapping, 4)
    np.testing.assert_array_equal(support, np.sort(phys))
    np.testing.assert_array_equal(phys[order], support)


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, np.nan, 0.5],
        [0.6, -0.1, 0.5],
        [0.2, 0.2, 0.2],
    ],
    ids=["nan", "negative", "not-normalised"],
)
def test_rejects_what_choice_rejects(probs):
    support = np.array([1, 4, 9])
    full = np.zeros(16)
    full[support] = probs
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(16, size=4, p=full)
    with pytest.raises(ValueError):
        _sample_support(np.random.default_rng(0), support, np.array(probs), 4)
