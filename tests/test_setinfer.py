"""Sequential set-MAP inference and RFS sampling against brute force.

Sequential set-MAP is the NB mode m* first (``nb_mode`` / ``nb_mode_batch``),
then the top-m* elements: ``map_set`` for one element set, and
``predicted_k_eval`` for a record set, where each m* is clipped to C.
"""

import itertools
import math

import numpy as np
import pytest

from setnet import (
    CardinalityPMF,
    EvalRecord,
    LabelSet,
    NegBinParams,
    NumericError,
    PredictedSet,
    ScoredElements,
    map_set,
    nb_mode,
    nb_mode_batch,
    nb_pmf_truncated,
    predicted_k_eval,
    sample_rfs_with,
)


def brute_force_map_set(probs, m_star):
    """Exhaustive subset argmax of the product of probabilities.

    Combinations enumerate in lexicographic order, so strict improvement
    keeps the lowest-index subset on exact ties, matching the tie rule.
    """
    best, best_v = None, -1.0
    for subset in itertools.combinations(range(len(probs)), m_star):
        v = math.prod(probs[i] for i in subset)
        if v > best_v:
            best, best_v = subset, v
    return set(best)


class TestMapSet:
    def test_simple_order_statistics(self):
        result = map_set(ScoredElements(probs=(0.9, 0.1, 0.7)), 2)
        assert result.indices == (0, 2)
        assert len(result.indices) == 2

    def test_empty_selection(self):
        assert map_set(ScoredElements(probs=(0.4, 0.6)), 0).indices == ()

    def test_too_large_m_star(self):
        with pytest.raises(NumericError):
            map_set(ScoredElements(probs=(0.4, 0.6)), 3)

    def test_ties_take_lower_index(self):
        result = map_set(ScoredElements(probs=(0.5, 0.9, 0.5, 0.5)), 2)
        assert result.indices == (0, 1)

    def test_matches_exhaustive_subset_argmax(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            m_total = int(rng.integers(1, 13))
            probs = tuple(rng.uniform(0.01, 0.99, size=m_total))
            m_star = int(rng.integers(0, m_total + 1))
            got = set(map_set(ScoredElements(probs=probs), m_star).indices)
            if m_star == 0:
                assert got == set()
            else:
                assert got == brute_force_map_set(probs, m_star)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(31)
        probs = tuple(rng.uniform(0.1, 1.0, size=9))
        scaled = tuple(0.5 * p for p in probs)
        for k in range(10):
            assert (map_set(ScoredElements(probs=probs), k).indices
                    == map_set(ScoredElements(probs=scaled), k).indices)

    def test_invalid_probs(self):
        with pytest.raises(NumericError):
            ScoredElements(probs=(0.5, 1.2))
        with pytest.raises(NumericError):
            ScoredElements(probs=(-0.1,))


def nb_mode_of(alpha, beta):
    """m* of the head's (alpha, beta): the mode of NB(alpha, 1 / (1 + beta))."""
    return int(nb_mode_batch(np.array([alpha]), np.array([1.0 / (1.0 + beta)]))[0])


class TestSequentialMap:
    def test_small_alpha_gives_empty_set(self):
        # alpha <= 1 puts the NB mode at 0 whatever beta is.
        scores = ScoredElements(probs=(0.99, 0.98, 0.97))
        assert map_set(scores, nb_mode_of(0.5, 1.0)).indices == ()

    def test_mode_then_top_elements(self):
        # alpha=5, beta=1 maps to NB(5, 1/2) whose mode is 4.
        rng = np.random.default_rng(32)
        probs = tuple(rng.uniform(0.0, 1.0, size=10))
        m_star = nb_mode_of(5.0, 1.0)
        assert m_star == nb_mode(NegBinParams(a=5.0, b=0.5)) == 4
        result = map_set(ScoredElements(probs=probs), m_star)
        assert len(result.indices) == 4
        assert set(result.indices) == set(np.argsort(-np.asarray(probs))[:4])

    def test_clamped_to_available_elements(self):
        # m* = 4 exceeds the two elements: map_set rejects it, and
        # predicted_k_eval clips it to C = 2, which predicts both.
        m_star = nb_mode_of(5.0, 1.0)
        with pytest.raises(NumericError):
            map_set(ScoredElements(probs=(0.2, 0.8)), m_star)
        record = EvalRecord(scores=(0.2, 0.8), truth=LabelSet(labels=(0, 1)))
        clipped = predicted_k_eval([record], [m_star])
        assert clipped == predicted_k_eval([record], [2])
        assert (clipped.o_precision, clipped.o_recall) == (1.0, 1.0)
        assert predicted_k_eval([record], [1]).o_recall == 0.5

    def test_permutation_consistency(self):
        rng = np.random.default_rng(33)
        probs = rng.uniform(0.0, 1.0, size=12)
        m_star = nb_mode_of(4.0, 1.3)
        base = map_set(ScoredElements(probs=tuple(probs)), m_star)
        perm = rng.permutation(12)
        permuted = map_set(ScoredElements(probs=tuple(probs[perm])), m_star)
        # As sets of original elements the prediction is unchanged.
        assert {int(perm[i]) for i in permuted.indices} == set(base.indices)


class TestSampleRfs:
    def test_point_mass_at_zero(self):
        card = CardinalityPMF(pmf=(1.0,))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert sample_rfs_with(card, lambda r: r.uniform(), rng) == []

    def test_point_mass_at_two(self):
        card = CardinalityPMF(pmf=(0.0, 0.0, 1.0))
        for seed in range(5):
            draw = sample_rfs_with(card, lambda r: int(r.choice(3, p=[0.5, 0.3, 0.2])),
                                   np.random.default_rng(seed))
            assert len(draw) == 2

    def test_cardinality_histogram_tv(self):
        params = NegBinParams(a=5.0, b=0.5)
        pmf = nb_pmf_truncated(params)
        card = CardinalityPMF(pmf=tuple(pmf))
        rng = np.random.default_rng(34)
        n = 10**5
        sizes = np.array([len(sample_rfs_with(card, lambda r: 0.0, rng))
                          for _ in range(n)])
        hist = np.bincount(sizes, minlength=len(pmf)) / n
        tv = 0.5 * np.abs(hist - np.asarray(pmf)).sum()
        assert tv < 0.02

    def test_element_exchangeability(self):
        # First and last draw of each sampled set follow the same law.
        card = CardinalityPMF(pmf=(0.0, 0.0, 0.5, 0.5))
        probs = np.array([0.6, 0.3, 0.1])
        rng = np.random.default_rng(35)
        first, last = [], []
        for _ in range(10**5):
            s = sample_rfs_with(card, lambda r: int(r.choice(3, p=probs)), rng)
            first.append(s[0])
            last.append(s[-1])
        h_first = np.bincount(first, minlength=3) / len(first)
        h_last = np.bincount(last, minlength=3) / len(last)
        assert 0.5 * np.abs(h_first - h_last).sum() < 0.02

    def test_pmf_validation(self):
        with pytest.raises(NumericError):
            CardinalityPMF(pmf=(0.5, 0.4))
        with pytest.raises(NumericError):
            CardinalityPMF(pmf=(1.2, -0.2))


class TestPredictedSet:
    def test_invariants_enforced(self):
        with pytest.raises(NumericError):
            PredictedSet(indices=(3, 1))
        with pytest.raises(NumericError):
            PredictedSet(indices=(1, 1))
        with pytest.raises(NumericError):
            PredictedSet(indices=(-1, 2))
        assert len(PredictedSet(indices=(0, 4, 9)).indices) == 3
