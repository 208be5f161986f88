"""Tests for the order-k Markov predictor (repro.core.predictor)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.predictor import (
    AccuracyTracker,
    MarkovPredictor,
    best_order,
    evaluate_predictor,
)
from repro.mobility.trace import Trace, VisitRecord


class TestMarkovPredictorBasics:
    def test_no_history_no_prediction(self):
        assert MarkovPredictor(1).predict() is None

    def test_single_visit_no_prediction_without_fallback(self):
        p = MarkovPredictor(1, fallback=False)
        p.update(3)
        assert p.predict() is None

    def test_learns_deterministic_cycle(self):
        p = MarkovPredictor(1)
        p.extend([0, 1, 2] * 10)
        # after visiting 2, the next is always 0
        assert p.predict() == (0, 1.0)

    def test_consecutive_duplicates_collapsed(self):
        p = MarkovPredictor(1)
        p.extend([0, 0, 0, 1])
        assert p.history == [0, 1]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            MarkovPredictor(0)

    def test_paper_example(self):
        """The Section IV-B example: history L1 L2 L3 L2 L3 L1 (0-indexed).

        With k=1 and the current landmark L1, candidates are the landmarks
        that followed L1 before: only L2, with conditional probability 1
        (L1 was followed by L2 in its single earlier occurrence).
        """
        p = MarkovPredictor(1, fallback=False)
        p.extend([1, 2, 3, 2, 3, 1])
        lm, prob = p.predict()
        assert lm == 2
        assert prob == 1.0

    def test_joint_probabilities_divide_by_total(self):
        p = MarkovPredictor(1, fallback=False)
        p.extend([1, 2, 3, 2, 3, 1])
        dist = p.distribution(joint=True)
        # N(L1 L2)=1 over 5 total bigrams, as in the paper's example
        assert dist[2] == pytest.approx(1 / 5)

    def test_context(self):
        p = MarkovPredictor(2)
        p.extend([5, 6, 7])
        assert p.context() == (6, 7)
        assert p.context(order=1) == (7,)

    def test_probability_of_unknown_is_zero(self):
        p = MarkovPredictor(1, fallback=False)
        p.extend([0, 1, 0, 1])
        assert p.probability_of(9) == 0.0


class TestFallback:
    def test_fallback_to_frequency(self):
        p = MarkovPredictor(1, fallback=True)
        p.extend([0, 1, 0, 1, 2])  # context "2" never seen before
        dist = p.distribution()
        assert dist  # frequency fallback gives something
        assert 2 not in dist  # current landmark excluded

    def test_fallback_to_lower_order(self):
        p = MarkovPredictor(3, fallback=True)
        p.extend([0, 1, 2, 0, 1, 2, 0])
        # full order-3 context (1,2,0) may be known; order drop still works
        assert p.predict() is not None

    def test_no_fallback_returns_empty(self):
        p = MarkovPredictor(2, fallback=False)
        p.extend([0, 1])  # no order-2 context yet
        assert p.distribution() == {}


class TestDistributionNormalisation:
    @given(st.lists(st.integers(0, 4), min_size=3, max_size=200))
    def test_conditional_distribution_sums_to_one(self, seq):
        p = MarkovPredictor(1)
        p.extend(seq)
        dist = p.distribution()
        if dist:
            assert sum(dist.values()) == pytest.approx(1.0)

    @given(st.lists(st.integers(0, 4), min_size=3, max_size=200),
           st.integers(1, 3))
    def test_probabilities_valid(self, seq, k):
        p = MarkovPredictor(k)
        p.extend(seq)
        for prob in p.distribution().values():
            assert 0.0 <= prob <= 1.0

    @given(st.lists(st.integers(0, 3), min_size=5, max_size=100))
    def test_predict_is_argmax(self, seq):
        p = MarkovPredictor(1)
        p.extend(seq)
        guess = p.predict()
        if guess is not None:
            dist = p.distribution()
            assert guess[1] == max(dist.values())

    @given(st.lists(st.integers(0, 5), max_size=60), st.integers(1, 3),
           st.booleans(), st.booleans())
    def test_predict_matches_the_max_key_form(self, seq, k, fallback, joint):
        """After every visit, the winner is ``max`` over ``(probability,
        -landmark)``: the most likely landmark, the smallest id on ties
        (short histories over six landmarks tie often)."""
        p = MarkovPredictor(k, fallback=fallback)
        for lm in seq:
            p.update(lm)
            dist = p.distribution(joint=joint)
            want = None
            if dist:
                best = max(dist, key=lambda x: (dist[x], -x))
                want = (best, dist[best])
            assert p.predict(joint=joint) == want


class TestAccuracyTracker:
    def test_initial_value(self):
        assert AccuracyTracker().value == 0.5

    def test_correct_raises_value(self):
        t = AccuracyTracker()
        v = t.record(True)
        assert v == pytest.approx(0.55)

    def test_incorrect_lowers_value(self):
        t = AccuracyTracker()
        assert t.record(False) == pytest.approx(0.45)

    def test_capped_at_one(self):
        t = AccuracyTracker()
        for _ in range(200):
            t.record(True)
        assert t.value == 1.0

    def test_floored(self):
        t = AccuracyTracker(floor=0.1)
        for _ in range(200):
            t.record(False)
        assert t.value == pytest.approx(0.1)

    def test_empirical_rate(self):
        t = AccuracyTracker()
        t.record(True)
        t.record(True)
        t.record(False)
        assert t.empirical_rate == pytest.approx(2 / 3)

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            AccuracyTracker(up=0.9)
        with pytest.raises(ValueError):
            AccuracyTracker(down=1.1)


def _trace_from_sequences(seqs):
    recs = []
    for node, seq in enumerate(seqs):
        for i, lm in enumerate(seq):
            recs.append(VisitRecord(start=i * 100.0, end=i * 100.0 + 50, node=node, landmark=lm))
    return Trace(recs)


class TestEvaluatePredictor:
    def test_perfect_cycle_is_fully_predictable(self):
        tr = _trace_from_sequences([[0, 1, 2] * 20])
        ev = evaluate_predictor(tr, 1)
        # after a warm start, every prediction is right; allow early misses
        assert ev.mean_accuracy > 0.9

    def test_random_sequence_is_poorly_predictable(self):
        import numpy as np
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 10, 300).tolist()
        tr = _trace_from_sequences([seq])
        ev = evaluate_predictor(tr, 1)
        assert ev.mean_accuracy < 0.4

    def test_min_visits_skips_short_histories(self):
        tr = _trace_from_sequences([[0, 1], [0, 1, 2, 0, 1, 2, 0, 1, 2]])
        ev = evaluate_predictor(tr, 1, min_visits=5)
        assert list(ev.per_node_accuracy) == [1]

    def test_counts_consistent(self):
        tr = _trace_from_sequences([[0, 1, 0, 1, 0, 1]])
        ev = evaluate_predictor(tr, 1)
        assert 0 <= ev.n_correct <= ev.n_predictions

    def test_summary_shape(self, dart_tiny):
        ev = evaluate_predictor(dart_tiny, 1)
        s = ev.summary()
        assert 0 <= s.minimum <= s.mean <= s.maximum <= 1

    def test_best_order_on_cycle(self):
        tr = _trace_from_sequences([[0, 1, 2, 3] * 30])
        assert best_order(tr, ks=(1, 2)) in (1, 2)  # both perfect; ties -> first best

    def test_fig6_shape_order1_best_on_dart(self, dart_small):
        accs = {k: evaluate_predictor(dart_small, k).mean_accuracy for k in (1, 2, 3)}
        assert accs[1] >= accs[2] >= accs[3] - 0.02
        assert 0.45 < accs[1] < 0.9
