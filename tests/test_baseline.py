import math
import random
import re
import struct
from array import array

import pytest

from cxgcorpus import baseline
from cxgcorpus.baseline import (
    CROSS_WEIGHT,
    SIDE_WEIGHT,
    LinearModel,
    evaluate,
    featurize_pair,
    hash_feature,
    load_model,
    save_model,
    shuffle_control,
    train,
)
from cxgcorpus.errors import InputError, ParseError
from cxgcorpus.pair_sampler import PairText
from helpers import dense_train, pair_features


def _pair(label, a, b, lo=2, hi=50):
    return PairText(label, a, b, 0, lo, hi)


SEPARABLE = [
    _pair("same", "zork alpha beta", "zork gamma delta"),
    _pair("same", "zork epsilon", "zork zeta"),
    _pair("different", "milu alpha", "kanto beta"),
    _pair("different", "milu gamma", "kanto delta"),
]


class TestFeaturize:
    def test_deterministic(self):
        a = featurize_pair("the red dog", "a red cat", baseline.DIM)
        b = featurize_pair("the red dog", "a red cat", baseline.DIM)
        assert a == b

    def test_disjoint_vocabulary_no_cross_features(self):
        feats = pair_features("aa bb", "cc dd")
        assert not [f for f in feats if f.startswith("X:")]

    def test_cross_block_symmetric_sides_not(self):
        ab = set(pair_features("aa bb", "bb cc"))
        ba = set(pair_features("bb cc", "aa bb"))
        assert {f for f in ab if f.startswith("X:")} == {f for f in ba if f.startswith("X:")}
        assert ab != ba

    def test_equals_the_hashed_feature_strings_under_any_memo(self):
        # dim 8: A, B and X buckets collide, and colliding features add up
        rng = random.Random(5)
        vocab = ["aa", "bb", "cc", "dd", "e"]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(40)]
        pairs = [(rng.choice(texts), rng.choice(texts)) for _ in range(150)]
        pairs += [(t, t) for t in texts[:5]] + [("aa", "aa"), ("aa", "bb"), ("e e e", "e")]
        dim = 2 ** 3

        def reference(text_a, text_b):
            vec = {}
            for f in pair_features(text_a, text_b):
                weight = CROSS_WEIGHT if f.startswith("X:") else SIDE_WEIGHT
                idx = hash_feature(f, dim)
                vec[idx] = vec.get(idx, 0.0) + weight
            return vec

        expected = [reference(a, b) for a, b in pairs]
        assert any(len(v) < len(set(pair_features(a, b))) for v, (a, b) in zip(expected, pairs))
        assert [featurize_pair(a, b, dim) for a, b in pairs] == expected
        shared = {}
        assert [featurize_pair(a, b, dim, shared) for a, b in pairs] == expected
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled = {}
        vecs = {i: featurize_pair(*pairs[i], dim, shuffled) for i in order}
        assert vecs == dict(enumerate(expected))

    def test_collision_rate_below_one_percent(self, desk, desk_table):
        # exact-mapping oracle: hash every distinct feature string from a
        # desk-scale pair sample and count bucket collisions
        from cxgcorpus.pair_sampler import sample_pairs

        sampled = sample_pairs(desk_table, (2, 50), 23, "anchor")
        texts = desk.texts
        feats = set()
        for pair in sampled.train[:150]:
            feats.update(pair_features(texts[pair.sent_a], texts[pair.sent_b]))
        dim = 2 ** 20
        buckets: dict[int, int] = {}
        for f in feats:
            buckets[hash_feature(f, dim)] = buckets.get(hash_feature(f, dim), 0) + 1
        colliding = sum(n for n in buckets.values() if n > 1)
        assert len(feats) > 1000
        assert colliding / len(feats) < 0.01


class TestTrain:
    def test_separable_reaches_full_training_accuracy(self):
        model = train(SEPARABLE, 20, 1)
        assert model.train_accuracy == 1.0

    def test_same_seed_identical_weights(self):
        a = train(SEPARABLE, 3, 9)
        b = train(SEPARABLE, 3, 9)
        assert a.bias == b.bias
        assert a.weights.typecode == b.weights.typecode == "d"
        assert len(a.weights) == len(b.weights) == baseline.DIM
        assert a.weights == b.weights  # every element equal

    def test_single_label_rejected(self):
        with pytest.raises(InputError, match="both labels"):
            train([_pair("same", "a", "b"), _pair("same", "c", "d")], 1, 0)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(InputError):
            train([_pair("same", "a", "b")], 1, 0)

    @pytest.mark.parametrize("epochs", [0, -2], ids=lambda epochs: f"epochs-{epochs}")
    def test_out_of_range_hyperparams_rejected(self, epochs):
        with pytest.raises(InputError, match=rf"^epochs must be at least 1, got {epochs}$"):
            train(SEPARABLE, epochs, 1)

    def test_hash_memo_shared_with_evaluate(self, monkeypatch):
        # one memo for train and evaluate: the model and the scores are the
        # same as without it; each side unigram and bigram is hashed once
        # per occurrence in each distinct (side, text), each cross feature
        # once per run, and the memo keeps the side arrays and the cross
        # features but no side feature string
        unshared = train(SEPARABLE, 3, 2)
        expected = evaluate(unshared, SEPARABLE[:3])
        calls = []
        monkeypatch.setattr(baseline, "hash_feature",
                            lambda feature, dim: calls.append(feature) or hash_feature(feature, dim))
        memo = {}
        model = train(SEPARABLE, 3, 2, memo)
        assert evaluate(model, SEPARABLE[:3], memo) == expected
        assert model.weights == unshared.weights and model.bias == unshared.bias
        sides = {("A", p.text_a) for p in SEPARABLE} | {("B", p.text_b) for p in SEPARABLE}
        side_features = []
        for side, text in sides:
            toks = text.split()
            side_features += [f"{side}:{t}" for t in toks]
            side_features += [f"{side}:{t1}_{t2}" for t1, t2 in zip(toks, toks[1:])]
        cross = {f for p in SEPARABLE for f in pair_features(p.text_a, p.text_b)
                 if f.startswith("X:")}
        assert side_features and cross
        assert sorted(calls) == sorted([*side_features, *cross])
        assert sorted(k for k in memo if isinstance(k, str)) == sorted(cross)
        assert {k for k in memo if not isinstance(k, str)} == sides

    def test_equals_the_dense_trainer(self, monkeypatch):
        # seeded pair sets over a six-token vocabulary, so that the pairs
        # share buckets and cross features; every second set hashes into
        # 61 buckets, so that features also collide within a bucket
        rng = random.Random(26)
        vocab = ["aa", "bb", "cc", "dd", "ee", "f"]
        collided = False
        for case in range(300):
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 5)))
                     for _ in range(rng.randint(2, 8))]
            pairs = [_pair(rng.choice(("same", "different")), rng.choice(texts), rng.choice(texts))
                     for _ in range(rng.randint(0, 10))]
            # identical sides, repeated and one-token sides, both labels
            pairs += [_pair("same", texts[0], texts[0]), _pair("different", "f f f", "f")]
            pairs += rng.choices(pairs, k=2)  # duplicated pairs
            rng.shuffle(pairs)
            epochs, seed = case % 4 + 1, rng.randrange(1000)
            with monkeypatch.context() as patch:
                if case % 2:
                    patch.setattr(baseline, "hash_feature",
                                  lambda feature, dim: hash_feature(feature, 61))
                    collided = collided or any(
                        len(featurize_pair(p.text_a, p.text_b, baseline.DIM))
                        < len(set(pair_features(p.text_a, p.text_b))) for p in pairs)
                got = train(pairs, epochs, seed)
                want = dense_train(pairs, epochs, seed)
            assert got.weights.typecode == "d" and len(got.weights) == baseline.DIM
            assert (got.weights.tobytes(), got.bias, got.epoch_losses, got.train_accuracy) == (
                want.weights.tobytes(), want.bias, want.epoch_losses, want.train_accuracy), case
        assert collided

    def test_matches_a_plain_reference_trainer(self, desk, desk_table):
        # the same SGD over dense lists with left-to-right sums: equal up
        # to float64 rounding, set beforehand at 1e-9, and equal predictions
        from cxgcorpus.pair_sampler import sample_pairs

        sampled = sample_pairs(desk_table, (2, 50), 11, "anchor")
        texts = desk.texts
        pairs = [
            PairText(p.label, texts[p.sent_a], texts[p.sent_b], p.anchor_cxg, p.band_lo, p.band_hi)
            for p in sampled.train + sampled.test
        ]
        model = train(pairs[:len(sampled.train)], 3, 4)

        vecs = [featurize_pair(p.text_a, p.text_b, baseline.DIM) for p in pairs]
        w, bias = [0.0] * baseline.DIM, 0.0
        order = list(range(len(sampled.train)))
        rng = random.Random(4)
        for _ in range(3):
            rng.shuffle(order)
            for i in order:
                z = bias
                for j, v in vecs[i].items():
                    z += w[j] * v
                g = 1.0 / (1.0 + math.exp(-z)) - (pairs[i].label == "same")
                for j, v in vecs[i].items():
                    w[j] -= baseline.LEARNING_RATE * (g * v + baseline.L2 * w[j])
                bias -= baseline.LEARNING_RATE * g
        assert abs(model.bias - bias) <= 1e-9
        assert max(abs(a - b) for a, b in zip(model.weights, w)) <= 1e-9
        for pair, vec in zip(pairs, vecs):
            z = bias + sum(w[j] * v for j, v in vec.items())
            assert model.predict(pair.text_a, pair.text_b) == ("same" if z >= 0.0 else "different")

    def test_loss_decreases_on_desk_data(self, desk, desk_table):
        from cxgcorpus.pair_sampler import sample_pairs

        sampled = sample_pairs(desk_table, (2, 50), 11, "anchor")
        texts = desk.texts
        pairs = [
            PairText(p.label, texts[p.sent_a], texts[p.sent_b], p.anchor_cxg, p.band_lo, p.band_hi)
            for p in sampled.train
        ]
        model = train(pairs, 4, 0)
        assert model.epoch_losses[0] > model.epoch_losses[1] > model.epoch_losses[2]


class TestEvaluate:
    def test_constant_predictor_scores_half_on_balanced(self):
        model = train(SEPARABLE, 1, 0)
        model.weights[:] = array("d", [0.0]) * len(model.weights)
        assert not any(model.weights)
        model = model._replace(bias=5.0)  # always predicts "same"
        result = evaluate(model, SEPARABLE)
        assert result.accuracy == 0.5

    def test_perfect_knowledge_model_scores_one(self):
        # harness-only: the label is leaked into both texts as a token,
        # so a hand-built model keyed on the leak must score 1.0
        pairs = [
            _pair("same", "LBLsame aa bb", "LBLsame cc dd"),
            _pair("same", "LBLsame ee", "LBLsame ff"),
            _pair("different", "LBLdiff aa", "LBLdiff gg"),
            _pair("different", "LBLdiff hh", "LBLdiff ii"),
        ]
        dim = 2 ** 16  # predict takes the dimension from the weights
        w = array("d", [0.0]) * dim
        w[hash_feature("X:LBLsame", dim)] = 10.0
        w[hash_feature("X:LBLdiff", dim)] = -10.0
        model = LinearModel(w, 0.0)
        assert evaluate(model, pairs).accuracy == 1.0

    def test_per_band_table(self):
        model = train(SEPARABLE, 20, 1)
        pairs = [
            _pair("same", "zork a", "zork b", 2, 50),
            _pair("different", "milu a", "kanto b", 10001, None),
        ]
        result = evaluate(model, pairs)
        assert [(b.band_lo, b.band_hi) for b in result.per_band] == [(2, 50), (10001, None)]
        assert result.n_pairs == 2

    def test_empty_input_rejected(self):
        model = train(SEPARABLE, 1, 0)
        with pytest.raises(InputError):
            evaluate(model, [])


class TestShuffleControl:
    def test_label_multiset_preserved(self):
        shuffled = shuffle_control(SEPARABLE, seed=3)
        assert sorted(p.label for p in shuffled) == sorted(p.label for p in SEPARABLE)
        assert [(p.text_a, p.text_b) for p in shuffled] == [
            (p.text_a, p.text_b) for p in SEPARABLE
        ]

    def test_same_seed_same_permutation(self):
        a = shuffle_control(SEPARABLE, seed=5)
        b = shuffle_control(SEPARABLE, seed=5)
        assert a == b


def _small_model() -> LinearModel:
    """A model of 2**12 weights: its file records that dimension."""
    return LinearModel(array("d", [0.25]) * 2 ** 12, 0.5)


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        model = train(SEPARABLE, 5, 2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.bias == model.bias
        assert loaded.weights == model.weights  # every element equal
        assert len(loaded.weights) == baseline.DIM
        for pair in SEPARABLE:
            assert loaded.predict(pair.text_a, pair.text_b) == model.predict(
                pair.text_a, pair.text_b
            )

    def test_other_block_weights_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(_small_model(), path)
        data = bytearray(path.read_bytes())
        weights = struct.calcsize("<4sIQd")  # magic, version, dim, bias
        data[weights:weights + 8] = struct.pack("<d", 3.0)  # the cross weight
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=re.escape(f"{path}: block weights 3.0/0.5")):
            load_model(path)

    @pytest.mark.parametrize("delta", [-8, 8, -3, 5])
    def test_weight_count_not_matching_dim_rejected(self, tmp_path, delta):
        # delta a multiple of 8: one weight too few or too many;
        # otherwise a partial weight
        path = tmp_path / "model.bin"
        save_model(_small_model(), path)
        data = path.read_bytes()
        path.write_bytes(data[:delta] if delta < 0 else data + bytes(delta))
        assert len(data) == 40 + 8 * 2 ** 12
        with pytest.raises(ParseError, match=re.escape(f"{path}: expected {len(data)} bytes")):
            load_model(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"CXPM\x01")
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)


class TestExactSums:
    def test_decision_independent_of_feature_order(self):
        # terms whose left-to-right float sum depends on their order
        vec = {0: 1.0, 1: 1.0, 2: 1.0}
        weights = array("d", [1e16, 1.0, -1e16])
        model = LinearModel(weights, 0.0)
        reordered = {2: 1.0, 1: 1.0, 0: 1.0}
        assert (1e16 + 1.0) - 1e16 != 1.0  # the naive sum loses the 1.0
        assert model.decision(vec) == model.decision(reordered) == 1.0
