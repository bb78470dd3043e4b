"""Hashed-feature logistic-regression probe over sentence-pair files.

This is the desk-scale control classifier: it proves the generated pair
task is learnable, supports a label-shuffle sanity control, and reports
accuracy per frequency band. Features are hashed unigrams/bigrams of
each side (with A:/B: markers) plus cross-features over shared tokens,
with the fixed block weights CROSS_WEIGHT and SIDE_WEIGHT, hashed into
DIM buckets and trained with seeded SGD on the logistic loss (fixed
LEARNING_RATE and L2; EPOCHS is the stage's default) in plain Python:
the weights are an `array('d')` and every dot product is an exactly
rounded `math.fsum`, so a model's bytes do not depend on the CPU.

One memo per run featurizes each distinct sentence side once into an
`array('l')` of buckets and hashes each unigram and cross feature once;
it keeps no bigram string, and training examples are packed arrays.
Features are hashed with `_blake2`'s blake2b, which is the one
`hashlib.blake2b` gives, without loading `hashlib` and its OpenSSL
library.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from array import array
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from _blake2 import blake2b

from .errors import InputError, ParseError
from .workspace import render_bound

if TYPE_CHECKING:
    from .pair_sampler import PairText

_MAGIC = b"CXPM"
_VERSION = 1
# magic, version, dim, bias and the block weights; then dim little-endian doubles
_HEADER = struct.Struct("<4sIQddd")

# Block weights: the shared-token block carries the pair-similarity
# signal, so it outweighs the per-side blocks (namespace weighting).
CROSS_WEIGHT = 2.0
SIDE_WEIGHT = 0.5

DIM = 2 ** 20  # hashed feature buckets
LEARNING_RATE = 0.1
L2 = 1e-6
EPOCHS = 8  # the stage's default; `--epochs` sets it


def hash_feature(feature: str, dim: int) -> int:
    digest = blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


def _bucket(feature: str, dim: int, memo: dict) -> int:
    idx = memo.get(feature)
    if idx is None:
        idx = memo[feature] = hash_feature(feature, dim)
    return idx


def featurize_pair(
    text_a: str, text_b: str, dim: int, memo: dict | None = None
) -> dict[int, float]:
    """Sparse hashed feature vector; deterministic for a given pair.

    Each side gives its side-marked unigrams and bigrams (A:tok, A:t1_t2,
    B:...), each weighted SIDE_WEIGHT; the cross block gives X:tok for
    every token the sides share, weighted CROSS_WEIGHT, so it is
    symmetric under swapping the sentences. Colliding buckets add up.
    `memo` (same `dim`) holds each side's bucket array by (side, text)
    and each unigram and cross feature's bucket by its string, so a
    bigram is hashed once per distinct side and never kept as a string.
    """
    if memo is None:
        memo = {}
    vec: dict[int, float] = {}
    for side, text in (("A", text_a), ("B", text_b)):
        buckets = memo.get((side, text))
        if buckets is None:
            toks = text.split()
            buckets = array("l", [_bucket(f"{side}:{t}", dim, memo) for t in toks])
            buckets.extend(hash_feature(f"{side}:{a}_{b}", dim) for a, b in zip(toks, toks[1:]))
            memo[side, text] = buckets
        for idx in buckets:
            vec[idx] = vec.get(idx, 0.0) + SIDE_WEIGHT
    for tok in set(text_a.split()).intersection(text_b.split()):
        idx = _bucket(f"X:{tok}", dim, memo)
        vec[idx] = vec.get(idx, 0.0) + CROSS_WEIGHT
    return vec


def _dot(w: array, keys, values) -> float:
    """Exactly rounded sum of w[j] * v, so independent of summation order."""
    return math.fsum(map(mul, map(w.__getitem__, keys), values))


class LinearModel(NamedTuple):
    weights: array  # array('d'), one weight per hashed bucket
    bias: float
    epoch_losses: tuple[float, ...] = ()
    train_accuracy: float = 0.0

    def decision(self, vec: dict[int, float]) -> float:
        return self.bias + _dot(self.weights, vec, vec.values())

    def predict(self, text_a: str, text_b: str, memo: dict | None = None) -> str:
        z = self.decision(featurize_pair(text_a, text_b, len(self.weights), memo))
        return "same" if z >= 0.0 else "different"


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def train(
    pairs: list[PairText],
    epochs: int,
    seed: int,
    memo: dict | None = None,
) -> LinearModel:
    """`epochs` of seeded SGD on the logistic loss with per-epoch
    reshuffling, over DIM buckets at LEARNING_RATE and L2. Each step
    touches only the pair's own buckets, L2 included. `memo` is
    featurize_pair's, which a later `evaluate` of the model may share;
    each example is kept as its packed bucket and value arrays."""
    if epochs < 1:
        raise InputError(f"epochs must be at least 1, got {epochs}")
    if memo is None:
        memo = {}
    if len(pairs) < 2:
        raise InputError("need at least 2 training pairs")
    labels = {p.label for p in pairs}
    if labels != {"same", "different"}:
        raise InputError(f"training set must contain both labels, got {sorted(labels)}")

    examples = []
    for p in pairs:
        vec = featurize_pair(p.text_a, p.text_b, DIM, memo)
        examples.append((array("l", vec), array("d", vec.values()), float(p.label == "same")))

    w = array("d", [0.0]) * DIM
    bias = 0.0
    lr, l2 = LEARNING_RATE, L2
    rng = random.Random(seed)
    order = list(range(len(examples)))
    losses = []
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            keys, values, y = examples[i]
            z = bias + _dot(w, keys, values)
            p = _sigmoid(z)
            p_clip = min(max(p, 1e-12), 1.0 - 1e-12)
            total += -(y * math.log(p_clip) + (1.0 - y) * math.log(1.0 - p_clip))
            g = p - y
            for j, v in zip(keys, values):
                w[j] -= lr * (g * v + l2 * w[j])
            bias -= lr * g
        losses.append(total / len(examples))

    correct = 0
    for keys, values, y in examples:
        z = bias + _dot(w, keys, values)
        correct += int((z >= 0.0) == (y == 1.0))
    return LinearModel(w, bias, tuple(losses), correct / len(examples))


class BandAccuracy(NamedTuple):
    band_lo: int
    band_hi: int | None
    n_pairs: int
    accuracy: float


class EvalResult(NamedTuple):
    accuracy: float
    n_pairs: int
    per_band: list[BandAccuracy]


def evaluate(
    model: LinearModel, pairs: list[PairText], memo: dict | None = None
) -> EvalResult:
    """Overall and per-band accuracy; pairs carry their band tags.
    `memo` is featurize_pair's, as in `train`."""
    if not pairs:
        raise InputError("cannot evaluate on an empty pair list")
    if memo is None:
        memo = {}
    correct_total = 0
    results: dict[tuple, tuple[int, int]] = {}
    for p in pairs:
        good = int(model.predict(p.text_a, p.text_b, memo) == p.label)
        correct_total += good
        n, c = results.get((p.band_lo, p.band_hi), (0, 0))
        results[(p.band_lo, p.band_hi)] = (n + 1, c + good)
    per_band = [
        BandAccuracy(lo, hi, n, c / n) for (lo, hi), (n, c) in sorted(
            results.items(), key=lambda kv: (kv[0][0], math.inf if kv[0][1] is None else kv[0][1])
        )
    ]
    return EvalResult(correct_total / len(pairs), len(pairs), per_band)


def shuffle_control(pairs: list[PairText], seed: int) -> list[PairText]:
    """Uniformly permute the labels, leaving pair contents untouched."""
    labels = [p.label for p in pairs]
    random.Random(seed).shuffle(labels)
    return [p._replace(label=lab) for p, lab in zip(pairs, labels)]


def write_metrics(result: EvalResult, path: str | Path) -> None:
    """TSV `band_lo band_hi n_pairs accuracy` plus a final ALL row."""
    with open(path, "w", encoding="utf-8") as fh:
        for band in result.per_band:
            fh.write(f"{band.band_lo}\t{render_bound(band.band_hi)}\t{band.n_pairs}"
                     f"\t{band.accuracy:.6f}\n")
        fh.write(f"ALL\tALL\t{result.n_pairs}\t{result.accuracy:.6f}\n")


def _little_endian(weights: array) -> array:
    if sys.byteorder == "big":
        weights = array("d", weights)
        weights.byteswap()
    return weights


def save_model(model: LinearModel, path: str | Path) -> None:
    """Flat binary: magic, version, dim, bias and the block weights in a
    fixed-size header, then the weight vector."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, len(model.weights), model.bias,
                              CROSS_WEIGHT, SIDE_WEIGHT))
        _little_endian(model.weights).tofile(fh)


def load_model(path: str | Path) -> LinearModel:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC or len(data) < _HEADER.size:
        raise ParseError(f"{path}: not a model file (magic {data[:4]!r}, {len(data)} bytes)")
    _, version, dim, bias, cross_w, side_w = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise ParseError(f"{path}: unsupported model version {version}")
    if (cross_w, side_w) != (CROSS_WEIGHT, SIDE_WEIGHT):
        raise ParseError(f"{path}: block weights {cross_w}/{side_w} differ from the fixed "
                         f"{CROSS_WEIGHT}/{SIDE_WEIGHT}")
    if len(data) != _HEADER.size + 8 * dim:
        raise ParseError(f"{path}: expected {_HEADER.size + 8 * dim} bytes for {dim} weights, "
                         f"found {len(data)}")
    weights = array("d")
    weights.frombytes(memoryview(data)[_HEADER.size:])
    return LinearModel(_little_endian(weights), bias)
