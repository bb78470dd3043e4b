"""Hashed-feature logistic-regression probe over sentence-pair files.

This is the desk-scale control classifier: it proves the generated pair
task is learnable, supports a label-shuffle sanity control, and reports
accuracy per frequency band. Features are hashed unigrams/bigrams of
each side (with A:/B: markers) plus cross-features over shared tokens,
with the fixed block weights CROSS_WEIGHT and SIDE_WEIGHT, trained with
seeded SGD on the logistic loss in plain Python: the weights are an
`array('d')` and every dot product is an exactly rounded `math.fsum`,
so a model's bytes do not depend on the CPU.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import sys
from array import array
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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


class Hyperparams(NamedTuple):
    dim: int = 2 ** 20
    learning_rate: float = 0.1
    epochs: int = 8
    l2: float = 1e-6
    seed: int = 0


# The range of each bounded hyperparameter: a test, and its wording.
_RANGES = {
    "dim": (lambda v: v >= 1, "at least 1"),
    "epochs": (lambda v: v >= 1, "at least 1"),
    "learning_rate": (lambda v: 0 < v < math.inf, "finite, > 0"),
    "l2": (lambda v: 0 <= v < math.inf, "finite, >= 0"),
}


def check_hyperparams(hyper: Hyperparams, label=lambda name: f"Hyperparams.{name}") -> None:
    """Raise InputError for the first hyperparameter out of its range,
    naming it as `label(field name)`."""
    for name, (ok, need) in _RANGES.items():
        value = getattr(hyper, name)
        if not ok(value):
            raise InputError(f"{label(name)} must be {need}, got {value}")


def pair_features(text_a: str, text_b: str) -> list[str]:
    """Raw feature strings for a pair, before hashing.

    Side-marked unigrams and bigrams are asymmetric by design; the
    cross block (X:) over shared tokens is symmetric under swapping the
    two sentences.
    """
    toks_a = text_a.split()
    toks_b = text_b.split()
    feats = []
    for side, toks in (("A", toks_a), ("B", toks_b)):
        for tok in toks:
            feats.append(f"{side}:{tok}")
        for t1, t2 in zip(toks, toks[1:]):
            feats.append(f"{side}:{t1}_{t2}")
    for tok in sorted(set(toks_a) & set(toks_b)):
        feats.append(f"X:{tok}")
    return feats


def hash_feature(feature: str, dim: int) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


def featurize_pair(
    text_a: str, text_b: str, dim: int, hashes: dict[str, int] | None = None
) -> dict[int, float]:
    """Sparse hashed feature vector; deterministic for a given pair.

    Cross-features (shared tokens) get CROSS_WEIGHT per occurrence,
    side-marked features get SIDE_WEIGHT. `hashes` memoizes each
    feature's bucket across the calls that share it (same `dim`).
    """
    if hashes is None:
        hashes = {}
    vec: dict[int, float] = {}
    for feat in pair_features(text_a, text_b):
        idx = hashes.get(feat)
        if idx is None:
            idx = hashes[feat] = hash_feature(feat, dim)
        val = CROSS_WEIGHT if feat.startswith("X:") else SIDE_WEIGHT
        vec[idx] = vec.get(idx, 0.0) + val
    return vec


def _dot(w: array, vec: dict[int, float]) -> float:
    """Exactly rounded sum of w[j] * v, so independent of summation order."""
    return math.fsum(map(mul, map(w.__getitem__, vec), vec.values()))


class LinearModel(NamedTuple):
    weights: array  # array('d') of length hyper.dim
    bias: float
    hyper: Hyperparams
    epoch_losses: tuple[float, ...] = ()
    train_accuracy: float = 0.0

    def decision(self, vec: dict[int, float]) -> float:
        return self.bias + _dot(self.weights, vec)

    def predict(self, text_a: str, text_b: str, hashes: dict[str, int] | None = None) -> str:
        z = self.decision(featurize_pair(text_a, text_b, self.hyper.dim, hashes))
        return "same" if z >= 0.0 else "different"


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def train(
    pairs: list[PairText],
    hyper: Hyperparams | None = None,
    hashes: dict[str, int] | None = None,
) -> LinearModel:
    """Seeded SGD on the logistic loss with per-epoch reshuffling. Each
    step touches only the pair's own buckets, L2 included. `hashes` is
    featurize_pair's feature -> bucket memo, which a later `evaluate`
    of the model may share."""
    hyper = hyper or Hyperparams()
    check_hyperparams(hyper)
    if hashes is None:
        hashes = {}
    if len(pairs) < 2:
        raise InputError("need at least 2 training pairs")
    labels = {p.label for p in pairs}
    if labels != {"same", "different"}:
        raise InputError(f"training set must contain both labels, got {sorted(labels)}")

    examples = [(featurize_pair(p.text_a, p.text_b, hyper.dim, hashes),
                 1.0 if p.label == "same" else 0.0) for p in pairs]

    w = array("d", [0.0]) * hyper.dim
    bias = 0.0
    lr, l2 = hyper.learning_rate, hyper.l2
    rng = random.Random(hyper.seed)
    order = list(range(len(examples)))
    losses = []
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            vec, y = examples[i]
            z = bias + _dot(w, vec)
            p = _sigmoid(z)
            p_clip = min(max(p, 1e-12), 1.0 - 1e-12)
            total += -(y * math.log(p_clip) + (1.0 - y) * math.log(1.0 - p_clip))
            g = p - y
            for j, v in vec.items():
                w[j] -= lr * (g * v + l2 * w[j])
            bias -= lr * g
        losses.append(total / len(examples))

    correct = 0
    for vec, y in examples:
        z = bias + _dot(w, vec)
        correct += int((z >= 0.0) == (y == 1.0))
    return LinearModel(w, bias, hyper, tuple(losses), correct / len(examples))


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
    model: LinearModel, pairs: list[PairText], hashes: dict[str, int] | None = None
) -> EvalResult:
    """Overall and per-band accuracy; pairs carry their band tags.
    `hashes` is featurize_pair's memo, as in `train`."""
    if not pairs:
        raise InputError("cannot evaluate on an empty pair list")
    if hashes is None:
        hashes = {}
    correct_total = 0
    results: dict[tuple, tuple[int, int]] = {}
    for p in pairs:
        good = int(model.predict(p.text_a, p.text_b, hashes) == p.label)
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
        fh.write(_HEADER.pack(_MAGIC, _VERSION, model.hyper.dim, model.bias,
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
    return LinearModel(_little_endian(weights), bias, Hyperparams(dim=dim))
