"""Hashed-feature logistic-regression probe over sentence-pair files.

This is the desk-scale control classifier: it proves the generated pair
task is learnable, supports a label-shuffle sanity control, and reports
accuracy per frequency band. Features are hashed unigrams/bigrams of
each side (with A:/B: markers) plus cross-features over shared tokens,
with the fixed block weights CROSS_WEIGHT and SIDE_WEIGHT, trained with
seeded SGD on the logistic loss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, ParseError
from .pair_sampler import PairText
from .workspace import render_bound

if TYPE_CHECKING:
    import numpy as np

_MAGIC = b"CXPM"
_VERSION = 1

# Block weights: the shared-token block carries the pair-similarity
# signal, so it outweighs the per-side blocks (namespace weighting).
CROSS_WEIGHT = 2.0
SIDE_WEIGHT = 0.5


@dataclass
class Hyperparams:
    dim: int = 2 ** 20
    learning_rate: float = 0.1
    epochs: int = 10
    l2: float = 1e-6
    seed: int = 0


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


def featurize_pair(text_a: str, text_b: str, dim: int = 2 ** 20) -> dict[int, float]:
    """Sparse hashed feature vector; deterministic for a given pair.

    Cross-features (shared tokens) get CROSS_WEIGHT per occurrence,
    side-marked features get SIDE_WEIGHT.
    """
    vec: dict[int, float] = {}
    for feat in pair_features(text_a, text_b):
        idx = hash_feature(feat, dim)
        val = CROSS_WEIGHT if feat.startswith("X:") else SIDE_WEIGHT
        vec[idx] = vec.get(idx, 0.0) + val
    return vec


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    hyper: Hyperparams
    epoch_losses: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0

    def decision(self, vec: dict[int, float]) -> float:
        z = self.bias
        w = self.weights
        for idx, val in vec.items():
            z += w[idx] * val
        return z

    def featurize(self, text_a: str, text_b: str) -> dict[int, float]:
        return featurize_pair(text_a, text_b, self.hyper.dim)

    def predict(self, text_a: str, text_b: str) -> str:
        z = self.decision(self.featurize(text_a, text_b))
        return "same" if z >= 0.0 else "different"


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def train(pairs: list[PairText], hyper: Hyperparams | None = None) -> LinearModel:
    """Seeded SGD on the logistic loss with per-epoch reshuffling."""
    import numpy as np  # imported here so that the other stages do not pay for it

    hyper = hyper or Hyperparams()
    if len(pairs) < 2:
        raise InputError("need at least 2 training pairs")
    labels = {p.label for p in pairs}
    if labels != {"same", "different"}:
        raise InputError(f"training set must contain both labels, got {sorted(labels)}")

    examples = []
    for p in pairs:
        vec = featurize_pair(p.text_a, p.text_b, hyper.dim)
        idx = np.fromiter(vec.keys(), dtype=np.int64, count=len(vec))
        val = np.fromiter(vec.values(), dtype=np.float64, count=len(vec))
        examples.append((idx, val, 1.0 if p.label == "same" else 0.0))

    w = np.zeros(hyper.dim, dtype=np.float64)
    bias = 0.0
    lr = hyper.learning_rate
    l2 = hyper.l2
    rng = random.Random(hyper.seed)
    order = list(range(len(examples)))
    losses = []
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            idx, val, y = examples[i]
            z = bias + float(w[idx] @ val)
            p = _sigmoid(z)
            p_clip = min(max(p, 1e-12), 1.0 - 1e-12)
            total += -(y * math.log(p_clip) + (1.0 - y) * math.log(1.0 - p_clip))
            g = p - y
            w[idx] -= lr * (g * val + l2 * w[idx])
            bias -= lr * g
        losses.append(total / len(examples))

    correct = 0
    for idx, val, y in examples:
        z = bias + float(w[idx] @ val)
        correct += int((z >= 0.0) == (y == 1.0))
    model = LinearModel(w, bias, hyper, losses, correct / len(examples))
    return model


@dataclass
class BandAccuracy:
    band_lo: int
    band_hi: int | None
    n_pairs: int
    accuracy: float


@dataclass
class EvalResult:
    accuracy: float
    n_pairs: int
    per_band: list[BandAccuracy]


def evaluate(model: LinearModel, pairs: list[PairText]) -> EvalResult:
    """Overall and per-band accuracy; pairs carry their band tags."""
    if not pairs:
        raise InputError("cannot evaluate on an empty pair list")
    correct_total = 0
    results: dict[tuple, tuple[int, int]] = {}
    for p in pairs:
        pred = model.predict(p.text_a, p.text_b)
        good = int(pred == p.label)
        correct_total += good
        band = (p.band_lo, p.band_hi)
        n, c = results.get(band, (0, 0))
        results[band] = (n + 1, c + good)

    def band_key(band):
        lo, hi = band
        return (lo, math.inf if hi is None else hi)

    per_band = [
        BandAccuracy(lo, hi, n, c / n)
        for (lo, hi), (n, c) in sorted(results.items(), key=lambda kv: band_key(kv[0]))
    ]
    return EvalResult(correct_total / len(pairs), len(pairs), per_band)


def shuffle_control(pairs: list[PairText], seed: int) -> list[PairText]:
    """Uniformly permute the labels, leaving pair contents untouched."""
    labels = [p.label for p in pairs]
    random.Random(seed).shuffle(labels)
    return [dataclasses.replace(p, label=lab) for p, lab in zip(pairs, labels)]


def write_metrics(result: EvalResult, path: str | Path) -> None:
    """TSV `band_lo band_hi n_pairs accuracy` plus a final ALL row."""
    with open(path, "w", encoding="utf-8") as fh:
        for band in result.per_band:
            fh.write(
                f"{band.band_lo}\t{render_bound(band.band_hi)}\t{band.n_pairs}"
                f"\t{band.accuracy:.6f}\n"
            )
        fh.write(f"ALL\tALL\t{result.n_pairs}\t{result.accuracy:.6f}\n")


def save_model(model: LinearModel, path: str | Path) -> None:
    """Flat binary: magic, version, dim, bias and the block weights in a
    fixed-size header, then the weight vector."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQddd", _VERSION, model.hyper.dim, model.bias,
                             CROSS_WEIGHT, SIDE_WEIGHT))
        fh.write(model.weights.astype("<f8").tobytes())


def load_model(path: str | Path) -> LinearModel:
    import numpy as np

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ParseError(f"{path}: not a model file (bad magic {magic!r})")
        header = struct.calcsize("<IQddd")
        version, dim, bias, cross_w, side_w = struct.unpack("<IQddd", fh.read(header))
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported model version {version}")
        if (cross_w, side_w) != (CROSS_WEIGHT, SIDE_WEIGHT):
            raise ParseError(
                f"{path}: block weights {cross_w}/{side_w} differ from the fixed "
                f"{CROSS_WEIGHT}/{SIDE_WEIGHT}"
            )
        weights = np.frombuffer(fh.read(), dtype="<f8").copy()
    if weights.shape[0] != dim:
        raise ParseError(f"{path}: expected {dim} weights, found {weights.shape[0]}")
    return LinearModel(weights, bias, Hyperparams(dim=dim))
