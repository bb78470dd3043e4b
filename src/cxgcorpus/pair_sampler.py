"""Sample and audit balanced same-construction sentence-pair datasets.

Every construction in the chosen frequency band contributes fixed
per-split quotas (by default 2 positive + 2 negative training pairs and
1 + 1 for dev and test). Pairs are unordered and globally deduplicated,
so no pair can leak across splits. Constructions too small to fill
their quotas contribute what they can and land in the shortfall report.

Negative strictness:
  anchor   -- the partner sentence is merely not an instance of the
              anchor construction (default);
  disjoint -- the two sentences share no construction at all.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import EmptyBandError, InputError, ParseError
from .corpus_builder import select_band
from .matcher import OccurrenceTable
from .workspace import STRICTNESS, parse_bound, render_bound

SPLITS = ("train", "dev", "test")

_MAX_DRAWS = 1000  # rejection-sampling attempts per requested pair


@dataclass(frozen=True)
class PairExample:
    sent_a: int
    sent_b: int
    label: str  # same | different
    anchor_cxg: int
    band_lo: int
    band_hi: int | None
    split: str

    @property
    def key(self) -> tuple[int, int]:
        return (self.sent_a, self.sent_b)


@dataclass
class SamplerConfig:
    train_pos: int = 2
    train_neg: int = 2
    dev_pos: int = 1
    dev_neg: int = 1
    test_pos: int = 1
    test_neg: int = 1
    seed: int = 0
    strictness: str = "anchor"
    inoculation_sizes: tuple[int, ...] = (100, 500, 1000, 5000)

    def __post_init__(self):
        quotas = (self.train_pos, self.train_neg, self.dev_pos,
                  self.dev_neg, self.test_pos, self.test_neg)
        if any(q < 1 for q in quotas):
            raise ParseError("all pair quotas must be >= 1")
        if self.strictness not in STRICTNESS:
            raise ParseError(f"unknown strictness {self.strictness!r}")
        if list(self.inoculation_sizes) != sorted(self.inoculation_sizes):
            raise ParseError("inoculation sizes must be ascending")

    def pos_quotas(self) -> list[tuple[str, int]]:
        return [("train", self.train_pos), ("dev", self.dev_pos), ("test", self.test_pos)]

    def neg_quotas(self) -> list[tuple[str, int]]:
        return [("train", self.train_neg), ("dev", self.dev_neg), ("test", self.test_neg)]


@dataclass(frozen=True)
class Shortfall:
    cxg_id: int
    split: str
    requested: int
    delivered: int


@dataclass
class SampledPairs:
    train: list[PairExample] = field(default_factory=list)
    dev: list[PairExample] = field(default_factory=list)
    test: list[PairExample] = field(default_factory=list)
    shortfalls: list[Shortfall] = field(default_factory=list)

    def split(self, name: str) -> list[PairExample]:
        return getattr(self, name)

    def all_pairs(self) -> list[PairExample]:
        return self.train + self.dev + self.test


def _construction_rng(seed: int, cxg_id: int) -> random.Random:
    # String seeding is hash-stable across processes, unlike tuples.
    return random.Random(f"{seed}:{cxg_id}")


def _draw_positive_keys(
    instances: list[int], need: int, rng: random.Random, seen: set[tuple[int, int]]
) -> list[tuple[int, int]]:
    n = len(instances)
    out: list[tuple[int, int]] = []
    if n <= 64:
        pool = list(itertools.combinations(instances, 2))
        rng.shuffle(pool)
        for a, b in pool:
            key = (a, b) if a < b else (b, a)
            if key not in seen:
                seen.add(key)
                out.append(key)
                if len(out) == need:
                    break
        return out
    attempts = 0
    while len(out) < need and attempts < _MAX_DRAWS:
        attempts += 1
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        a, b = instances[i], instances[j]
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _draw_negative_keys(
    instances: list[int],
    instance_set: set[int],
    universe: list[int],
    table: OccurrenceTable,
    strictness: str,
    need: int,
    rng: random.Random,
    seen: set[tuple[int, int]],
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    n_inst = len(instances)
    n_univ = len(universe)
    attempts = 0
    budget = _MAX_DRAWS * need
    while len(out) < need and attempts < budget:
        attempts += 1
        a = instances[rng.randrange(n_inst)]
        b = universe[rng.randrange(n_univ)]
        if b == a or b in instance_set:
            continue
        if strictness == "disjoint":
            if not set(table.constructions_of(a)).isdisjoint(table.constructions_of(b)):
                continue
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def sample_pairs(
    table: OccurrenceTable,
    band: tuple[int, int | None],
    config: SamplerConfig,
) -> SampledPairs:
    """Draw the per-construction pair quotas for every split.

    Deterministic: each construction uses its own RNG derived from
    (seed, cxg_id); constructions are processed in cxg_id order for the
    global duplicate check.
    """
    selected = select_band(table, band)
    if not selected:
        raise EmptyBandError(f"band {band} selects no constructions")
    universe = table.sentence_ids
    band_lo, band_hi = band

    result = SampledPairs()
    seen: set[tuple[int, int]] = set()

    for cid in selected:
        rng = _construction_rng(config.seed, cid)
        instances = table.instances(cid)
        instance_set = set(instances)

        pos_need = sum(q for _, q in config.pos_quotas())
        pos_keys = _draw_positive_keys(instances, pos_need, rng, seen)
        neg_need = sum(q for _, q in config.neg_quotas())
        neg_keys = _draw_negative_keys(
            instances, instance_set, universe, table,
            config.strictness, neg_need, rng, seen,
        )

        delivered = {name: 0 for name in SPLITS}
        cursor = 0
        for name, quota in config.pos_quotas():
            for _ in range(quota):
                if cursor >= len(pos_keys):
                    break
                a, b = pos_keys[cursor]
                cursor += 1
                result.split(name).append(
                    PairExample(a, b, "same", cid, band_lo, band_hi, name)
                )
                delivered[name] += 1
        cursor = 0
        for name, quota in config.neg_quotas():
            for _ in range(quota):
                if cursor >= len(neg_keys):
                    break
                a, b = neg_keys[cursor]
                cursor += 1
                result.split(name).append(
                    PairExample(a, b, "different", cid, band_lo, band_hi, name)
                )
                delivered[name] += 1

        requested = {
            "train": config.train_pos + config.train_neg,
            "dev": config.dev_pos + config.dev_neg,
            "test": config.test_pos + config.test_neg,
        }
        for name in SPLITS:
            if delivered[name] < requested[name]:
                result.shortfalls.append(
                    Shortfall(cid, name, requested[name], delivered[name])
                )
    return result


def make_inoculation_subsets(
    train_pairs: list[PairExample] | list["PairText"],
    sizes: Iterable[int],
    seed: int,
) -> dict[int, list]:
    """Nested label-balanced subsets: one seeded shuffled order per
    label, interleaved, and each subset is a prefix of that order.
    """
    sizes = list(sizes)
    for size in sizes:
        if size > len(train_pairs):
            raise InputError(
                f"inoculation size {size} exceeds available training pairs ({len(train_pairs)})"
            )
    rng = random.Random(seed)
    pos = [p for p in train_pairs if p.label == "same"]
    neg = [p for p in train_pairs if p.label != "same"]
    rng.shuffle(pos)
    rng.shuffle(neg)
    order = []
    for a, b in itertools.zip_longest(pos, neg):
        if a is not None:
            order.append(a)
        if b is not None:
            order.append(b)
    return {size: order[:size] for size in sizes}


@dataclass
class AuditReport:
    violations: list[tuple[str, PairExample, str]] = field(default_factory=list)
    duplicates: list[tuple[int, int]] = field(default_factory=list)
    leaks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.violations or self.duplicates or self.leaks)

    def summary(self) -> str:
        return (
            f"{len(self.violations)} label violation(s), "
            f"{len(self.duplicates)} duplicate pair(s), "
            f"{len(self.leaks)} cross-split leak(s)"
        )


def audit_pairs(
    pairs_by_split: Mapping[str, list[PairExample]],
    table: OccurrenceTable,
    strictness: str = "anchor",
) -> AuditReport:
    """Re-derive every label from the occurrence table and flag
    violations, duplicate pairs, and cross-split leakage.
    """
    report = AuditReport()
    seen_in: dict[tuple[int, int], set[str]] = {}
    counts: dict[tuple[int, int], int] = {}

    for split_name, pairs in pairs_by_split.items():
        for pair in pairs:
            key = (pair.sent_a, pair.sent_b) if pair.sent_a < pair.sent_b else (pair.sent_b, pair.sent_a)
            counts[key] = counts.get(key, 0) + 1
            seen_in.setdefault(key, set()).add(split_name)

            if pair.sent_a == pair.sent_b:
                report.violations.append((split_name, pair, "sentence paired with itself"))
                continue
            in_a = pair.anchor_cxg in table.constructions_of(pair.sent_a)
            in_b = pair.anchor_cxg in table.constructions_of(pair.sent_b)
            if pair.label == "same":
                if not (in_a and in_b):
                    report.violations.append(
                        (split_name, pair, "label 'same' but both sentences are not instances of the anchor")
                    )
            elif pair.label == "different":
                if in_a == in_b:
                    report.violations.append(
                        (split_name, pair, "label 'different' but anchor membership is not one-sided")
                    )
                elif strictness == "disjoint" and not set(
                    table.constructions_of(pair.sent_a)
                ).isdisjoint(table.constructions_of(pair.sent_b)):
                    report.violations.append(
                        (split_name, pair, "strictness 'disjoint' but the sentences share a construction")
                    )
            else:
                report.violations.append((split_name, pair, f"unknown label {pair.label!r}"))

    for key, n in sorted(counts.items()):
        if n > 1:
            report.duplicates.append(key)
    for key, splits in sorted(seen_in.items()):
        if len(splits) > 1:
            report.leaks.append(key)
    return report


@dataclass(frozen=True)
class PairText:
    """A pair as written to disk: sentence texts instead of ids."""

    label: str
    text_a: str
    text_b: str
    anchor_cxg: int
    band_lo: int
    band_hi: int | None

    @property
    def band(self) -> tuple[int, int | None]:
        return (self.band_lo, self.band_hi)


def write_pairs(
    pairs: list[PairExample],
    sentence_texts: Mapping[int, str],
    path: str | Path,
) -> None:
    """TSV rows `label text_a text_b anchor_cxg band_lo band_hi`, in
    (anchor_cxg, sent_a, sent_b) order.
    """
    ordered = sorted(pairs, key=lambda p: (p.anchor_cxg, p.sent_a, p.sent_b))
    with open(path, "w", encoding="utf-8") as fh:
        for pair in ordered:
            try:
                text_a = sentence_texts[pair.sent_a]
                text_b = sentence_texts[pair.sent_b]
            except KeyError as exc:
                raise InputError(f"{path}: unknown sentence id {exc.args[0]}")
            fh.write(
                f"{pair.label}\t{text_a}\t{text_b}\t{pair.anchor_cxg}"
                f"\t{pair.band_lo}\t{render_bound(pair.band_hi)}\n"
            )


def read_pairs(path: str | Path) -> list[PairText]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            label, text_a, text_b, anchor, lo, hi = parts
            try:
                out.append(
                    PairText(label, text_a, text_b, int(anchor), int(lo), parse_bound(hi))
                )
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad numeric field")
    return out


def write_shortfalls(shortfalls: list[Shortfall], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in shortfalls:
            fh.write(f"{s.cxg_id}\t{s.split}\t{s.requested}\t{s.delivered}\n")
