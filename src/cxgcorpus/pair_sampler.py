"""Sample and audit balanced same-construction sentence-pair datasets.

Every construction in the chosen frequency band contributes the fixed
per-split quotas of QUOTAS: 2 positive + 2 negative training pairs and
1 + 1 for dev and test, drawn with its own seeded RNG. A generator per
label yields candidate pairs, and `_take` keeps the first whose key is
new, so pairs are unordered and globally deduplicated and none leaks
across splits. Constructions too small to fill their quotas contribute
what they can and land in the shortfall report.

Negative strictness:
  anchor   -- the partner sentence is merely not an instance of the
              anchor construction (default);
  disjoint -- the two sentences share no construction at all.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .errors import InputError, ParseError
from .workspace import parse_bound, parse_strictness, read_lines, render_bound

if TYPE_CHECKING:
    from .matcher import OccurrenceTable

SPLITS = ("train", "dev", "test")

# (same, different) pairs each construction contributes to each split
QUOTAS = {"train": (2, 2), "dev": (1, 1), "test": (1, 1)}

_MAX_DRAWS = 1000  # rejection-sampling attempts per requested pair
_POS_NEED = sum(same for same, _ in QUOTAS.values())
_NEG_NEED = sum(different for _, different in QUOTAS.values())


class PairExample(NamedTuple):
    sent_a: int
    sent_b: int
    label: str  # same | different
    anchor_cxg: int
    band_lo: int
    band_hi: int | None


class Shortfall(NamedTuple):
    cxg_id: int
    split: str
    requested: int
    delivered: int


class SampledPairs(NamedTuple):
    train: list[PairExample]
    dev: list[PairExample]
    test: list[PairExample]
    shortfalls: list[Shortfall]

    def split(self, name: str) -> list[PairExample]:
        return getattr(self, name)


def _construction_rng(seed: int, cxg_id: int) -> random.Random:
    # String seeding is hash-stable across processes, unlike tuples.
    return random.Random(f"{seed}:{cxg_id}")


def _take(pairs: Iterator[tuple[int, int]], need: int, seen: set) -> list[tuple[int, int]]:
    """The keys (lower id first) of the first `need` pairs not yet in
    `seen`, each added to it; no pair is drawn after the need-th key."""
    out: list[tuple[int, int]] = []
    for a, b in pairs:
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            out.append(key)
            if len(out) == need:
                break
    return out


def _positive_candidates(instances: list[int], rng: random.Random) -> Iterator[tuple[int, int]]:
    n = len(instances)
    if n <= 64:
        pool = list(itertools.combinations(instances, 2))
        rng.shuffle(pool)
        yield from pool
        return
    for _ in range(_MAX_DRAWS):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        yield instances[i], instances[j]


def _negative_candidates(
    instances: list[int], universe: list[int], table: OccurrenceTable, strictness: str,
    need: int, rng: random.Random,
) -> Iterator[tuple[int, int]]:
    instance_set = set(instances)
    n_inst = len(instances)
    n_univ = len(universe)
    if len(instance_set) == n_univ:
        return  # the instances cover the universe: no partner exists
    for _ in range(_MAX_DRAWS * need):
        a = instances[rng.randrange(n_inst)]
        b = universe[rng.randrange(n_univ)]
        if b == a or b in instance_set:
            continue
        if strictness == "disjoint":
            if not set(table.constructions_of(a)).isdisjoint(table.constructions_of(b)):
                continue
        yield a, b


def sample_pairs(
    table: OccurrenceTable,
    band: tuple[int, int | None],
    seed: int,
    strictness: str,
) -> SampledPairs:
    """Draw the per-construction pair quotas for every split.

    Deterministic: each construction uses its own RNG derived from
    (seed, cxg_id); constructions are processed in cxg_id order for the
    global duplicate check. An unknown strictness raises ParseError, and
    a band that selects no construction `select_band`'s EmptyBandError.
    """
    parse_strictness(strictness)
    selected = table.select_band(band)
    universe = table.sentence_ids
    band_lo, band_hi = band

    result = SampledPairs([], [], [], [])
    seen: set[tuple[int, int]] = set()

    for cid in selected:
        rng = _construction_rng(seed, cid)
        instances = table.forward[cid]
        pos_keys = _take(_positive_candidates(instances, rng), _POS_NEED, seen)
        neg_keys = _take(
            _negative_candidates(instances, universe, table, strictness, _NEG_NEED, rng),
            _NEG_NEED, seen,
        )

        delivered = dict.fromkeys(SPLITS, 0)
        for label, side, keys in (("same", 0, pos_keys), ("different", 1, neg_keys)):
            cursor = 0
            for name in SPLITS:
                take = keys[cursor:cursor + QUOTAS[name][side]]
                cursor += len(take)
                result.split(name).extend(
                    PairExample(a, b, label, cid, band_lo, band_hi) for a, b in take
                )
                delivered[name] += len(take)

        for name in SPLITS:
            requested = sum(QUOTAS[name])
            if delivered[name] < requested:
                result.shortfalls.append(Shortfall(cid, name, requested, delivered[name]))
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
        if not 1 <= size <= len(train_pairs):
            raise InputError(
                f"inoculation size {size} is not between 1 and the number of training pairs "
                f"({len(train_pairs)})"
            )
    rng = random.Random(seed)
    pos = [p for p in train_pairs if p.label == "same"]
    neg = [p for p in train_pairs if p.label != "same"]
    rng.shuffle(pos)
    rng.shuffle(neg)
    order = [p for two in itertools.zip_longest(pos, neg) for p in two if p is not None]
    return {size: order[:size] for size in sizes}


def _in_row(row: list[int], sid: int) -> bool:
    """Whether the strictly increasing row lists sid."""
    i = bisect_left(row, sid)
    return i < len(row) and row[i] == sid


class AuditReport(NamedTuple):
    violations: list[tuple[str, PairExample, str]]
    duplicates: list[tuple[int, int]]
    leaks: list[tuple[int, int]]

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
    strictness: str,
) -> AuditReport:
    """Re-derive every label from the occurrence table and flag
    violations, duplicate pairs, and cross-split leakage: a pair key with
    two or more copies is a duplicate, and one in two or more splits is
    also a leak, both listed in key order. Membership is a binary search
    of the anchor's row, sorted as OccurrenceTable keeps it. Only
    `disjoint` strictness reads the table's `reverse`. An unknown
    strictness raises ParseError.
    """
    parse_strictness(strictness)
    report = AuditReport([], [], [])
    copies: dict[tuple[int, int], list[str]] = {}  # pair key -> the split of each of its copies

    for split_name, pairs in pairs_by_split.items():
        for pair in pairs:
            key = (pair.sent_a, pair.sent_b) if pair.sent_a < pair.sent_b else (pair.sent_b, pair.sent_a)
            copies.setdefault(key, []).append(split_name)

            if pair.sent_a == pair.sent_b:
                report.violations.append((split_name, pair, "sentence paired with itself"))
                continue
            row = table.forward.get(pair.anchor_cxg, [])  # the anchor's instances
            in_a, in_b = _in_row(row, pair.sent_a), _in_row(row, pair.sent_b)
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

    for key, splits in sorted(copies.items()):
        if len(splits) > 1:
            report.duplicates.append(key)
            if len(set(splits)) > 1:
                report.leaks.append(key)
    return report


class PairText(NamedTuple):
    """A pair as written to disk: sentence texts instead of ids."""

    label: str
    text_a: str
    text_b: str
    anchor_cxg: int
    band_lo: int
    band_hi: int | None


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
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ParseError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        label, text_a, text_b, anchor, lo, hi = parts
        if label not in ("same", "different"):
            raise ParseError(f"{path}:{lineno}: label must be same or different, got {label!r}")
        try:
            out.append(PairText(label, text_a, text_b, int(anchor), int(lo), parse_bound(hi)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad numeric field")
    return out


def write_shortfalls(shortfalls: list[Shortfall], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in shortfalls:
            fh.write(f"{s.cxg_id}\t{s.split}\t{s.requested}\t{s.delivered}\n")
