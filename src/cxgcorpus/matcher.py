"""Match the construction inventory against annotated sentences.

The engine is an inverted index keyed by each construction's globally
rarest slot facet: a sentence only pays for the constructions whose
rarest facet it actually contains, so lookup cost for absent facets is
independent of inventory size. Each candidate is verified on per-facet
position bitmasks (bit i set when token i carries the facet), with the
shift-and test of Baeza-Yates & Gonnet (CACM 1992): one backward pass
from the last slot, shifting across up to max_gap skipped tokens
between consecutive slots (never before the first or after the last),
gives every start of an alignment, and a construction is instantiated
when that set is not empty. The pass stops at the first slot facet the
sentence lacks or once no position is left; match_sentence sorts the
cxg_ids that pass once, and match_corpus writes the occurrence table
from them.

Matching works on a sentence's three facet columns (forms, tags, sem
ids), which every ingest.AnnotatedSentence carries, whether it was
annotated, read from a TSV or read from the sentence store: each column
is translated to facet ids through the inventory's map of its kind (for
sem ids, an int-keyed copy of the SEM map), and a slot tests one column
at a position.

brute_force_match is the deliberately naive reference implementation
used as the correctness oracle; it shares no matching code with the
indexed path.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, islice, repeat
from operator import lt
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import EmptyBandError, FacetMissingError, InputError, ParseError
from .workspace import bands_from_edges, read_lines, render_bound

if TYPE_CHECKING:
    from .ingest import AnnotatedSentence
    from .inventory import Construction, Inventory


class MatchIndex:
    """Immutable rarest-slot inverted index over an inventory.

    It takes the inventory's compiled form as it is, so the inventory
    must not grow after: its `facet_maps`, per kind the map from a value
    to its facet id, of which `_lex` and `_pos` are the LEX and POS maps
    themselves, and `_checks`, its `slot_ids` (cxg_id -> its slots'
    facet ids in slot order). Only `_sem`, keyed by int, is derived.
    Each construction is filed under the id of its rarest facet (rarity
    measured by inventory-wide facet counts, ties broken by the leftmost
    slot), and matching works on ids only: a construction is verified
    against a sentence only when the sentence carries its anchor facet.
    `entries` is a view derived from the index.
    """

    def __init__(self, inventory: Inventory):
        self._maps = inventory.facet_maps
        self._checks = inventory.slot_ids
        counts = Counter(chain.from_iterable(self._checks.values()))

        # Per kind, the map from a token's value to its facet id. A sem
        # id matches a SEM slot when its decimal form is the slot's
        # value, so a value that is no int's decimal form gets no key.
        self._lex = self._maps["LEX"]
        self._pos = self._maps["POS"]
        self._sem = {
            int(v): f for v, f in self._maps["SEM"].items()
            if v.removeprefix("-").isdecimal() and str(int(v)) == v
        }

        # anchor facet id -> the cxg_ids filed under it, in inventory order
        self._anchor: dict[int, list[int]] = {}
        for cid, fids in self._checks.items():
            self._anchor.setdefault(min(fids, key=counts.__getitem__), []).append(cid)

        # a token's value -> its facet id, or None where no slot tests it
        self._lex_id, self._pos_id, self._sem_id = self._lex.get, self._pos.get, self._sem.get
        self.uses_sem = bool(self._maps["SEM"])
        self.cxg_ids = sorted(self._checks)
        self.size = len(self.cxg_ids)

    @property
    def entries(self) -> dict[tuple[str, str], list[tuple[int, int]]]:
        """Anchor facet (kind, value) -> the (cxg_id, slot_offset) pairs
        filed under it, in inventory order; every construction appears
        exactly once. A view derived from the index, built on each read."""
        from .inventory import facets_of

        facets = facets_of(self._maps)
        return {
            facets[f]: [(cid, self._checks[cid].index(f)) for cid in cids]
            for f, cids in self._anchor.items()
        }

    def token_facet_ids(self, sentence: AnnotatedSentence) -> list[frozenset[int]]:
        """Per-token sets of inventory-relevant facet ids."""
        columns = zip(map(self._lex_id, sentence.forms), map(self._pos_id, sentence.tags),
                      map(self._sem_id, sentence.sems))
        return [frozenset(f for f in fids if f is not None) for fids in columns]


@lru_cache(maxsize=256)
def _smear_steps(max_gap: int, n: int) -> tuple[int, ...]:
    """Shifts that spread a position bitmask over a gap of up to max_gap
    tokens: after a shift by 1, OR-ing in the mask shifted by each step
    covers shifts 1 .. max_gap + 1. The steps double and stop at n, the
    sentence length, so there are at most log2(n) + 1 of them. Memoised."""
    if max_gap < 0:
        raise ValueError(f"max_gap must be >= 0, got {max_gap}")
    width = min(max_gap + 1, n)
    steps = []
    covered = 1
    while covered < width:
        step = min(covered, width - covered)
        steps.append(step)
        covered += step
    return tuple(steps)


def build_index(inventory: Inventory) -> MatchIndex:
    return MatchIndex(inventory)


def match_sentence(index: MatchIndex, sentence: AnnotatedSentence, max_gap: int) -> list[int]:
    """The cxg_ids of every construction the sentence instantiates, in
    id order. Bit i of a facet's mask is set when token i carries the
    facet; bit i of `reach`, when slots[j:] align from position i. A
    candidate's pass stops at a slot facet the sentence lacks or once
    `reach` is 0; no candidate repeats, since each has one anchor."""
    steps = _smear_steps(max_gap, len(sentence.forms))
    masks: dict[int, int] = {}
    get = masks.get
    bit = 1
    for lex, pos, sem in zip(map(index._lex_id, sentence.forms), map(index._pos_id, sentence.tags),
                             map(index._sem_id, sentence.sems)):
        if lex is not None:
            masks[lex] = get(lex, 0) | bit
        if pos is not None:
            masks[pos] = get(pos, 0) | bit
        if sem is not None:
            masks[sem] = get(sem, 0) | bit
        bit <<= 1
    found = []
    checks = index._checks
    for cid in chain.from_iterable(map(index._anchor.get, masks, repeat(()))):
        slots = checks[cid]
        reach = get(slots[-1], 0)
        for fid in slots[-2::-1]:
            mask = get(fid)
            if mask is None or not reach:
                break
            reach >>= 1
            for step in steps:
                reach |= reach >> step
            reach &= mask
        else:
            if reach:
                found.append(cid)
    found.sort()
    return found


def brute_force_match(
    inventory: Inventory, sentence: AnnotatedSentence, max_gap: int
) -> list[Construction]:
    """Reference matcher: direct recursion over slots and gaps at every
    start position, for every construction. The constructions the
    sentence instantiates, in cxg_id order. Oracle for match_sentence.
    """
    tokens = sentence.tokens
    n = len(tokens)

    def satisfies(slot, tok) -> bool:
        if slot.kind == "LEX":
            return tok.form == slot.value
        if slot.kind == "POS":
            return tok.pos == slot.value
        return tok.sem is not None and str(tok.sem) == slot.value

    def aligns(slots, i: int, pos: int) -> bool:
        if not satisfies(slots[i], tokens[pos]):
            return False
        if i == len(slots) - 1:
            return True
        return any(aligns(slots, i + 1, q) for q in range(pos + 1, min(pos + 2 + max_gap, n)))

    return [
        con for con in sorted(inventory, key=lambda c: c.cxg_id)
        if any(aligns(con.slots, 0, start) for start in range(n))
    ]


class OccurrenceTable:
    """Bidirectional construction <-> sentence membership mapping.

    forward maps cxg_id to the sorted sentence ids instantiating it
    (zero-frequency inventory entries keep an empty list); reverse is
    the exact transpose, built on first read (of the CLI's stages only
    `pairs` under `disjoint` strictness reads it); discarded lists
    sentences matching nothing.
    """

    def __init__(self, forward: dict[int, list[int]], discarded: list[int] | None = None):
        self.forward = forward
        self.discarded = list(discarded or [])

    @cached_property
    def reverse(self) -> dict[int, list[int]]:
        """sentence id -> its cxg_ids in id order, sentence ids ascending."""
        reverse: dict[int, list[int]] = {}
        for cid in sorted(self.forward):
            for sid in self.forward[cid]:
                reverse.setdefault(sid, []).append(cid)
        return dict(sorted(reverse.items()))

    @property
    def sentence_ids(self) -> list[int]:
        return sorted(set().union(*self.forward.values()))

    def frequencies(self) -> dict[int, int]:
        return {cid: len(sids) for cid, sids in self.forward.items()}

    def constructions_of(self, sentence_id: int) -> list[int]:
        return self.reverse.get(sentence_id, [])

    def select_band(self, band: tuple[int, int | None]) -> list[int]:
        """cxg_ids with lo <= freq <= hi, ascending; frequency below 2 never
        qualifies, and a band that selects none raises EmptyBandError."""
        lo, hi = max(band[0], 2), band[1]
        out = [cid for cid, sids in sorted(self.forward.items())
               if lo <= len(sids) and (hi is None or len(sids) <= hi)]
        if not out:
            raise EmptyBandError(f"band {band} selects no constructions")
        return out

    def write(self, table_path: str | Path, discards_path: str | Path) -> None:
        with open(table_path, "w", encoding="utf-8") as fh:
            for cid in sorted(self.forward):
                fh.write(f"{cid}\t{' '.join(map(str, self.forward[cid]))}\n")
        with open(discards_path, "w", encoding="utf-8") as fh:
            for sid in self.discarded:
                fh.write(f"{sid}\n")

    @classmethod
    def read(cls, table_path: str | Path) -> "OccurrenceTable":
        """The table `write` wrote, without its discards, which no stage
        reads; a row whose sentence ids are not strictly increasing is
        refused, since `write` writes none."""
        forward: dict[int, list[int]] = {}
        for lineno, line in read_lines(table_path):
            if not line:
                continue
            cid_field, sep, rest = line.partition("\t")
            if not sep:
                raise ParseError(f"{table_path}:{lineno}: expected cxg_id<TAB>ids")
            try:
                cid = int(cid_field)
                sids = [int(s) for s in rest.split(" ")] if rest else []
            except ValueError:
                raise ParseError(f"{table_path}:{lineno}: non-integer id")
            if cid in forward:
                raise ParseError(f"{table_path}:{lineno}: duplicate cxg_id {cid}")
            if len(sids) > 1 and not all(map(lt, sids, islice(sids, 1, None))):
                raise ParseError(
                    f"{table_path}:{lineno}: sentence ids are not strictly increasing")
            forward[cid] = sids
        return cls(forward)


def match_corpus(
    index: MatchIndex, corpus: Iterable[AnnotatedSentence], max_gap: int
) -> OccurrenceTable:
    """Match a whole corpus, producing the occurrence table.

    One loop over the sentences, in corpus order, in this process; an id
    not above the one before it raises InputError, as no table row could
    list it. A sentence without sem ids matches no SEM slot; only a
    corpus in which no sentence carries one is refused, and only when
    the inventory has SEM slots, since every such construction would
    then be empty.
    """
    forward: dict[int, list[int]] = {cid: [] for cid in index.cxg_ids}
    discarded: list[int] = []
    sem_seen = not index.uses_sem  # counted per sentence only until one carries a sem id
    last = float("-inf")
    for sentence in corpus:
        if not sem_seen:
            sem_seen = sentence.sems.count(None) != len(sentence.sems)
        sid = sentence.sentence_id
        if sid <= last:
            raise InputError(f"sentence ids must be strictly increasing; saw {sid} after {last}")
        last = sid
        cids = match_sentence(index, sentence, max_gap)
        if cids:
            for cid in cids:
                forward[cid].append(sid)
        else:
            discarded.append(sid)
    if not sem_seen:
        raise FacetMissingError(
            "the corpus carries no SEM annotations but the inventory uses SEM slots")
    return OccurrenceTable(forward, discarded)


class BandCount(NamedTuple):
    lo: int
    hi: int | None  # None = unbounded
    count: int


class OccurrenceStats(NamedTuple):
    bands: list[BandCount]
    below_min: int  # constructions with freq below the first edge


def occurrence_stats(table: OccurrenceTable, band_edges: Sequence[int]) -> OccurrenceStats:
    """Per-band construction counts, plus the count below the first band."""
    freqs = list(table.frequencies().values())
    counts = [BandCount(lo, hi, sum(lo <= f and (hi is None or f <= hi) for f in freqs))
              for lo, hi in bands_from_edges(band_edges)]
    return OccurrenceStats(counts, sum(f < band_edges[0] for f in freqs))


def write_stats(stats: OccurrenceStats, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for band in stats.bands:
            fh.write(f"{band.lo}\t{render_bound(band.hi)}\t{band.count}\n")
