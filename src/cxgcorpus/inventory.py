"""The construction inventory: slot-constraint sequences, their file
format, and a minimal frequency/association induction procedure.

A construction is an ordered sequence of at least two slot constraints,
each requiring an exact surface form (LEX), a POS tag (POS), or a
semantic cluster id (SEM). Inventories are normally loaded from a file;
induction exists so the pipeline is usable end to end without one.

An `Inventory` is held compiled, as the matcher uses it: one map per
kind from a slot's value to its facet id, and each construction's tuple
of facet ids. `load_inventory` fills the maps from the slot texts
without building a SlotConstraint, and the matcher looks a token's form
and tag up in the LEX and POS maps themselves, so no second table of
facets is kept; the slots and constructions are rebuilt on request.

The records here, like every record of the package, are typing
NamedTuples, so a copy with one field changed is `x._replace(...)`.
Nothing here logs: `match -v` reports the construction count itself, and
an induction that keeps no candidate says so through `warnings.warn`.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import ParseError
from .ingest import UNIVERSAL_TAGS, AnnotatedSentence
from .workspace import read_lines


class SlotConstraint(NamedTuple):
    """A slot: equal to, and hashed like, its `(kind, value)` facet."""

    kind: str  # LEX | POS | SEM
    value: str

    def render(self) -> str:
        return f"SEM{self.value}" if self.kind == "SEM" else self.value

    def spec(self) -> str:
        return f"{self.kind.lower()}:{self.value}"


class Construction(NamedTuple):
    cxg_id: int
    slots: tuple[SlotConstraint, ...]

    @property
    def name(self) -> str:
        return render_name(self)

    def spec_line(self) -> str:
        return f"{self.cxg_id}\t" + " ".join(s.spec() for s in self.slots)


def render_name(construction: Construction) -> str:
    """Human-readable rendering: slots joined with ' + '."""
    return " + ".join(s.render() for s in construction.slots)


KINDS = ("LEX", "POS", "SEM")


class Inventory:
    """Constructions compiled for the matcher: `facet_maps` holds, per
    kind, each value a slot of that kind tests, mapped to its facet id
    (ids count across the kinds, in order of first use), and `slot_ids`
    maps each cxg_id to its slots' facet ids, in slot order. `facets`
    (the facet of each id) and `constructions` (and iteration) are built
    on each read."""

    def __init__(self, constructions: Iterable[Construction] = ()):
        self.facet_maps: dict[str, dict[str, int]] = {kind: {} for kind in KINDS}
        self._n_facets = 0
        self.slot_ids: dict[int, tuple[int, ...]] = {}
        self._owners: dict[tuple[int, ...], int] = {}  # slot ids -> cxg_id
        for con in constructions:
            self.add(con.cxg_id, tuple(map(self.facet_id, con.slots)))

    @property
    def facets(self) -> list[SlotConstraint]:
        return facets_of(self.facet_maps)

    def facet_id(self, slot: SlotConstraint) -> int:
        return self._facet_id(*slot)

    def _facet_id(self, kind: str, value: str) -> int:
        """The id of the facet (kind, value), numbered next if new; a
        kind other than LEX, POS or SEM raises ParseError."""
        ids = self.facet_maps.get(kind)
        if ids is None:
            raise ParseError(f"slot kind {kind!r} is none of {', '.join(KINDS)}")
        fid = ids.get(value)
        if fid is None:
            fid = ids[value] = self._n_facets
            self._n_facets += 1
        return fid

    def add(self, cxg_id: int, fids: tuple[int, ...]) -> None:
        """Add a construction, refusing a duplicate id or slot sequence."""
        if cxg_id in self.slot_ids:
            raise ParseError(f"duplicate cxg_id {cxg_id}")
        dup = self._owners.setdefault(fids, cxg_id)
        if dup != cxg_id:
            raise ParseError(f"constructions {dup} and {cxg_id} have identical slot sequences")
        self.slot_ids[cxg_id] = fids

    @property
    def constructions(self) -> list[Construction]:
        slot = self.facets.__getitem__
        return [Construction(cid, tuple(map(slot, fids))) for cid, fids in self.slot_ids.items()]

    def __len__(self) -> int:
        return len(self.slot_ids)

    def __iter__(self):
        return iter(self.constructions)

    def __eq__(self, other) -> bool:
        return isinstance(other, Inventory) and self.constructions == other.constructions


def facets_of(facet_maps: dict[str, dict[str, int]]) -> list[SlotConstraint]:
    """The facet of each id of an inventory's `facet_maps`, in id order."""
    facets = [None] * sum(map(len, facet_maps.values()))
    for kind, ids in facet_maps.items():
        for value, fid in ids.items():
            facets[fid] = SlotConstraint(kind, value)
    return facets


def _parse_slot(piece: str, col: int) -> tuple[str, str]:
    """The kind and value of a slot text."""
    kind, sep, value = piece.partition(":")
    if not sep or not value:
        raise ParseError(f"column {col}: slot {piece!r} is not kind:value")
    if kind == "lex":
        if "\t" in value:  # as in a file whose lines end with a bare '\r'
            raise ParseError(f"column {col}: lex form {value!r} holds a tab, which no token form can")
        return "LEX", value
    if kind == "pos":
        if value not in UNIVERSAL_TAGS:
            raise ParseError(f"column {col}: unknown POS tag {value!r}")
        return "POS", value
    if kind == "sem":
        if not value.isdecimal():
            raise ParseError(f"column {col}: sem id {value!r} is not an integer")
        return "SEM", str(int(value))
    raise ParseError(f"column {col}: unknown slot prefix {kind!r}")


def _parse_spec(line: str, known: dict, intern: Callable) -> tuple[int, tuple]:
    """The id and slots of a spec line: `known[piece]` for each slot
    text, where a text not yet in `known` is parsed and `intern(kind,
    value)` of its slot is added."""
    head, sep, rest = line.rstrip("\n").partition("\t")
    if not sep:
        raise ParseError("construction spec needs <id><TAB><slots>")
    # the one spelling write_inventory gives back: ASCII digits, no sign,
    # no `_`, no space and no leading zero
    if not (head.isascii() and head.isdigit()) or (head.startswith("0") and head != "0"):
        raise ParseError(f"cxg_id {head!r} is not ASCII digits without a sign or leading zero")
    cxg_id = int(head)
    slots = []
    col = len(head) + 2  # 1-based column of the first slot character
    for piece in rest.split(" "):
        if piece:
            if piece not in known:
                known[piece] = intern(*_parse_slot(piece, col))
            slots.append(known[piece])
        col += len(piece) + 1
    if len(slots) < 2:
        raise ParseError(f"construction {cxg_id} has {len(slots)} slot(s); minimum is 2")
    return cxg_id, tuple(slots)


def parse_construction_spec(line: str) -> Construction:
    """Parse one `<id><TAB>slot slot ...` line.

    Slots are `lex:<form>`, `pos:<TAG>` with a TAG of UNIVERSAL_TAGS, or
    `sem:<int>`; errors report the column (1-based character position)
    of the offending slot.
    """
    return Construction(*_parse_spec(line, {}, SlotConstraint))


def load_inventory(path: str | Path) -> Inventory:
    """Load an inventory file, refusing a malformed line or a duplicate
    at its line. Each distinct slot text is validated once, where it
    first appears, and its value entered in the facet map of its kind;
    a slot text seen before costs one lookup. No SlotConstraint is
    built."""
    inventory = Inventory()
    known: dict[str, int] = {}  # slot text -> facet id
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            inventory.add(*_parse_spec(line, known, inventory._facet_id))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return inventory


def write_inventory(inventory: Inventory, path: str | Path) -> None:
    """Write spec lines sorted by cxg_id (load ∘ write is an identity)."""
    with open(path, "w", encoding="utf-8") as fh:
        for con in sorted(inventory.constructions, key=lambda c: c.cxg_id):
            fh.write(con.spec_line() + "\n")


class _InductionFields(NamedTuple):
    max_len: int = 4
    min_support: int = 5
    min_assoc: float = 0.1
    max_inventory: int = 10000


class InductionParams(_InductionFields):
    """The thresholds of induce_inventory; an out-of-range one raises
    ParseError when the record is constructed or copied with `_replace`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_len < 2:
            raise ParseError("max_len must be >= 2")
        if self.min_support < 2:
            raise ParseError("min_support must be >= 2")
        if self.max_inventory <= 0:
            raise ParseError("max_inventory must be positive")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def _token_facets(form: str, pos: str, sem: int | None) -> list[tuple[str, str]]:
    facets = [("LEX", form), ("POS", pos)]
    if sem is not None:
        facets.append(("SEM", str(sem)))
    return facets


def induce_inventory(
    corpus: Iterable[AnnotatedSentence], params: InductionParams
) -> Inventory:
    """Minimal association-based induction.

    Candidates are every choice of one facet per token over contiguous
    windows of length 2..max_len. Support is counted per sentence (a
    candidate occurring twice in one sentence counts once). Surviving
    candidates are scored by the mean directional association of their
    adjacent slot pairs,

        dP(a -> b) = P(b at i+1 | a at i) - P(b at i+1 | not a at i),

    estimated over all adjacent token positions in the corpus. A
    candidate is dropped when its sentence set is covered by a kept
    candidate of equal or higher score; the result is truncated to
    max_inventory by score, then length, then name.

    Deterministic: no randomness anywhere.
    """
    sentences = list(corpus)

    support: Counter = Counter()          # candidate -> sentence count
    match_sets: dict[tuple, set[int]] = {}
    left: Counter = Counter()             # facet at position i of an adjacent pair
    right: Counter = Counter()            # facet at position i+1
    pair: Counter = Counter()             # (facet_i, facet_i+1)
    total_pairs = 0

    for sent in sentences:
        facets = list(map(_token_facets, sent.forms, sent.tags, sent.sems))
        n = len(facets)
        for i in range(n - 1):
            total_pairs += 1
            for fa in facets[i]:
                left[fa] += 1
            for fb in facets[i + 1]:
                right[fb] += 1
            for fa in facets[i]:
                for fb in facets[i + 1]:
                    pair[(fa, fb)] += 1
        seen_here = set()
        for length in range(2, params.max_len + 1):
            for start in range(n - length + 1):
                for combo in itertools.product(*facets[start : start + length]):
                    seen_here.add(combo)
        for combo in seen_here:
            support[combo] += 1
            match_sets.setdefault(combo, set()).add(sent.sentence_id)

    candidates = [c for c, s in support.items() if s >= params.min_support]

    def delta_p(fa: tuple[str, str], fb: tuple[str, str]) -> float:
        a = left[fa]
        ab = pair[(fa, fb)]
        b = right[fb]
        if a == 0:
            return 0.0
        p_given = ab / a
        rest = total_pairs - a
        p_other = (b - ab) / rest if rest > 0 else 0.0
        return p_given - p_other

    scored = []
    for combo in candidates:
        assoc = [delta_p(combo[i], combo[i + 1]) for i in range(len(combo) - 1)]
        score = sum(assoc) / len(assoc)
        if score >= params.min_assoc:
            scored.append((score, combo))

    def name_of(combo) -> str:
        return " + ".join(
            SlotConstraint(k, v).render() for k, v in combo
        )

    # Prune in an order that prefers lexically specific candidates among
    # ties, so the observed surface sequence survives as the
    # representative when a categorial variant covers the same sentences
    # at the same score.
    def specificity(combo) -> int:
        return sum(1 for kind, _ in combo if kind != "LEX")

    scored.sort(key=lambda sc: (-sc[0], -len(sc[1]), specificity(sc[1]), name_of(sc[1])))

    kept: list[tuple[float, tuple, frozenset]] = []
    for score, combo in scored:
        mset = frozenset(match_sets[combo])
        covered = any(mset <= kept_set for _, _, kept_set in kept)
        if not covered:
            kept.append((score, combo, mset))

    # Truncation order: score, then longer sequence, then name.
    kept.sort(key=lambda kc: (-kc[0], -len(kc[1]), name_of(kc[1])))
    kept = kept[: params.max_inventory]
    constructions = [
        Construction(i, tuple(SlotConstraint(k, v) for k, v in combo))
        for i, (_, combo, _) in enumerate(kept)
    ]
    if not constructions:
        warnings.warn(f"induction produced an empty inventory ({len(sentences)} sentences, "
                      f"min_support={params.min_support})", stacklevel=2)
    return Inventory(constructions)
