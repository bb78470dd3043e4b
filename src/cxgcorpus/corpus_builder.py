"""Build the three pre-training corpus variants from an occurrence table.

All three contain exactly the same multiset size of sentence occurrences
for a given frequency band:

  cxg     -- one document per selected construction, holding every
             sentence that instantiates it (a sentence repeats across
             documents as often as the number of selected constructions
             it instantiates);
  base    -- the article-structured control: unmatched sentences are
             dropped and each drop breaks the article into a new
             document, then whole copies plus a document-aligned prefix
             replicate the material up to the cxg variant's total;
  random  -- the base variant with all sentence occurrences globally
             shuffled and document breaks re-drawn (same document count).

A document is the tuple of its sentence ids, in order. The base variant
takes the cxg variant's sentence ids, and verify_multiset compares two
variants' `occurrences` counts.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError
from .workspace import render_bound

if TYPE_CHECKING:
    from .matcher import OccurrenceTable


_WRITE_SENTENCES = 1024  # lines per write: few calls, and a bounded string per call


class BuildManifest(NamedTuple):
    variant: str
    band_lo: int
    band_hi: int | None
    total_occurrences: int
    n_documents: int
    kept_sentences: int | None = None
    copies: int | None = None
    prefix_len: int | None = None
    seed: int | None = None

    def write(self, path: str | Path) -> None:
        """`key = value` lines in field order, without the optional fields that are None."""
        fields = {**self._asdict(), "band_hi": render_bound(self.band_hi)}
        lines = [f"{key} = {value}\n" for key, value in fields.items() if value is not None]
        Path(path).write_text("".join(lines), encoding="utf-8")


def build_cxg_corpus(
    table: OccurrenceTable, band: tuple[int, int | None]
) -> tuple[list[tuple[int, ...]], BuildManifest]:
    """One document per selected construction, sentences in id order."""
    docs = [tuple(table.forward[cid]) for cid in table.select_band(band)]
    manifest = BuildManifest("cxg", band[0], band[1], sum(map(len, docs)), len(docs))
    return docs, manifest


def build_base_clone(
    corpus: Iterable[Sequence[int]],
    kept: AbstractSet[int],
    band: tuple[int, int | None],
    target_total: int,
) -> tuple[list[tuple[int, ...]], BuildManifest]:
    """Article-structured control corpus replicated to target_total.

    Sentences (sentence_id, article_id, position_in_article, ...) not in
    `kept`, the selected constructions' sentence ids, are dropped, and
    every drop starts a new document so that adjacent sentences in any
    document were adjacent in the source article. Whole copies of the
    resulting document list are emitted, then a prefix (splitting at
    most one document) to land exactly on target_total occurrences.
    """
    base_docs: list[tuple[int, ...]] = []
    run: list[int] = []
    article = None
    for sent in sorted(corpus, key=itemgetter(1, 2)):  # (article_id, position_in_article)
        sid, article_id = sent[0], sent[1]
        keep = sid in kept
        if run and (not keep or article_id != article):
            base_docs.append(tuple(run))
            run = []
        if keep:
            run.append(sid)
        article = article_id
    if run:
        base_docs.append(tuple(run))

    n_kept = sum(map(len, base_docs))
    if n_kept == 0:
        raise InputError("no sentence instantiates any selected construction")

    copies, remainder = divmod(target_total, n_kept)
    docs = base_docs * copies
    still = remainder
    for sids in base_docs:
        if still <= 0:
            break
        docs.append(sids[:still])
        still -= len(sids)

    manifest = BuildManifest(
        "base", band[0], band[1], target_total, len(docs),
        kept_sentences=n_kept, copies=copies, prefix_len=remainder,
    )
    return docs, manifest


def build_random(
    base_documents: list[tuple[int, ...]],
    seed: int,
    band: tuple[int, int | None],
) -> tuple[list[tuple[int, ...]], BuildManifest]:
    """Shuffle all sentence occurrences of the base variant and re-draw
    document breaks as a uniform composition into the same number of
    non-empty documents.
    """
    occurrences = list(chain.from_iterable(base_documents))
    n_docs = len(base_documents)
    total = len(occurrences)
    rng = random.Random(seed)
    rng.shuffle(occurrences)
    cuts = sorted(rng.sample(range(1, total), n_docs - 1)) if n_docs > 1 else []
    bounds = [0, *cuts, total]
    docs = [tuple(occurrences[a:b]) for a, b in zip(bounds, bounds[1:])]
    manifest = BuildManifest("random", band[0], band[1], total, len(docs), seed=seed)
    return docs, manifest


def write_pretraining_file(
    documents: list[tuple[int, ...]],
    sentence_texts: Mapping[int, str],
    path: str | Path,
) -> None:
    """One sentence per line, a blank line between documents, no
    trailing blank line. Each write takes up to _WRITE_SENTENCES lines,
    since a cxg document can hold most of the corpus.
    """
    text = sentence_texts.__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        for index, doc in enumerate(documents):
            head = [""] if index else []  # the blank line before each document but the first
            for start in range(0, len(doc) or 1, _WRITE_SENTENCES):
                try:
                    lines = [*head, *map(text, doc[start:start + _WRITE_SENTENCES]), ""]
                except KeyError as exc:
                    raise InputError(
                        f"{path}: unknown sentence id {exc.args[0]} in document {index}")
                fh.write("\n".join(lines))
                head = []


class MultisetReport(NamedTuple):
    total_a: int
    total_b: int
    mismatched: list[tuple[int, int, int]]  # (sentence_id, mult_a, mult_b)

    @property
    def equal_totals(self) -> bool:
        return self.total_a == self.total_b

    @property
    def equal_multisets(self) -> bool:
        return self.equal_totals and not self.mismatched

    def summary(self) -> str:
        if self.equal_multisets:
            return f"multisets equal ({self.total_a} occurrences)"
        return (
            f"totals {self.total_a} vs {self.total_b}; "
            f"{len(self.mismatched)} sentence id(s) with differing multiplicity"
        )


def occurrences(documents: list[tuple[int, ...]]) -> Counter[int]:
    """The multiplicity of each sentence id over a variant's documents."""
    return Counter(chain.from_iterable(documents))


def verify_multiset(count_a: Counter[int], count_b: Counter[int]) -> MultisetReport:
    """Compare the sentence-occurrence multisets of two variants, given
    as their `occurrences`."""
    # dict's own == runs in C (Counter's loops in Python); counts hold no zeros
    mismatched = [] if dict.__eq__(count_a, count_b) else [
        (sid, count_a[sid], count_b[sid])
        for sid in sorted(count_a.keys() | count_b.keys())
        if count_a[sid] != count_b[sid]
    ]
    return MultisetReport(sum(count_a.values()), sum(count_b.values()), mismatched)
