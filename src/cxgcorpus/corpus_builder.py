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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import EmptyBandError, InputError
from .workspace import render_bound

if TYPE_CHECKING:
    from .ingest import AnnotatedSentence, SentenceRef
    from .matcher import OccurrenceTable


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: int
    kind: str  # cxg | article | random
    ref: int   # cxg_id | article_id | segment index
    copy_index: int
    sentence_ids: tuple[int, ...]


@dataclass
class BuildManifest:
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
        lines = [
            f"variant = {self.variant}",
            f"band_lo = {self.band_lo}",
            f"band_hi = {render_bound(self.band_hi)}",
            f"total_occurrences = {self.total_occurrences}",
            f"n_documents = {self.n_documents}",
        ]
        for key in ("kept_sentences", "copies", "prefix_len", "seed"):
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key} = {value}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_cxg_corpus(
    table: OccurrenceTable, band: tuple[int, int | None]
) -> tuple[list[CorpusDocument], BuildManifest]:
    """One document per selected construction, sentences in id order."""
    selected = table.select_band(band)
    if not selected:
        raise EmptyBandError(f"band {band} selects no constructions")
    docs = []
    total = 0
    for doc_id, cid in enumerate(selected):
        sids = tuple(table.forward[cid])
        total += len(sids)
        docs.append(CorpusDocument(doc_id, "cxg", cid, 0, sids))
    manifest = BuildManifest("cxg", band[0], band[1], total, len(docs))
    return docs, manifest


def build_base_clone(
    corpus: Iterable[AnnotatedSentence | SentenceRef],
    table: OccurrenceTable,
    band: tuple[int, int | None],
    target_total: int,
) -> tuple[list[CorpusDocument], BuildManifest]:
    """Article-structured control corpus replicated to target_total.

    Sentences instantiating no selected construction are dropped, and
    every drop starts a new document so that adjacent sentences in any
    document were adjacent in the source article. Whole copies of the
    resulting document list are emitted, then a prefix (splitting at
    most one document) to land exactly on target_total occurrences.
    """
    selected = set(table.select_band(band))
    if not selected:
        raise EmptyBandError(f"band {band} selects no constructions")

    ordered = sorted(corpus, key=lambda s: (s.article_id, s.position_in_article))
    base_docs: list[tuple[int, tuple[int, ...]]] = []  # (article_id, sids)
    run: list[int] = []
    run_article: int | None = None
    n_kept = 0

    def close_run():
        nonlocal run
        if run:
            base_docs.append((run_article, tuple(run)))
            run = []

    for sent in ordered:
        keep = any(cid in selected for cid in table.constructions_of(sent.sentence_id))
        if sent.article_id != run_article:
            close_run()
            run_article = sent.article_id
        if keep:
            run.append(sent.sentence_id)
            n_kept += 1
        else:
            close_run()
    close_run()

    if n_kept == 0:
        raise InputError("no sentence instantiates any selected construction")

    copies = target_total // n_kept
    remainder = target_total - copies * n_kept

    docs: list[CorpusDocument] = []
    doc_id = 0
    for copy_index in range(copies):
        for article_id, sids in base_docs:
            docs.append(CorpusDocument(doc_id, "article", article_id, copy_index, sids))
            doc_id += 1
    still = remainder
    for article_id, sids in base_docs:
        if still <= 0:
            break
        take = sids if len(sids) <= still else sids[:still]
        docs.append(CorpusDocument(doc_id, "article", article_id, copies, take))
        doc_id += 1
        still -= len(take)

    manifest = BuildManifest(
        "base", band[0], band[1], target_total, len(docs),
        kept_sentences=n_kept, copies=copies, prefix_len=remainder,
    )
    return docs, manifest


def build_random(
    base_documents: list[CorpusDocument],
    seed: int,
    band: tuple[int, int | None] = (2, None),
) -> tuple[list[CorpusDocument], BuildManifest]:
    """Shuffle all sentence occurrences of the base variant and re-draw
    document breaks as a uniform composition into the same number of
    non-empty documents.
    """
    occurrences: list[int] = []
    for doc in base_documents:
        occurrences.extend(doc.sentence_ids)
    n_docs = len(base_documents)
    total = len(occurrences)
    rng = random.Random(seed)
    rng.shuffle(occurrences)
    if n_docs > 1:
        cuts = sorted(rng.sample(range(1, total), n_docs - 1))
    else:
        cuts = []
    bounds = [0] + cuts + [total]
    docs = []
    for seg, (a, b) in enumerate(zip(bounds, bounds[1:])):
        docs.append(CorpusDocument(seg, "random", seg, 0, tuple(occurrences[a:b])))
    manifest = BuildManifest("random", band[0], band[1], total, len(docs), seed=seed)
    return docs, manifest


def write_pretraining_file(
    documents: list[CorpusDocument],
    sentence_texts: Mapping[int, str],
    path: str | Path,
) -> None:
    """One sentence per line, a blank line between documents, no
    trailing blank line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        first = True
        for doc in documents:
            if not first:
                fh.write("\n")
            first = False
            for sid in doc.sentence_ids:
                try:
                    fh.write(sentence_texts[sid] + "\n")
                except KeyError:
                    raise InputError(f"{path}: unknown sentence id {sid} in document {doc.doc_id}")


@dataclass
class MultisetReport:
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


def verify_multiset(
    documents_a: list[CorpusDocument], documents_b: list[CorpusDocument]
) -> MultisetReport:
    """Compare the sentence-occurrence multisets of two variants."""
    from collections import Counter

    count_a: Counter = Counter()
    count_b: Counter = Counter()
    for doc in documents_a:
        count_a.update(doc.sentence_ids)
    for doc in documents_b:
        count_b.update(doc.sentence_ids)
    mismatched = []
    for sid in sorted(set(count_a) | set(count_b)):
        if count_a[sid] != count_b[sid]:
            mismatched.append((sid, count_a[sid], count_b[sid]))
    return MultisetReport(sum(count_a.values()), sum(count_b.values()), mismatched)
