import random
from collections import Counter

import pytest

from cxgcorpus.corpus_builder import (
    _WRITE_SENTENCES,
    build_base_clone,
    build_cxg_corpus,
    build_random,
    occurrences,
    verify_multiset,
    write_pretraining_file,
)
from cxgcorpus.errors import EmptyBandError, InputError
from cxgcorpus.ingest import store_texts
from cxgcorpus.matcher import OccurrenceTable

from helpers import (
    band_ids, freq, random_build_case, read_pretraining_file, reference_base, reference_cxg,
    reference_pretraining_bytes, sent, sentence_text_map,
)


def _toy_corpus_and_table():
    """One 5-sentence article; sentence 2 (0-based) matches nothing."""
    corpus = [
        sent(0, [("w0", "NOUN")], aid=0, pos=0),
        sent(1, [("w1", "NOUN")], aid=0, pos=1),
        sent(2, [("zz", "NOUN")], aid=0, pos=2),
        sent(3, [("w3", "NOUN")], aid=0, pos=3),
        sent(4, [("w4", "NOUN")], aid=0, pos=4),
    ]
    table = OccurrenceTable(
        {0: [0, 1, 3], 1: [1, 3, 4], 2: [0, 1]}, discarded=[2]
    )
    return corpus, table


def _base(corpus, table, target_total):
    """The base variant over every construction of frequency 2 or more."""
    return build_base_clone(corpus, band_ids(table, (2, None)), (2, None), target_total)


class TestCxgBuild:
    def test_one_document_per_construction(self):
        table = OccurrenceTable({5: [0, 1, 2, 3, 4, 5]})
        docs, manifest = build_cxg_corpus(table, (2, None))
        assert len(docs) == 1
        assert docs == [(0, 1, 2, 3, 4, 5)]
        assert manifest.total_occurrences == 6

    def test_sentence_repeats_per_membership(self):
        _, table = _toy_corpus_and_table()
        docs, _ = build_cxg_corpus(table, (2, None))
        counts = Counter(sid for doc in docs for sid in doc)
        # sentence 1 instantiates constructions 0, 1 and 2
        assert counts[1] == len(table.constructions_of(1)) == 3

    def test_total_matches_recount(self, desk_table):
        band = (2, 10000)
        docs, manifest = build_cxg_corpus(desk_table, band)
        recount = sum(freq(desk_table, c) for c in desk_table.select_band(band))
        assert manifest.total_occurrences == recount
        assert sum(map(len, docs)) == recount

    def test_empty_band_is_error(self):
        table = OccurrenceTable({0: [1, 2]})
        with pytest.raises(EmptyBandError):
            build_cxg_corpus(table, (100, 200))


class TestBaseClone:
    def test_drop_breaks_article(self):
        corpus, table = _toy_corpus_and_table()
        docs, manifest = _base(corpus, table, target_total=4)
        assert docs == [(0, 1), (3, 4)]
        assert manifest.copies == 1 and manifest.prefix_len == 0

    def test_exact_double_copies(self):
        corpus, table = _toy_corpus_and_table()
        docs, manifest = _base(corpus, table, target_total=8)
        assert manifest.copies == 2 and manifest.prefix_len == 0
        assert docs == [(0, 1), (3, 4)] * 2

    def test_prefix_splits_final_document(self):
        corpus, table = _toy_corpus_and_table()
        docs, manifest = _base(corpus, table, target_total=7)
        assert manifest.copies == 1 and manifest.prefix_len == 3
        assert sum(map(len, docs)) == 7
        assert docs[-1] == (3,)  # second document split after one sentence

    def test_adjacency_invariant(self, desk, desk_table):
        band = (2, 10000)
        _, cxg_manifest = build_cxg_corpus(desk_table, band)
        docs, _ = build_base_clone(desk.sentences, band_ids(desk_table, band), band,
                                   cxg_manifest.total_occurrences)
        meta = {s.sentence_id: (s.article_id, s.position_in_article) for s in desk.sentences}
        for doc in docs:
            for a, b in zip(doc, doc[1:]):
                art_a, pos_a = meta[a]
                art_b, pos_b = meta[b]
                assert art_a == art_b and pos_b == pos_a + 1

    def test_target_total_met_exactly(self, desk, desk_table):
        band = (2, 10000)
        _, cxg_manifest = build_cxg_corpus(desk_table, band)
        target = cxg_manifest.total_occurrences
        docs, manifest = build_base_clone(desk.sentences, band_ids(desk_table, band), band, target)
        assert sum(map(len, docs)) == target == manifest.total_occurrences


class TestRandomVariant:
    def test_permutation_of_occurrences(self):
        corpus, table = _toy_corpus_and_table()
        base_docs, _ = _base(corpus, table, target_total=8)
        rand_docs, _ = build_random(base_docs, seed=5, band=(2, None))
        base_occ = sorted(s for d in base_docs for s in d)
        rand_occ = sorted(s for d in rand_docs for s in d)
        assert base_occ == rand_occ
        assert len(rand_docs) == len(base_docs)
        assert all(rand_docs)

    def test_same_seed_same_output(self):
        corpus, table = _toy_corpus_and_table()
        base_docs, _ = _base(corpus, table, target_total=8)
        a, _ = build_random(base_docs, seed=11, band=(2, None))
        b, _ = build_random(base_docs, seed=11, band=(2, None))
        assert a == b
        c, _ = build_random(base_docs, seed=12, band=(2, None))
        assert a != c


class TestPretrainingFile:
    def test_blank_line_between_documents(self, tmp_path):
        corpus, _ = _toy_corpus_and_table()
        texts = sentence_text_map(corpus)
        docs = [(0,), (3,)]
        path = tmp_path / "out.txt"
        write_pretraining_file(docs, texts, path)
        assert path.read_text("utf-8") == "w0\n\nw3\n"

    def test_empty_documents_give_empty_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_pretraining_file([], {}, path)
        assert path.read_text("utf-8") == ""

    def test_empty_documents_keep_their_blank_lines(self, tmp_path):
        texts = {0: "a", 1: "b"}
        path = tmp_path / "out.txt"
        for docs, expected in (
            ([(0,), (), (1,)], b"a\n\n\nb\n"),
            ([(), (0, 1)], b"\na\nb\n"),
            ([(0,), ()], b"a\n\n"),
            ([(), ()], b"\n"),
            ([()], b""),
        ):
            write_pretraining_file(docs, texts, path)
            assert path.read_bytes() == expected == reference_pretraining_bytes(docs, texts)

    def test_documents_longer_than_one_write_keep_their_bytes(self, tmp_path):
        n = _WRITE_SENTENCES
        texts = {sid: f"sentence {sid}" for sid in range(3 * n)}
        docs = [tuple(range(2 * n + 5)), (), tuple(range(n)), (7,), tuple(range(n + 1))]
        path = tmp_path / "out.txt"
        write_pretraining_file(docs, texts, path)
        assert path.read_bytes() == reference_pretraining_bytes(docs, texts)
        with pytest.raises(InputError, match=rf"unknown sentence id {3 * n} in document 1$"):
            write_pretraining_file([(0,), (*range(n + 5), 3 * n)], texts, path)

    def test_unknown_sentence_id_names_its_document(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(InputError) as caught:
            write_pretraining_file([(0,), (), (1, 7, 0)], {0: "a", 1: "b"}, path)
        assert str(caught.value) == f"{path}: unknown sentence id 7 in document 2"

    def test_round_trip_structure(self, tmp_path):
        corpus, table = _toy_corpus_and_table()
        texts = sentence_text_map(corpus)
        docs, _ = _base(corpus, table, target_total=8)
        path = tmp_path / "out.txt"
        write_pretraining_file(docs, texts, path)
        reread = read_pretraining_file(path)
        assert reread == [[texts[s] for s in d] for d in docs]


class TestVerifyMultiset:
    def test_cxg_vs_base_totals_equal_multiplicities_differ(self):
        corpus, table = _toy_corpus_and_table()
        cxg_docs, manifest = build_cxg_corpus(table, (2, None))
        base_docs, _ = _base(corpus, table, manifest.total_occurrences)
        report = verify_multiset(occurrences(cxg_docs), occurrences(base_docs))
        assert report.equal_totals
        assert not report.equal_multisets
        assert report.mismatched  # the report names the differing ids

    def test_base_vs_random_exact_equality(self):
        corpus, table = _toy_corpus_and_table()
        base_docs, _ = _base(corpus, table, target_total=9)
        rand_docs, _ = build_random(base_docs, seed=3, band=(2, None))
        report = verify_multiset(occurrences(base_docs), occurrences(rand_docs))
        assert report.equal_multisets

    def test_counted_side_reports_alike(self):
        corpus, table = _toy_corpus_and_table()
        _, manifest = build_cxg_corpus(table, (2, None))
        base_docs, _ = _base(corpus, table, manifest.total_occurrences)
        rand_docs, _ = build_random(base_docs, seed=3, band=(2, None))
        base = occurrences(base_docs)
        assert base == Counter(sid for doc in base_docs for sid in doc)
        assert verify_multiset(base, occurrences(rand_docs)).equal_multisets

    def test_deleted_sentence_named(self):
        corpus, table = _toy_corpus_and_table()
        base_docs, _ = _base(corpus, table, target_total=4)
        truncated = [*base_docs[:-1], base_docs[-1][:-1]]
        report = verify_multiset(occurrences(base_docs), occurrences(truncated))
        assert not report.equal_multisets
        assert report.mismatched[0][0] == 4  # sentence id 4 went missing


def test_variants_agree_with_the_naive_references(tmp_path):
    """Seeded small tables and stores: the store pass gives the band's
    texts, the cxg and base variants equal the references, the random
    variant keeps the base multiset and document count, every file has
    the reference bytes, and a table whose rows come in another order
    gives the same bytes."""
    seen = Counter()
    path = tmp_path / "out.txt"
    for seed in range(400):
        refs, texts, table, band = random_build_case(random.Random(seed))
        seen["no instance"] += any(not sids for sids in table.forward.values())
        seen["positions not by id"] += [r[0] for r in refs] != [
            r[0] for r in sorted(refs, key=lambda r: (r[1], r[2]))]
        cxg = reference_cxg(table, band)
        if not cxg:
            seen["empty band"] += 1
            with pytest.raises(EmptyBandError):
                build_cxg_corpus(table, band)
            continue
        total = sum(map(len, cxg))
        kept = set().union(*cxg)
        store = tmp_path / "store.sents"
        store.write_text("".join(
            "\t".join([*map(str, ref), *words, *["NOUN"] * len(words), *["-", "3"][:len(words)],
                       *["0"] * (len(words) - 2)]) + "\n"
            for ref in refs for words in [texts[ref[0]].split()]), encoding="utf-8")
        assert store_texts(store, kept) == (refs, {sid: texts[sid] for sid in sorted(kept)})
        seen["exact multiple"] += total % len(kept) == 0
        shuffled = list(table.forward.items())
        random.Random(seed).shuffle(shuffled)
        outputs = []
        for tab in (table, OccurrenceTable(dict(shuffled))):
            cxg_docs, manifest = build_cxg_corpus(tab, band)
            base_docs, base_manifest = build_base_clone(refs, band_ids(tab, band), band, total)
            rand_docs, _ = build_random(base_docs, seed, band)
            assert cxg_docs == cxg and manifest.total_occurrences == total
            assert base_docs == reference_base(refs, tab, band, total)
            copies, prefix = divmod(total, len(kept))
            assert (base_manifest.kept_sentences, base_manifest.copies,
                    base_manifest.prefix_len) == (len(kept), copies, prefix)
            assert occurrences(rand_docs) == occurrences(base_docs)
            assert len(rand_docs) == len(base_docs) and all(rand_docs)
            for docs in (cxg_docs, base_docs, rand_docs):
                write_pretraining_file(docs, texts, path)
                assert path.read_bytes() == reference_pretraining_bytes(docs, texts)
                outputs.append(path.read_bytes())
        assert outputs[:3] == outputs[3:]
    assert min(seen.values()) >= 10, seen
