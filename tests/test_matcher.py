import pickle
import random

import pytest

from cxgcorpus.errors import FacetMissingError
from cxgcorpus.ingest import Token
from cxgcorpus.inventory import Construction, Inventory, parse_construction_spec
from cxgcorpus.matcher import (
    OccurrenceTable,
    bands_from_edges,
    brute_force_match,
    build_index,
    match_corpus,
    match_sentence,
    occurrence_stats,
)

from helpers import S, from_tokens, is_transpose_consistent, random_matcher_case, read_table, sent


def cxg_ids(constructions):
    return [con.cxg_id for con in constructions]


@pytest.fixture(scope="module")
def table1_construction():
    return parse_construction_spec("7\tpos:PRON lex:didn't pos:VERB lex:how")


class TestBuildIndex:
    def test_single_construction(self):
        inv = Inventory([Construction(0, (S("LEX", "a"), S("POS", "NOUN")))])
        index = build_index(inv)
        assert sum(len(v) for v in index.entries.values()) == 1

    def test_shared_rare_lex_key(self):
        # POS facets appear in four constructions each, the LEX facet in
        # two: both constructions using it anchor on it.
        inv = Inventory([
            Construction(0, (S("LEX", "rare"), S("POS", "NOUN"))),
            Construction(1, (S("LEX", "rare"), S("POS", "VERB"))),
            Construction(2, (S("POS", "NOUN"), S("POS", "VERB"))),
            Construction(3, (S("POS", "VERB"), S("POS", "NOUN"))),
            Construction(4, (S("POS", "NOUN"), S("POS", "NOUN"))),
        ])
        index = build_index(inv)
        assert {cid for cid, _ in index.entries[("LEX", "rare")]} == {0, 1}

    def test_rarest_slot_selected(self):
        # "common" appears in three constructions, "scarce" in one: the
        # third construction must be anchored on "scarce", offset 1.
        inv = Inventory([
            Construction(0, (S("LEX", "common"), S("POS", "NOUN"))),
            Construction(1, (S("LEX", "common"), S("POS", "VERB"))),
            Construction(2, (S("LEX", "common"), S("LEX", "scarce"))),
        ])
        index = build_index(inv)
        assert index.entries[("LEX", "scarce")] == [(2, 1)]

    def test_full_scale_entry_count(self):
        rng = random.Random(3)
        words = [f"w{i}" for i in range(40000)]
        cons = []
        seen = set()
        while len(cons) < 22000:
            slots = (S("LEX", rng.choice(words)), S("POS", rng.choice(("NOUN", "VERB"))))
            if slots not in seen:
                seen.add(slots)
                cons.append(Construction(len(cons), slots))
        index = build_index(Inventory(cons))
        assert sum(len(v) for v in index.entries.values()) == 22000

    def test_entries_equal_rarest_slot_reference(self):
        # A small facet pool, so that facet counts tie and some
        # constructions repeat a facet; cxg_ids are shuffled so that
        # inventory order is not id order.
        rng = random.Random(31)
        pool = (
            [S("LEX", f"w{i}") for i in range(20)]
            + [S("POS", t) for t in ("NOUN", "VERB", "DET")]
            + [S("SEM", i) for i in range(5)]
        )
        ids = list(range(150))
        rng.shuffle(ids)
        cons, seen = [], set()
        while len(cons) < len(ids):
            slots = tuple(rng.choice(pool) for _ in range(rng.randrange(2, 5)))
            if slots not in seen:
                seen.add(slots)
                cons.append(Construction(ids[len(cons)], slots))
        inv = Inventory(cons)

        counts = {}
        for con in cons:
            for slot in con.slots:
                facet = (slot.kind, slot.value)
                counts[facet] = counts.get(facet, 0) + 1
        expected = {}
        ties = repeats = 0
        for con in cons:
            facets = [(slot.kind, slot.value) for slot in con.slots]
            offset = min(range(len(facets)), key=lambda i: (counts[facets[i]], i))
            expected.setdefault(facets[offset], []).append((con.cxg_id, offset))
            rarest = {f for f in facets if counts[f] == counts[facets[offset]]}
            ties += len(rarest) > 1
            repeats += facets.count(facets[offset]) > 1
        assert ties and repeats

        index = build_index(inv)
        assert list(index.entries.items()) == list(expected.items())

        # A library caller may pickle the index, e.g. to hand it to its
        # own worker processes; the copy matches as the original does.
        forms = [slot.value for slot in pool if slot.kind == "LEX"]
        corpus = [
            sent(sid, [(rng.choice(forms), rng.choice(("NOUN", "VERB", "DET")), rng.randrange(5))
                       for _ in range(rng.randrange(4, 12))], pos=sid)
            for sid in range(200)
        ]
        table = match_corpus(index, corpus, 1)
        copied = match_corpus(pickle.loads(pickle.dumps(index)), corpus, 1)
        assert table.reverse and table.discarded
        assert (copied.forward, copied.reverse, copied.discarded) == (
            table.forward, table.reverse, table.discarded)


class TestMatchSentence:
    def test_table1_contiguous(self, table1_construction):
        inv = Inventory([table1_construction])
        index = build_index(inv)
        s = sent(0, [
            ("She", "PRON"), ("didn't", "AUX"), ("understand", "VERB"), ("how", "ADV"),
            ("I", "PRON"), ("could", "AUX"), ("do", "AUX"), ("so", "ADV"),
            ("poorly", "ADV"), (".", "PUNCT"),
        ])
        assert match_sentence(index, s, max_gap=0) == [7]

    def test_table1_gap_case(self, table1_construction):
        inv = Inventory([table1_construction])
        index = build_index(inv)
        s = sent(0, [
            ("he", "PRON"), ("really", "ADV"), ("didn't", "AUX"),
            ("know", "VERB"), ("how", "ADV"),
        ])
        assert match_sentence(index, s, max_gap=0) == []
        assert match_sentence(index, s, max_gap=1) == [7]

    def test_empty_inventory(self):
        index = build_index(Inventory([]))
        s = sent(0, [("a", "NOUN"), ("b", "VERB")])
        assert match_sentence(index, s, max_gap=2) == []

    def test_construction_longer_than_sentence(self):
        inv = Inventory([Construction(0, tuple(S("POS", "NOUN") for _ in range(5)))])
        s = sent(0, [("a", "NOUN"), ("b", "NOUN")])
        assert brute_force_match(inv, s, 2) == []
        assert match_sentence(build_index(inv), s, 2) == []

    def test_facet_missing_error(self):
        # a sentence without sem ids matches no SEM slot; only a corpus
        # in which no sentence carries one is refused
        inv = Inventory([Construction(0, (S("SEM", 1), S("POS", "NOUN")))])
        index = build_index(inv)
        s = sent(4, [("a", "NOUN"), ("b", "NOUN")])  # no sem anywhere
        assert match_sentence(index, s, 1) == []
        assert brute_force_match(inv, s, 1) == []
        with pytest.raises(FacetMissingError, match="the corpus carries no SEM annotations"):
            match_corpus(index, [s], 1)
        tagged = sent(5, [("c", "X", 1), ("d", "NOUN")], pos=1)
        table = match_corpus(index, [s, tagged], 1)
        assert table.forward == {0: [5]} and table.discarded == [4]
        no_sem = build_index(Inventory([Construction(0, (S("POS", "NOUN"),))]))
        assert match_corpus(no_sem, [s], 1).forward == {0: [4]}

    def test_backtracking_alignment(self):
        # greedy earliest-next-match would die here: only the second b
        # can reach c within one gap.
        inv = Inventory([Construction(0, (S("LEX", "a"), S("LEX", "b"), S("LEX", "c")))])
        index = build_index(inv)
        s = sent(0, [("a", "X"), ("b", "X"), ("b", "X"), ("x", "X"), ("c", "X")])
        assert match_sentence(index, s, 1) == [0]
        assert match_sentence(index, s, 0) == []
        assert cxg_ids(brute_force_match(inv, s, 1)) == [0]


class TestOracleEquivalence:
    def test_random_sweep(self):
        rng = random.Random(2024)
        for case in range(300):
            max_gap = rng.choice((0, 1, 2))
            inv, s = random_matcher_case(rng, max_gap)
            index = build_index(inv)
            assert match_sentence(index, s, max_gap) == cxg_ids(
                brute_force_match(inv, s, max_gap)
            ), f"case {case}"

    def test_gap_monotonicity(self):
        rng = random.Random(7)
        for _ in range(100):
            inv, s = random_matcher_case(rng, 1)
            index = build_index(inv)
            ids = [set(match_sentence(index, s, g)) for g in (0, 1, 2)]
            assert ids[0] <= ids[1] <= ids[2]

    def test_adding_construction_never_removes_matches(self):
        rng = random.Random(8)
        for _ in range(50):
            inv, s = random_matcher_case(rng, 1)
            extra = Construction(10_000, (S("LEX", "w0"), S("POS", "NOUN")))
            bigger = Inventory(list(inv.constructions) + [extra])
            before = set(match_sentence(build_index(inv), s, 1))
            after = set(match_sentence(build_index(bigger), s, 1))
            assert before <= after


def random_corpus(rng, planted_gap: int, cases: int = 30):
    """One inventory and corpus from `cases` random matcher cases: each
    case's constructions join the inventory under new ids (a repeated
    slot sequence only once), and its sentence gets the case number as
    its id."""
    constructions, seen, corpus = [], set(), []
    for case in range(cases):
        inv, s = random_matcher_case(rng, planted_gap)
        for con in inv:
            if con.slots not in seen:
                seen.add(con.slots)
                constructions.append(Construction(100 * case + con.cxg_id, con.slots))
        corpus.append(from_tokens(case, 0, case, s.tokens))
    return Inventory(constructions), corpus


class TestTableOracle:
    """The table, written through `match_corpus`, is checked against the
    oracle on its own, over whole corpora and up to gaps as long as a
    sentence."""

    @pytest.mark.parametrize("max_gap", [0, 1, 2, 3, "sentence length"])
    def test_table_agrees_with_brute_force(self, max_gap):
        rng = random.Random(f"table-{max_gap}")
        if max_gap == "sentence length":
            inv, corpus = random_corpus(rng, 4)
            max_gap = max(len(s.forms) for s in corpus)
        else:
            inv, corpus = random_corpus(rng, max_gap)
        # and two sentences no construction matches
        corpus += [sent(sid, [("zz", "X", 99)] * 5, pos=sid) for sid in (100, 101)]
        expected = {
            s.sentence_id: cxg_ids(brute_force_match(inv, s, max_gap)) for s in corpus
        }
        assert any(expected.values())
        table = match_corpus(build_index(inv), corpus, max_gap)
        assert {sid: table.constructions_of(sid) for sid in expected} == expected
        assert table.discarded == [sid for sid, cids in expected.items() if not cids]

    def test_huge_max_gap_is_bounded_by_sentence_length(self):
        # verification shifts at most as far as the sentence is long, so a
        # gap of 10**9 costs what a gap of 39 does and finds the same
        inv, corpus = random_corpus(random.Random(40), 2, cases=8)
        tokens = [t for s in corpus for t in s.tokens][:40]
        tokens[0] = tokens[0]._replace(form="first")
        tokens[-1] = tokens[-1]._replace(form="last")
        s = from_tokens(0, 0, 0, tokens)
        inv = Inventory(list(inv.constructions) + [
            Construction(10_000, (S("LEX", "first"), S("LEX", "last"))),
        ])
        index = build_index(inv)
        wide = match_sentence(index, s, 39)
        assert 10_000 in wide and 10_000 not in match_sentence(index, s, 37)
        assert wide == cxg_ids(brute_force_match(inv, s, 39))
        assert match_sentence(index, s, 10**9) == wide
        table = match_corpus(index, [s], 10**9)
        assert table.constructions_of(0) == wide
        assert match_corpus(index, [s], 39).reverse == table.reverse

    def test_negative_max_gap_is_refused(self):
        # twice: the shift steps are memoised, and a refusal must not be cached
        inv = Inventory([Construction(0, (S("LEX", "a"), S("LEX", "b")))])
        index = build_index(inv)
        for _ in range(2):
            with pytest.raises(ValueError, match="max_gap"):
                match_sentence(index, sent(0, [("a", "X"), ("b", "X")]), -1)

    @pytest.mark.parametrize("max_gap", [0, 1, 2, 3])
    def test_long_sentences_agree_with_brute_force(self, max_gap):
        # Sentences of 65-200 tokens, so masks run past bits 64 and 128:
        # construction 10_000 is planted at position 64 or later, 10_001
        # at 128 or later, with gaps up to one token wider than max_gap.
        rng = random.Random(f"long-{max_gap}")
        inv, short = random_corpus(rng, max_gap, cases=12)
        far = [Construction(10_000, (S("LEX", "far64"), S("POS", "NOUN"), S("LEX", "end64"))),
               Construction(10_001, (S("LEX", "far128"), S("LEX", "end128")))]
        inv = Inventory(list(inv.constructions) + far)
        pool = [t for s in short for t in s.tokens]
        corpus = []
        for sid in range(12):
            tokens = [rng.choice(pool) for _ in range(rng.randrange(65, 201))]
            for con, lo in zip(far, (64, 128)):
                planted = []
                for i, slot in enumerate(con.slots):
                    if i:
                        planted += [rng.choice(pool) for _ in range(rng.randrange(max_gap + 2))]
                    form = slot.value if slot.kind == "LEX" else "w0"
                    planted.append(Token(form, "NOUN", None))
                if len(tokens) - len(planted) >= lo:
                    at = rng.randrange(lo, len(tokens) - len(planted) + 1)
                    tokens[at:at + len(planted)] = planted
            corpus.append(from_tokens(sid, 0, sid, tokens))
        expected = {s.sentence_id: cxg_ids(brute_force_match(inv, s, max_gap)) for s in corpus}
        for cid in (10_000, 10_001):
            assert any(cid in ids for ids in expected.values())
            assert not all(cid in ids for ids in expected.values())
        index = build_index(inv)
        assert {s.sentence_id: match_sentence(index, s, max_gap) for s in corpus} == expected
        table = match_corpus(index, corpus, max_gap)
        assert {sid: table.constructions_of(sid) for sid in expected} == expected
        assert table.discarded == [sid for sid, cids in expected.items() if not cids]


class TestMatchCorpus:
    def test_single_membership_reverse(self):
        inv = Inventory([
            Construction(0, (S("LEX", "aa"), S("LEX", "bb"))),
            Construction(1, (S("LEX", "cc"), S("LEX", "dd"))),
        ])
        corpus = [
            sent(0, [("aa", "X"), ("bb", "X")]),
            sent(1, [("cc", "X"), ("dd", "X")], pos=1),
        ]
        table = match_corpus(build_index(inv), corpus, 0)
        assert all(len(v) == 1 for v in table.reverse.values())

    def test_transpose_and_discards(self, desk, desk_table):
        assert is_transpose_consistent(desk_table)
        matched = set(desk_table.sentence_ids)
        discarded = set(desk_table.discarded)
        assert matched.isdisjoint(discarded)
        assert len(matched) + len(discarded) == len(desk.sentences)

    def test_reverse_is_built_on_first_use(self, tmp_path, desk_table):
        desk_table.write(tmp_path / "table.tsv", tmp_path / "discards.txt")
        loaded = OccurrenceTable.read(tmp_path / "table.tsv")
        assert loaded.sentence_ids == desk_table.sentence_ids == sorted(desk_table.reverse)
        assert "reverse" not in vars(loaded)  # neither reading nor sentence_ids built it
        assert is_transpose_consistent(loaded)
        assert loaded.reverse == desk_table.reverse and loaded.reverse is loaded.reverse

    def test_matched_reverse_equals_the_one_built_on_demand(self, desk):
        index = build_index(desk.inventory)
        table = match_corpus(index, desk.sentences, max_gap=1)
        assert "reverse" not in vars(table)  # match_corpus builds no transpose
        matched = {s.sentence_id: match_sentence(index, s, 1) for s in desk.sentences}
        expected = {sid: cids for sid, cids in sorted(matched.items()) if cids}
        assert table.sentence_ids == list(expected)
        assert is_transpose_consistent(table)
        assert list(table.reverse.items()) == list(expected.items())

    def test_round_trip_serialization(self, tmp_path, desk_table):
        table_path = tmp_path / "table.tsv"
        discards_path = tmp_path / "discards.txt"
        desk_table.write(table_path, discards_path)
        loaded = read_table(table_path, discards_path)
        assert loaded.forward == desk_table.forward
        assert loaded.reverse == desk_table.reverse
        assert loaded.discarded == desk_table.discarded


class TestOccurrenceStats:
    def test_single_band_when_frequencies_equal(self):
        table = OccurrenceTable({0: [1, 2, 3], 1: [4, 5, 6]})
        stats = occurrence_stats(table, (2, 5, 10))
        assert [b.count for b in stats.bands] == [2, 0, 0]

    def test_inclusive_bounds(self):
        table = OccurrenceTable({0: list(range(2)), 1: list(range(5)), 2: list(range(6))})
        stats = occurrence_stats(table, (2, 5))
        assert stats.bands[0].count == 2  # freq 2 and freq 5 both inside [2, 5]
        assert stats.bands[1].count == 1  # freq 6 in [6, inf)

    def test_below_min_reported_separately(self):
        table = OccurrenceTable({0: [], 1: [9], 2: [1, 2]})
        stats = occurrence_stats(table, (2, 10))
        assert stats.below_min == 2
        assert stats.bands[0].count == 1

    def test_bands_from_edges(self):
        assert bands_from_edges((2, 50, 100)) == [(2, 50), (51, 100), (101, None)]

    def test_desk_recount_oracle(self, desk_table):
        stats = occurrence_stats(desk_table, (2, 50, 100, 1000, 10000))
        freqs = list(desk_table.frequencies().values())
        for band in stats.bands:
            expected = sum(
                1 for f in freqs if f >= band.lo and (band.hi is None or f <= band.hi)
            )
            assert band.count == expected
