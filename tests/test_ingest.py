import builtins
import io
import random
from collections import Counter
from pathlib import Path

import pytest

import cxgcorpus
from cxgcorpus import ingest
from cxgcorpus.errors import DecodeError, ParseError
from cxgcorpus.ingest import (
    ABBREVIATIONS,
    DEFAULT_TAG,
    UNIVERSAL_TAGS,
    AnnotatedSentence,
    AnnotationResources,
    Token,
    annotate_corpus,
    iter_raw_lines,
    parse_wikitext,
    read_annotated,
    split_sentences,
    tag_pos,
    tokenize,
    write_annotated,
)
from cxgcorpus.inventory import parse_construction_spec
from cxgcorpus.workspace import read_lines

from helpers import from_tokens, load_annotated_file, split_line_reference

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def resources():
    return AnnotationResources.default()


class TestParseWikitext:
    def test_two_headings_two_articles(self):
        stream = " = One = \nalpha beta.\n = Two = \ngamma.\n"
        arts = list(parse_wikitext(stream))
        assert [a for a, _ in arts] == [0, 1]
        assert "alpha" in arts[0][1] and "gamma" in arts[1][1]

    def test_empty_stream(self):
        assert list(parse_wikitext("")) == []

    def test_heading_lines_not_emitted(self):
        arts = list(parse_wikitext(" = T = \nbody\n"))
        assert len(arts) == 1
        assert "= T =" not in arts[0][1]

    def test_empty_articles_dropped(self):
        stream = " = A = \n\n = B = \ncontent\n"
        arts = list(parse_wikitext(stream))
        assert len(arts) == 1
        assert arts[0][0] == 0

    def test_subheadings_are_content(self):
        stream = " = A = \n = = Section = = \ntext\n"
        arts = list(parse_wikitext(stream))
        assert len(arts) == 1
        assert "Section" in arts[0][1]

    def test_decode_error_names_byte_offset(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"good line\n\xff\xfe broken\n")
        with pytest.raises(DecodeError, match="bad.txt:2: invalid UTF-8 at byte offset 10"):
            list(iter_raw_lines(p))

    def test_decode_error_past_the_first_64_kib(self, tmp_path):
        p = tmp_path / "bad.txt"
        good = "naïve café\n".encode("utf-8") * 8000  # 104,000 bytes
        p.write_bytes(good + b"tail \xc3(\n")
        with pytest.raises(DecodeError, match=f"byte offset {len(good) + 5}$"):
            list(iter_raw_lines(p))

    def test_lines_split_on_newline_only(self, tmp_path):
        p = tmp_path / "raw.txt"
        data = "a\rb\r\nc\u2028d\x0be\nlast".encode("utf-8")
        p.write_bytes(data)
        assert list(iter_raw_lines(p)) == ["a\rb\r\n", "c\u2028d\x0be\n", "last"]

    def test_structured_lines_lose_only_their_ending(self, tmp_path):
        p = tmp_path / "table.tsv"
        p.write_bytes("a\rb\r\nc\u2028d\x0be\n\nlast\r".encode("utf-8"))
        assert list(read_lines(p)) == [(1, "a\rb"), (2, "c\u2028d\x0be"), (3, ""), (4, "last")]
        p.write_bytes(b"one\ntwo\nt\xe9\n")
        with pytest.raises(DecodeError, match="table.tsv:3: invalid UTF-8 at byte offset 9$"):
            list(read_lines(p))


class TestSplitSentences:
    def test_simple_split(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_suppresses_split(self):
        assert split_sentences("Dr. Smith left.") == ["Dr. Smith left."]

    def test_no_split_before_lowercase(self):
        assert split_sentences("He left. and then") == ["He left. and then"]

    def test_degenerate_input_is_one_sentence(self):
        assert split_sentences("no punctuation at all") == ["no punctuation at all"]

    def test_boundary_recovery_on_gold_file(self):
        gold = (DATA / "sentence_boundaries.txt").read_text("utf-8").splitlines()
        assert len(gold) == 1000
        text = " ".join(gold)
        pred = split_sentences(text)
        pred_counts = Counter(pred)
        gold_counts = Counter(gold)
        recovered = sum(min(pred_counts[s], n) for s, n in gold_counts.items())
        assert recovered / len(gold) >= 0.97

    def test_equals_the_reference_loop_on_random_lines(self):
        # words that are and are not abbreviations, a titlecase letter
        # (not upper), and whitespace that only str.isspace knows
        pieces = [*sorted(ABBREVIATIONS)[::3], "U.S", "e.g", "He", "he", "\u01c5x", "A", "b",
                  ".", "!", "?", "...", "?!", " ", " ", "\xa0", "\x1c", "\t", "\u3000", "x."]
        rng = random.Random(1901)
        for _ in range(20000):
            line = "".join(rng.choices(pieces, k=rng.randrange(12)))
            assert ingest._split_line(line) == split_line_reference(line), repr(line)


class TestTokenize:
    def test_contraction_stays_whole(self):
        assert tokenize("She didn't understand how") == ["She", "didn't", "understand", "how"]

    def test_punctuation_detached(self):
        assert tokenize("a,b") == ["a", ",", "b"]

    def test_empty_sentence(self):
        assert tokenize("  ") == []

    def test_both_paths(self):
        # "Smith" and "." are pieces as they stand; the regex cuts the rest
        assert tokenize("Mr. Smith didn\u2019t stay, (at 9:30)!") == [
            "Mr", ".", "Smith", "didn\u2019t", "stay", ",", "(", "at", "9", ":", "30", ")", "!"]

    def test_equals_the_token_regex_on_random_strings(self):
        # word characters of several kinds (`_`, a letter with a combining
        # accent, an Arabic-Indic digit), both apostrophes, punctuation and
        # whitespace that only the Unicode whitespace test knows
        alphabet = ["a", "a", "Z", "0", "_", "\u00e9", "\u0301", "\u0663", "\u00df", "'", "\u2019",
                    ".", ",", "-", "!", "(", '"', " ", " ", "\t", "\xa0", "\x1c", "\x85",
                    "\u2028", "\u3000"]
        rng = random.Random(1902)
        for _ in range(100000):
            text = "".join(rng.choices(alphabet, k=rng.randrange(14)))
            assert tokenize(text) == ingest._TOKEN_RE.findall(text), repr(text)


class TestTagPos:
    def test_lexicon_lookup(self, resources):
        assert tag_pos(["didn't"], resources) == ["AUX"]

    def test_suffix_fallback(self, resources):
        assert "blicking" not in resources.pos_lexicon
        assert tag_pos(["blicking"], resources) == ["VERB"]

    def test_default_tag(self, resources):
        assert tag_pos(["zorkelblat"], resources) == ["NOUN"]

    def test_length_preserved(self, resources):
        toks = tokenize("The quick brown fox jumped, didn't it?")
        assert len(tag_pos(toks, resources)) == len(toks)

    def test_gold_agreement(self, resources):
        rows = [
            line.split("\t")
            for line in (DATA / "pos_gold.tsv").read_text("utf-8").splitlines()
        ]
        assert len(rows) == 1000
        forms = [r[0] for r in rows]
        golds = [r[1] for r in rows]
        tags = tag_pos(forms, resources)
        agreement = sum(a == b for a, b in zip(tags, golds)) / len(rows)
        assert agreement >= 0.85


class TestAnnotateCorpus:
    def test_raw_two_articles(self, resources):
        stream = " = A = \nFirst one. Second one.\n = B = \nThird one.\n"
        sents = list(annotate_corpus(stream, resources, "raw"))
        assert [s.article_id for s in sents] == [0, 0, 1]
        assert [s.sentence_id for s in sents] == [0, 1, 2]
        assert [s.position_in_article for s in sents] == [0, 1, 0]

    def test_pre_split_bypasses_splitter(self, resources):
        stream = " = A = \nMr. Smith came. And left.\n"
        sents = list(annotate_corpus(stream, resources, "pre-split"))
        assert len(sents) == 1

    def test_case_preserved(self, resources):
        sents = list(annotate_corpus(" = A = \nMixedCase words.\n", resources, "raw"))
        assert sents[0].tokens[0].form == "MixedCase"

    def test_pre_annotated_passthrough(self):
        # three rows, three one-token sentences, facets exactly as given
        tsv = "0\t0\t0\tHello\tINTJ\t-\n1\t0\t1\tworld\tNOUN\t4\n5\t1\t0\tBye\tINTJ\t-\n"
        sents = list(read_annotated(tsv))
        assert len(sents) == 3
        assert sents[0].tokens[0].form == "Hello" and sents[0].tokens[0].sem is None
        assert sents[1].tokens[0].sem == 4
        assert sents[2].sentence_id == 5

    def test_pre_annotated_multi_token_sentences(self):
        tsv = "0\t0\t0\tHello\tINTJ\t-\n0\t0\t0\tworld\tNOUN\t4\n\n5\t1\t0\tBye\tINTJ\t-\n"
        sents = list(read_annotated(tsv))
        assert len(sents) == 2
        assert [t.form for t in sents[0].tokens] == ["Hello", "world"]

    def test_pre_annotated_ids_are_read_as_integers(self):
        # `0` and `00` name one sentence; `07` and `7` one cluster
        tsv = "0\t0\t0\ta\tNOUN\t7\n00\t0\t0\tb\tVERB\t07\n0\t00\t000\tc\tDET\t-\n"
        sents = list(read_annotated(tsv))
        assert sents == [AnnotatedSentence(0, 0, 0, ["a", "b", "c"], ["NOUN", "VERB", "DET"],
                                           [7, 7, None])]

    def test_pre_annotated_bad_sem_fields(self):
        with pytest.raises(ParseError, match="line 2: bad sem field 'x'"):
            list(read_annotated("0\t0\t0\ta\tNOUN\t-\n0\t0\t0\tb\tNOUN\tx\n"))
        with pytest.raises(ParseError, match="line 1: negative cluster id -2"):
            list(read_annotated("0\t0\t0\ta\tNOUN\t-2\n"))

    def test_pre_annotated_bad_columns(self):
        with pytest.raises(ParseError, match="line 2"):
            list(read_annotated("0\t0\t0\ta\tNOUN\t-\n0\t0\t0\tb\tNOUN\n"))

    def test_pre_annotated_ids_must_increase(self):
        tsv = "3\t0\t0\ta\tNOUN\t-\n\n2\t0\t1\tb\tNOUN\t-\n"
        with pytest.raises(ParseError, match="strictly increasing"):
            list(read_annotated(tsv))

    def test_round_trip_identity(self, resources, tmp_path):
        stream = " = A = \nThe dog ran. A cat sat down.\n = B = \nBirds sing loudly.\n"
        original = list(annotate_corpus(stream, resources, "raw"))
        path = tmp_path / "annotated.tsv"
        write_annotated(original, path)
        reloaded = load_annotated_file(path)
        assert reloaded == original

    def test_tokens_view_gives_back_the_tokens(self):
        tokens = [Token("New York", "PROPN", 7), Token("is", "AUX"), Token("big", "ADJ", 3)]
        sentence = from_tokens(4, 1, 2, tokens)
        assert sentence.tokens == tuple(tokens)
        assert sentence.sems == [7, None, 3] and sentence.text == "New York is big"
        assert all(type(t) is Token for t in sentence.tokens)

    def test_unknown_mode(self, resources):
        with pytest.raises(ParseError):
            list(annotate_corpus("x", resources, "magic"))

    @pytest.mark.parametrize("mode, text, n", [
        # U+2028 before a heading: only a split there would make it one
        ("raw", " = A = \nThe dog ran.\u2028 = B = \nA cat\x85sat.\x0bIt\x1cran.\x0c\n", 3),
        ("pre-annotated", "0\t0\t0\ta\u2028b\tNOUN\t-\n0\t0\t0\tc\tNOUN\t-\n\n"
                          "1\t0\t1\td\x1ce\tNOUN\t-\n1\t0\t1\tf\x85\tNOUN\t-\n", 2),
    ], ids=["raw", "pre-annotated"])
    def test_str_and_file_split_into_the_same_lines(self, mode, text, n, resources, tmp_path):
        # a str is split at '\n' only, as iter_raw_lines splits a file
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        from_file = list(annotate_corpus(iter_raw_lines(path), resources, mode))
        assert list(annotate_corpus(text, resources, mode)) == from_file
        assert len(from_file) == n and {s.article_id for s in from_file} == {0}


class TestResources:
    def test_cluster_ids_contiguous(self):
        with pytest.raises(ParseError, match="contiguous"):
            AnnotationResources({}, [], {"a": 0, "b": 2})

    def test_suffix_rules_longest_first(self):
        res = AnnotationResources({}, [("s", "NOUN"), ("ness", "NOUN"), ("ing", "VERB")], {})
        assert [s for s, _ in res.suffix_rules] == ["ness", "ing", "s"]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError):
            AnnotationResources({"x": "BLORP"}, [], {})


def test_every_bundled_resource_is_read(monkeypatch):
    bundled = Path(cxgcorpus.__file__).parent / "resources"
    opened = set()
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        opened.add(Path(file).resolve())
        return real_open(file, *args, **kwargs)

    # Path.read_text and friends go through io.open, the builtin through builtins.open
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    AnnotationResources.default()
    bundled = bundled.resolve()
    assert {p for p in opened if p.parent == bundled} == set(bundled.iterdir())


def _accepts(parse) -> bool:
    try:
        parse()
    except ParseError:
        return False
    return True


@pytest.mark.parametrize("tag", [*sorted(UNIVERSAL_TAGS), "NN", "noun", "BLORP"])
def test_one_tag_set_for_annotation_and_inventory(tag):
    in_lexicon = _accepts(lambda: AnnotationResources({"dog": tag}, [], {}))
    in_suffix_rule = _accepts(lambda: AnnotationResources({}, [("s", tag)], {}))
    in_tsv = _accepts(lambda: list(read_annotated(f"0\t0\t0\tdog\t{tag}\t-\n")))
    in_slot = _accepts(lambda: parse_construction_spec(f"0\tpos:{tag} lex:ran"))
    assert in_lexicon == in_suffix_rule == in_tsv == in_slot == (tag in UNIVERSAL_TAGS)


def test_default_tag_is_in_the_tag_set():
    assert DEFAULT_TAG in UNIVERSAL_TAGS
