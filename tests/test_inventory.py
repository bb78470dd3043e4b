import random

import pytest

from cxgcorpus import inventory as inventory_module
from cxgcorpus.errors import ParseError
from cxgcorpus.inventory import (
    Construction,
    Inventory,
    SlotConstraint,
    facets_of,
    induce_inventory,
    load_inventory,
    parse_construction_spec,
    render_name,
    write_inventory,
)
from cxgcorpus.matcher import build_index, match_corpus

from helpers import S, freq, sent


class TestParseSpec:
    def test_mixed_slots(self):
        con = parse_construction_spec("7\tpos:PRON lex:didn't pos:VERB lex:how")
        assert con.cxg_id == 7
        assert len(con.slots) == 4
        assert con.name == "PRON + didn't + VERB + how"

    def test_three_slots(self):
        con = parse_construction_spec("8\tpos:AUX lex:be pos:VERB")
        assert len(con.slots) == 3

    def test_too_short(self):
        with pytest.raises(ParseError, match="minimum is 2"):
            parse_construction_spec("9\tlex:hi")

    def test_unknown_prefix_reports_column(self):
        with pytest.raises(ParseError, match="column 3"):
            parse_construction_spec("9\tfoo:bar lex:x")

    def test_bad_tag(self):
        with pytest.raises(ParseError, match="unknown POS tag"):
            parse_construction_spec("9\tpos:BLORP lex:x")

    def test_bad_sem(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_construction_spec("9\tsem:abc lex:x")

    def test_slot_equals_and_hashes_as_its_facet(self):
        assert SlotConstraint("LEX", "a") == ("LEX", "a")
        assert hash(SlotConstraint("LEX", "a")) == hash(("LEX", "a"))


class TestRenderName:
    def test_table_style(self):
        con = Construction(0, (S("POS", "PRON"), S("LEX", "didn't"), S("POS", "VERB"), S("LEX", "how")))
        assert render_name(con) == "PRON + didn't + VERB + how"

    def test_sem_rendering(self):
        con = Construction(0, (S("SEM", 3), S("POS", "NOUN")))
        assert render_name(con) == "SEM3 + NOUN"

    def test_slot_change_changes_name(self):
        a = Construction(0, (S("LEX", "a"), S("POS", "NOUN")))
        b = Construction(0, (S("LEX", "a"), S("POS", "VERB")))
        assert render_name(a) != render_name(b)


class TestLoadInventory:
    def test_load_three(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n1\tlex:b pos:NOUN\n2\tpos:DET pos:NOUN\n")
        inv = load_inventory(p)
        assert len(inv) == 3

    def test_duplicate_slot_sequence_rejected(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n1\tlex:a pos:NOUN\n")
        with pytest.raises(ParseError, match="0 and 1"):
            load_inventory(p)

    def test_line_error_reports_line(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n1\tlex:only\n")
        with pytest.raises(ParseError, match="2"):
            load_inventory(p)

    def test_bad_tag_first_seen_late_reports_its_line_and_column(self, tmp_path):
        # The pieces of lines 1-2 are parsed once and reused on line 3.
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n1\tlex:b pos:NOUN\n2\tlex:a pos:BLORP\n")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == f"{p}:3: column 9: unknown POS tag 'BLORP'"

    def test_bad_piece_after_repeated_piece_reports_its_column(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n11\tlex:a  lex:a sem:x\n")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == f"{p}:2: column 17: sem id 'x' is not an integer"

    def test_duplicate_id_rejected(self, tmp_path):
        # reported at its line, before the error of a later line
        p = tmp_path / "inv.tsv"
        p.write_text("0\tlex:a pos:NOUN\n\n0\tlex:b pos:NOUN\n1\tlex:only\n")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == f"{p}:3: duplicate cxg_id 0"

    def test_sem_spellings_give_one_slot_sequence(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("0\tsem:7 pos:NOUN\n1\tsem:07 pos:NOUN\n2\tsem:x pos:NOUN\n")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == f"{p}:2: constructions 0 and 1 have identical slot sequences"

    def test_non_decimal_sem_digit_is_refused(self, tmp_path):
        # '²' is a digit to str.isdigit but no int to int()
        with pytest.raises(ParseError, match="sem id '²' is not an integer"):
            parse_construction_spec("9\tsem:² lex:x")
        p = tmp_path / "inv.tsv"
        p.write_text("0\tsem:² pos:NOUN\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == f"{p}:1: column 3: sem id '²' is not an integer"

    @pytest.mark.parametrize("head", ["+8", "-3", "7_0", " 8", "08", "\u0663", "8 ", ""])
    def test_non_canonical_id_is_refused(self, head, tmp_path):
        # int() would read all but the last as 8, -3, 70, 8, 8, 3 and 8
        p = tmp_path / "inv.tsv"
        p.write_text(f"0\tlex:a pos:NOUN\n{head}\tlex:b pos:NOUN\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_inventory(p)
        assert str(exc.value) == (
            f"{p}:2: cxg_id {head!r} is not ASCII digits without a sign or leading zero")

    def test_write_load_identity(self, tmp_path):
        inv = Inventory([
            Construction(3, (S("LEX", "didn't"), S("POS", "VERB"))),
            Construction(1, (S("SEM", 2), S("POS", "NOUN"), S("LEX", "how"))),
            Construction(2, (S("POS", "VERB"), S("LEX", "how"), S("POS", "VERB"))),
        ])
        p = tmp_path / "inv.tsv"
        write_inventory(inv, p)
        loaded = load_inventory(p)
        assert {c.cxg_id: c.slots for c in loaded} == {c.cxg_id: c.slots for c in inv}
        again = tmp_path / "again.tsv"
        write_inventory(loaded, again)
        assert again.read_bytes() == p.read_bytes()


def test_write_of_load_gives_back_a_canonical_file(tmp_path):
    # random canonical, id-sorted files: the ids, the slot texts (sem ids
    # without a leading zero, single spaces) and the line order come back
    rng = random.Random(1903)
    pool = [f"lex:{w}" for w in ("a", "didn't", "caf\u00e9", "\u0663", "x_y", "B.")] + [
        "pos:NOUN", "pos:VERB", "pos:PUNCT", "sem:0", "sem:7", "sem:12"]
    for case in range(50):
        ids = sorted(rng.sample(range(10 ** rng.randrange(1, 5)), rng.randrange(1, 10)))
        lines, seen = [], set()
        for cxg_id in ids:
            pieces = tuple(rng.choice(pool) for _ in range(rng.randrange(2, 5)))
            if pieces not in seen:
                seen.add(pieces)
                lines.append(f"{cxg_id}\t" + " ".join(pieces) + "\n")
        src, out = tmp_path / f"in{case}.tsv", tmp_path / f"out{case}.tsv"
        src.write_text("".join(lines), encoding="utf-8")
        write_inventory(load_inventory(src), out)
        assert out.read_bytes() == src.read_bytes()


def _inventory_file(path, rng):
    """A generated inventory file whose slot texts repeat across lines,
    with both `sem:7` and `sem:07`, a blank line and doubled spaces."""
    pool = (
        [f"lex:w{i}" for i in range(12)] + ["pos:NOUN", "pos:VERB", "pos:DET"]
        + ["sem:7", "sem:07", "sem:3", "sem:003"]
    )
    lines, seen = [], set()
    while len(lines) < 300:
        pieces = [rng.choice(pool) for _ in range(rng.randrange(2, 5))]
        slots = tuple(parse_construction_spec("0\t" + " ".join(pieces)).slots)
        if slots not in seen:
            seen.add(slots)
            lines.append(f"{len(lines) * 3 + 1}\t" + rng.choice((" ", "  ")).join(pieces))
    lines.insert(100, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCompiledForm:
    """load_inventory compiles the file straight into facet ids."""

    def test_index_from_file_equals_index_from_constructions(self, tmp_path):
        p = tmp_path / "inv.tsv"
        _inventory_file(p, random.Random(15))
        inv = load_inventory(p)
        assert len(inv) == 300
        assert S("SEM", 7) in inv.facets and ("SEM", "07") not in inv.facets
        assert Inventory(list(inv.constructions)) == inv
        from_file = build_index(inv)
        rebuilt = build_index(Inventory(list(inv.constructions)))
        # the index matches on the inventory's own LEX and POS maps
        maps = inv.facet_maps
        assert from_file._lex is maps["LEX"] and from_file._pos is maps["POS"]
        # every facet id sits in exactly one kind's map, and the ids
        # number the facets in order of first use
        ids = [fid for kind_map in maps.values() for fid in kind_map.values()]
        assert sorted(ids) == list(range(len(inv.facets)))
        specs = [parse_construction_spec(line)
                 for line in p.read_text("utf-8").splitlines() if line]
        assert inv.facets == list(dict.fromkeys(s for con in specs for s in con.slots))
        assert facets_of(from_file._maps) == facets_of(rebuilt._maps)
        assert list(from_file._checks.items()) == list(rebuilt._checks.items())
        assert from_file._anchor == rebuilt._anchor
        assert list(from_file.entries.items()) == list(rebuilt.entries.items())

    def test_unknown_slot_kind_is_refused(self):
        # its slot would match nothing, and write_inventory would write a
        # line that load_inventory refuses
        con = Construction(0, (S("LEX", "a"), S("TAG", "NOUN")))
        with pytest.raises(ParseError, match="^slot kind 'TAG' is none of LEX, POS, SEM$"):
            Inventory([con])
        inv = Inventory()
        with pytest.raises(ParseError, match="^slot kind 'lex' is none of LEX, POS, SEM$"):
            inv.facet_id("lex", "a")
        assert inv.facets == [] and inv.facet_id("POS", "NOUN") == 0

    def test_match_path_builds_no_construction(self, tmp_path, monkeypatch):
        p = tmp_path / "inv.tsv"
        _inventory_file(p, random.Random(16))

        def refuse(*args):
            raise AssertionError("a Construction or a SlotConstraint was built")

        monkeypatch.setattr(inventory_module, "Construction", refuse)
        monkeypatch.setattr(inventory_module, "SlotConstraint", refuse)
        index = build_index(load_inventory(p))
        assert index.size == 300


def _corpus_of_repeats(n, forms_tags):
    out = []
    for sid in range(n):
        out.append(sent(sid, forms_tags, aid=0, pos=sid))
    return out


class TestInduction:
    def test_repeated_sentence_yields_lexical_candidate(self):
        corpus = _corpus_of_repeats(10, [("big", "ADJ"), ("red", "ADJ"), ("dog", "NOUN")])
        inv = induce_inventory(corpus, max_len=3, min_support=5, min_assoc=0.0, max_inventory=100)
        slotseqs = {c.slots for c in inv}
        assert (S("LEX", "big"), S("LEX", "red"), S("LEX", "dog")) in slotseqs

    def test_unseen_adjacency_absent(self):
        corpus = _corpus_of_repeats(10, [("a", "DET"), ("b", "NOUN")])
        inv = induce_inventory(corpus, max_len=2, min_support=2, min_assoc=-1.0, max_inventory=100)
        # "b" never precedes "a"
        assert (S("LEX", "b"), S("LEX", "a")) not in {c.slots for c in inv}

    def test_small_corpus_gives_empty_inventory(self):
        corpus = _corpus_of_repeats(2, [("a", "DET"), ("b", "NOUN")])
        with pytest.warns(UserWarning, match=r"empty inventory \(2 sentences, min_support=5\)"):
            inv = induce_inventory(corpus, max_len=2, min_support=5, min_assoc=0.0)
        assert len(inv) == 0

    def test_deterministic(self):
        rng = random.Random(5)
        corpus = []
        words = [(f"w{i}", t) for i, t in enumerate(["NOUN", "VERB", "ADJ"] * 10)]
        for sid in range(120):
            toks = [rng.choice(words) for _ in range(8)]
            corpus.append(sent(sid, toks, aid=0, pos=sid))
        params = dict(max_len=3, min_support=3, min_assoc=0.05, max_inventory=40)
        a = induce_inventory(corpus, **params)
        b = induce_inventory(corpus, **params)
        assert [c.slots for c in a] == [c.slots for c in b]

    @staticmethod
    def _planted_corpus():
        """250 filler sentences plus 5 templates planted 50 times each;
        the planting script is the ground-truth oracle."""
        rng = random.Random(99)
        filler_words = [(f"f{i:02d}", ["NOUN", "VERB", "ADJ"][i % 3], i % 6) for i in range(60)]
        templates = []
        for t in range(5):
            templates.append([
                (f"t{t}a", "NOUN", (t + 1) % 6),
                (f"t{t}b", "VERB", (t + 2) % 6),
                (f"t{t}c", "NOUN", (t + 3) % 6),
            ])
        corpus = []
        sid = 0
        for template in templates:
            for _ in range(50):
                toks = (
                    [rng.choice(filler_words) for _ in range(2)]
                    + template
                    + [rng.choice(filler_words) for _ in range(2)]
                )
                corpus.append(sent(sid, toks, aid=0, pos=sid))
                sid += 1
        for _ in range(250):
            toks = [rng.choice(filler_words) for _ in range(7)]
            corpus.append(sent(sid, toks, aid=0, pos=sid))
            sid += 1
        expected = {
            tuple(S("LEX", form) for form, _, _ in template) for template in templates
        }
        return corpus, expected

    def test_planted_templates_recovered_in_top20(self):
        corpus, expected = self._planted_corpus()
        inv = induce_inventory(corpus, max_len=3, min_support=40, min_assoc=0.3, max_inventory=50)
        top20 = {c.slots for c in inv.constructions[:20]}
        assert expected <= top20

    def test_min_support_met_when_rematched(self):
        corpus, _ = self._planted_corpus()
        inv = induce_inventory(corpus, max_len=3, min_support=40, min_assoc=0.3, max_inventory=50)
        assert len(inv) > 0
        table = match_corpus(build_index(inv), corpus, max_gap=0)
        for con in inv:
            assert freq(table, con.cxg_id) >= 40


class TestInventoryInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            Inventory([
                Construction(0, (S("LEX", "a"), S("LEX", "b"))),
                Construction(0, (S("LEX", "c"), S("LEX", "d"))),
            ])

    def test_params_validation(self):
        with pytest.raises(ParseError, match="^max_len must be >= 2$"):
            induce_inventory([], max_len=1)
        with pytest.raises(ParseError, match="^min_support must be >= 2$"):
            induce_inventory([], min_support=1)
        with pytest.raises(ParseError, match="^max_inventory must be positive$"):
            induce_inventory([], max_inventory=0)
