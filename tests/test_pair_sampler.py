import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cxgcorpus
from cxgcorpus.errors import EmptyBandError, InputError, ParseError
from cxgcorpus.matcher import OccurrenceTable
from cxgcorpus.pair_sampler import (
    QUOTAS,
    SPLITS,
    PairExample,
    Shortfall,
    _draw_negative_keys,
    _in_row,
    audit_pairs,
    make_inoculation_subsets,
    read_pairs,
    sample_pairs,
    write_pairs,
)

from helpers import (
    all_pairs, freq, pair_key, pairs_digest, reference_band, sampled_pair_cases,
)


def _splits(sampled):
    return {"train": sampled.train, "dev": sampled.dev, "test": sampled.test}


@pytest.fixture(scope="module")
def desk_pairs(desk_table):
    return sample_pairs(desk_table, (2, 10000), 17, "anchor")


class TestQuotas:
    def test_two_instance_construction_shortfall(self):
        # one tiny construction in a universe big enough for negatives
        forward = {0: [1, 2]}
        forward.update({i: list(range(10, 20)) for i in range(1, 4)})
        table = OccurrenceTable(forward)
        sampled = sample_pairs(table, (2, 2), 0, "anchor")
        positives = [p for p in all_pairs(sampled) if p.label == "same"]
        assert len(positives) == 1  # C(2,2) = 1
        assert any(s.cxg_id == 0 for s in sampled.shortfalls)

    def test_full_quotas_for_five_instances(self, desk_table):
        sampled = sample_pairs(desk_table, (2, 10000), 3, "anchor")
        shortfall_ids = {s.cxg_id for s in sampled.shortfalls}
        for cid in desk_table.forward:
            if not (2 <= freq(desk_table, cid) <= 10000):
                continue
            if freq(desk_table, cid) >= 5:
                assert cid not in shortfall_ids
                train = [p for p in sampled.train if p.anchor_cxg == cid]
                assert sum(p.label == "same" for p in train) == 2
                assert sum(p.label == "different" for p in train) == 2
                for split in (sampled.dev, sampled.test):
                    mine = [p for p in split if p.anchor_cxg == cid]
                    assert sum(p.label == "same" for p in mine) == 1
                    assert sum(p.label == "different" for p in mine) == 1

    def test_empty_band_is_error(self, desk_table):
        with pytest.raises(EmptyBandError):
            sample_pairs(desk_table, (99990, 99999), 0, "anchor")

    def test_canonical_ordering_and_labels(self, desk_pairs, desk_table):
        sampled = desk_pairs
        for pair in all_pairs(sampled):
            assert pair.sent_a < pair.sent_b
            members = [
                pair.anchor_cxg in desk_table.constructions_of(pair.sent_a),
                pair.anchor_cxg in desk_table.constructions_of(pair.sent_b),
            ]
            if pair.label == "same":
                assert all(members)
            else:
                assert sum(members) == 1

    def test_deterministic(self, desk_table):
        a = sample_pairs(desk_table, (2, 50), 5, "anchor")
        b = sample_pairs(desk_table, (2, 50), 5, "anchor")
        assert all_pairs(a) == all_pairs(b)
        c = sample_pairs(desk_table, (2, 50), 6, "anchor")
        assert all_pairs(a) != all_pairs(c)

    def test_unknown_strictness_refused(self, desk_table):
        with pytest.raises(ParseError, match="^unknown strictness 'disjont'$"):
            sample_pairs(desk_table, (2, 50), 1, "disjont")

    def test_no_negative_draw_when_the_instances_cover_the_universe(self):
        # row 0 lists every sentence of the table, so no sentence can be
        # its partner: no draw is made, and the sampled pairs are the ones
        # drawn when the whole draw budget was spent first
        table = OccurrenceTable({0: list(range(10)), 1: list(range(5))})
        rng = random.Random(0)
        state = rng.getstate()
        instances = table.forward[0]
        assert _draw_negative_keys(
            instances, set(instances), table.sentence_ids, table, "anchor", 4, rng, set()) == []
        assert rng.getstate() == state
        sampled = sample_pairs(table, (2, None), 0, "anchor")
        rows = {name: [(p.sent_a, p.sent_b, p.label[0], p.anchor_cxg) for p in sampled.split(name)]
                for name in SPLITS}
        assert rows == {
            "train": [(1, 2, "s", 0), (5, 9, "s", 0), (1, 4, "s", 1), (1, 3, "s", 1),
                      (3, 6, "d", 1), (2, 9, "d", 1)],
            "dev": [(6, 8, "s", 0), (0, 3, "s", 1), (1, 9, "d", 1)],
            "test": [(2, 4, "s", 0), (0, 1, "s", 1), (2, 8, "d", 1)],
        }
        assert {(p.band_lo, p.band_hi) for p in all_pairs(sampled)} == {(2, None)}
        assert sampled.shortfalls == [
            Shortfall(0, "train", 4, 2), Shortfall(0, "dev", 2, 1), Shortfall(0, "test", 2, 1)]

    def test_disjoint_strictness_sound_or_shortfall(self, desk_table):
        # on the desk corpus generic patterns cover nearly every
        # sentence, so disjoint negatives are mostly infeasible: that
        # must surface as shortfall entries, never as an error
        sampled = sample_pairs(desk_table, (2, 50), 1, "disjoint")
        for pair in all_pairs(sampled):
            if pair.label == "different":
                shared = set(desk_table.constructions_of(pair.sent_a)) & set(
                    desk_table.constructions_of(pair.sent_b)
                )
                assert not shared
        assert sampled.shortfalls


class TestAudit:
    def test_fresh_sample_passes(self, desk_pairs, desk_table):
        sampled = desk_pairs
        report = audit_pairs(_splits(sampled), desk_table, "anchor")
        assert report.ok, report.summary()

    def test_unknown_strictness_refused(self, desk_pairs, desk_table):
        # a misspelt "disjoint" would audit anchor-style pairs as sound
        sampled = desk_pairs
        with pytest.raises(ParseError, match="^unknown strictness 'disjont'$"):
            audit_pairs(_splits(sampled), desk_table, "disjont")

    def test_flipped_label_reported(self, desk_pairs, desk_table):
        sampled = desk_pairs
        splits = _splits(sampled)
        bad = splits["train"][0]._replace(
            label="different" if splits["train"][0].label == "same" else "same",
        )
        tampered = dict(splits)
        tampered["train"] = [bad] + splits["train"][1:]
        report = audit_pairs(tampered, desk_table, "anchor")
        assert len(report.violations) == 1

    def test_cross_split_leak_reported(self, desk_pairs, desk_table):
        sampled = desk_pairs
        splits = _splits(sampled)
        tampered = dict(splits)
        tampered["test"] = splits["test"] + [splits["train"][0]]
        report = audit_pairs(tampered, desk_table, "anchor")
        assert report.leaks and report.duplicates

    def test_no_duplicates_across_splits(self, desk_pairs):
        sampled = desk_pairs
        keys = [pair_key(p) for p in all_pairs(sampled)]
        assert len(keys) == len(set(keys))

    def test_row_membership_equals_set_membership(self):
        # the audit finds a sentence in its anchor's row by binary search:
        # ids below the first, above the last, at both ends of a row and
        # inside its gaps are found exactly when the row's set holds them
        rng = random.Random(21)
        for _ in range(200):
            row = sorted(rng.sample(range(1, 60), rng.randrange(13)))
            members = set(row)
            assert [sid for sid in range(-1, 62) if _in_row(row, sid)] == [
                sid for sid in range(-1, 62) if sid in members]

    # rows 0 and 1 are disjoint, so every pair below is labelled soundly
    _TABLE = OccurrenceTable({0: [1, 2, 3], 1: [4, 5, 6]})

    def _audit(self, **splits):
        report = audit_pairs({name: splits.get(name, []) for name in SPLITS},
                             self._TABLE, "disjoint")
        assert report.violations == []
        return report.duplicates, report.leaks

    def test_pair_twice_in_one_split_is_a_duplicate_and_no_leak(self):
        same = PairExample(1, 2, "same", 0, 2, None)
        assert self._audit(train=[same, same._replace(sent_a=2, sent_b=1)]) == ([(1, 2)], [])

    def test_pair_in_two_splits_is_a_duplicate_and_a_leak(self):
        different = PairExample(3, 4, "different", 0, 2, None)
        assert self._audit(train=[different], test=[different]) == ([(3, 4)], [(3, 4)])

    def test_three_copies_over_two_splits_are_listed_once(self):
        same = PairExample(5, 6, "same", 1, 2, None)
        assert self._audit(train=[same, same], dev=[same]) == ([(5, 6)], [(5, 6)])

    def test_duplicates_and_leaks_in_key_order(self):
        a, b, c = (PairExample(5, 6, "same", 1, 2, None), PairExample(1, 3, "same", 0, 2, None),
                   PairExample(2, 4, "different", 1, 2, None))
        duplicates, leaks = self._audit(train=[a, b, c, a], dev=[c], test=[b, c])
        assert duplicates == [(1, 3), (2, 4), (5, 6)] and leaks == [(1, 3), (2, 4)]


def test_sampled_pairs_agree_with_the_table_rows():
    """300 seeded small tables (helpers.random_build_case) under both
    strictness values, checked against the table's forward rows alone:
    every label holds on its anchor's row (and `disjoint` pairs share no
    row), no pair key repeats across the splits, each construction's
    delivered pairs and shortfall make up each split's quota, the audit
    passes, and an empty band raises EmptyBandError. The sampled pairs
    do not depend on the order of the table's rows or on the hash seed:
    two subprocesses, under other hash seeds and with the rows of every
    table shuffled, give the digest of the cases sampled here."""
    seeds = range(300)
    code = ("import sys, helpers; print(helpers.pairs_digest(helpers.sampled_pair_cases("
            "range(int(sys.argv[1])), shuffle=int(sys.argv[2]))))")
    path = os.pathsep.join([str(Path(cxgcorpus.__file__).parents[1]), str(Path(__file__).parent)])
    digests = [subprocess.Popen(
        [sys.executable, "-c", code, str(len(seeds)), hash_seed],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
    ) for hash_seed in ("1", "2")]
    try:
        cases = list(sampled_pair_cases(seeds))
    finally:
        runs = []
        for proc in digests:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            runs.append((out, err, proc.returncode))
    seen = Counter(dict.fromkeys(
        ("empty band", "disjoint different", "shortfall", "full quotas"), 0))
    for table, band, seed, strictness, sampled in cases:
        selected = reference_band(table, band)
        if not selected:
            assert sampled is None  # sample_pairs raised EmptyBandError
            seen["empty band"] += 1
            continue
        rows = {cid: set(sids) for cid, sids in table.forward.items()}
        keys = set()
        delivered = Counter()
        for name in SPLITS:
            for pair in sampled.split(name):
                a, b, row = pair.sent_a, pair.sent_b, rows[pair.anchor_cxg]
                assert pair.anchor_cxg in selected and (pair.band_lo, pair.band_hi) == band
                if pair.label == "same":
                    assert a in row and b in row
                else:
                    assert pair.label == "different" and (a in row) != (b in row)
                    if strictness == "disjoint":
                        assert not any(a in other and b in other for other in rows.values())
                        seen["disjoint different"] += 1
                assert a < b and (a, b) not in keys
                keys.add((a, b))
                delivered[pair.anchor_cxg, name] += 1
                delivered[pair.anchor_cxg, name, pair.label] += 1
        short = {}
        for s in sampled.shortfalls:
            assert s.requested == sum(QUOTAS[s.split]) and s.delivered < s.requested
            short[s.cxg_id, s.split] = s.requested - s.delivered
        assert len(short) == len(sampled.shortfalls)
        assert {key[:2] for key in delivered} | set(short) <= {
            (cid, name) for cid in selected for name in SPLITS}
        for cid in selected:
            for name in SPLITS:
                assert delivered[cid, name] + short.get((cid, name), 0) == sum(QUOTAS[name])
                assert delivered[cid, name, "same"] <= QUOTAS[name][0]
                assert delivered[cid, name, "different"] <= QUOTAS[name][1]
        seen["shortfall" if short else "full quotas"] += 1
        report = audit_pairs({name: sampled.split(name) for name in SPLITS}, table, strictness)
        assert report.ok, report.summary()
        if seed % 10 == 0:
            reordered = OccurrenceTable(dict(reversed(table.forward.items())))
            assert sample_pairs(reordered, band, seed, strictness) == sampled
    with pytest.raises(EmptyBandError, match=r"^band \(3, 2\) selects no constructions$"):
        sample_pairs(OccurrenceTable({0: [1, 2, 3]}), (3, 2), 0, "anchor")
    assert min(seen.values()) >= 10, seen
    digest = pairs_digest(cases)
    for out, err, returncode in runs:
        assert returncode == 0, err
        assert out == f"{digest}\n"


class TestInoculation:
    def _pairs(self, n_pos, n_neg):
        out = []
        for i in range(n_pos):
            out.append(PairExample(2 * i, 2 * i + 1, "same", 0, 2, 50))
        for i in range(n_neg):
            out.append(PairExample(1000 + 2 * i, 1001 + 2 * i, "different", 0, 2, 50))
        return out

    def test_balanced_two_from_four(self):
        subsets = make_inoculation_subsets(self._pairs(2, 2), [2], seed=0)
        labels = [p.label for p in subsets[2]]
        assert labels.count("same") == 1 and labels.count("different") == 1

    def test_nested_prefixes(self):
        pairs = self._pairs(40, 40)
        subsets = make_inoculation_subsets(pairs, [10, 30, 60], seed=4)
        assert subsets[10] == subsets[30][:10]
        assert subsets[30] == subsets[60][:30]

    def test_balance_within_one_at_every_size(self):
        pairs = self._pairs(50, 50)
        subsets = make_inoculation_subsets(pairs, [7, 20, 33, 100], seed=9)
        for size, subset in subsets.items():
            same = sum(p.label == "same" for p in subset)
            assert abs(same - (size - same)) <= 1

    def test_oversize_error_names_size(self):
        with pytest.raises(InputError, match="77"):
            make_inoculation_subsets(self._pairs(2, 2), [77], seed=0)

    @pytest.mark.parametrize("sizes", [[-5, 0], [0], [-1, 4]])
    def test_size_below_one_rejected(self, sizes):
        with pytest.raises(InputError, match=f"inoculation size {min(sizes)} is not between 1 and"):
            make_inoculation_subsets(self._pairs(5, 5), sizes, seed=0)


class TestPairFiles:
    def test_write_read_round_trip(self, desk_pairs, desk, tmp_path):
        sampled = desk_pairs
        texts = desk.texts
        path = tmp_path / "train.tsv"
        write_pairs(sampled.train, texts, path)
        loaded = read_pairs(path)
        assert len(loaded) == len(sampled.train)
        ordered = sorted(sampled.train, key=lambda p: (p.anchor_cxg, p.sent_a, p.sent_b))
        for row, pair in zip(loaded, ordered):
            assert row.label == pair.label
            assert row.text_a == texts[pair.sent_a]
            assert row.text_b == texts[pair.sent_b]
            assert row.anchor_cxg == pair.anchor_cxg
            assert (row.band_lo, row.band_hi) == (pair.band_lo, pair.band_hi)

    def test_single_positive_line(self, tmp_path):
        texts = {0: "a b", 1: "a c"}
        pair = PairExample(0, 1, "same", 9, 2, None)
        path = tmp_path / "one.tsv"
        write_pairs([pair], texts, path)
        line = path.read_text("utf-8").rstrip("\n")
        assert line == "same\ta b\ta c\t9\t2\tinf"

    @pytest.mark.parametrize("label", ["Same", "DIFFERENT", "", "same "])
    def test_unknown_label_rejected_with_location(self, label, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"same\ta\tb\t0\t2\t50\n{label}\ta\tc\t0\t2\t50\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: label must be same or different"):
            read_pairs(path)

    def test_empty_list_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_pairs([], {}, path)
        assert path.read_text("utf-8") == ""
