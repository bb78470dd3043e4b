import re

import pytest

from cxgcorpus.errors import EmptyBandError, InputError, ParseError
from cxgcorpus.matcher import OccurrenceTable
from cxgcorpus.pair_sampler import (
    PairExample,
    SamplerConfig,
    audit_pairs,
    make_inoculation_subsets,
    read_pairs,
    sample_pairs,
    write_pairs,
)

from helpers import all_pairs, freq, pair_key


def _splits(sampled):
    return {"train": sampled.train, "dev": sampled.dev, "test": sampled.test}


@pytest.fixture(scope="module")
def desk_pairs(desk_table):
    config = SamplerConfig(seed=17)
    return sample_pairs(desk_table, (2, 10000), config), config


class TestQuotas:
    def test_two_instance_construction_shortfall(self):
        # one tiny construction in a universe big enough for negatives
        forward = {0: [1, 2]}
        forward.update({i: list(range(10, 20)) for i in range(1, 4)})
        table = OccurrenceTable(forward)
        sampled = sample_pairs(table, (2, 2), SamplerConfig(seed=0))
        positives = [p for p in all_pairs(sampled) if p.label == "same"]
        assert len(positives) == 1  # C(2,2) = 1
        assert any(s.cxg_id == 0 for s in sampled.shortfalls)

    def test_full_quotas_for_five_instances(self, desk_table):
        sampled = sample_pairs(desk_table, (2, 10000), SamplerConfig(seed=3))
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
            sample_pairs(desk_table, (99990, 99999), SamplerConfig())

    def test_canonical_ordering_and_labels(self, desk_pairs, desk_table):
        sampled, _ = desk_pairs
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
        a = sample_pairs(desk_table, (2, 50), SamplerConfig(seed=5))
        b = sample_pairs(desk_table, (2, 50), SamplerConfig(seed=5))
        assert all_pairs(a) == all_pairs(b)
        c = sample_pairs(desk_table, (2, 50), SamplerConfig(seed=6))
        assert all_pairs(a) != all_pairs(c)

    def test_replace_checks_strictness_like_the_constructor(self):
        with pytest.raises(ParseError, match="^unknown strictness 'disjont'$"):
            SamplerConfig(seed=1)._replace(strictness="disjont")
        config = SamplerConfig(seed=1)._replace(strictness="disjoint")
        assert type(config) is SamplerConfig and config == (1, "disjoint")

    def test_disjoint_strictness_sound_or_shortfall(self, desk_table):
        # on the desk corpus generic patterns cover nearly every
        # sentence, so disjoint negatives are mostly infeasible: that
        # must surface as shortfall entries, never as an error
        sampled = sample_pairs(desk_table, (2, 50), SamplerConfig(seed=1, strictness="disjoint"))
        for pair in all_pairs(sampled):
            if pair.label == "different":
                shared = set(desk_table.constructions_of(pair.sent_a)) & set(
                    desk_table.constructions_of(pair.sent_b)
                )
                assert not shared
        assert sampled.shortfalls


class TestAudit:
    def test_fresh_sample_passes(self, desk_pairs, desk_table):
        sampled, config = desk_pairs
        report = audit_pairs(_splits(sampled), desk_table, config.strictness)
        assert report.ok, report.summary()

    def test_unknown_strictness_refused(self, desk_pairs, desk_table):
        # a misspelt "disjoint" would audit anchor-style pairs as sound
        sampled, _ = desk_pairs
        with pytest.raises(ParseError, match="^unknown strictness 'disjont'$"):
            audit_pairs(_splits(sampled), desk_table, "disjont")

    def test_flipped_label_reported(self, desk_pairs, desk_table):
        sampled, config = desk_pairs
        splits = _splits(sampled)
        bad = splits["train"][0]._replace(
            label="different" if splits["train"][0].label == "same" else "same",
        )
        tampered = dict(splits)
        tampered["train"] = [bad] + splits["train"][1:]
        report = audit_pairs(tampered, desk_table, config.strictness)
        assert len(report.violations) == 1

    def test_cross_split_leak_reported(self, desk_pairs, desk_table):
        sampled, config = desk_pairs
        splits = _splits(sampled)
        tampered = dict(splits)
        tampered["test"] = splits["test"] + [splits["train"][0]]
        report = audit_pairs(tampered, desk_table, config.strictness)
        assert report.leaks and report.duplicates

    def test_no_duplicates_across_splits(self, desk_pairs):
        sampled, _ = desk_pairs
        keys = [pair_key(p) for p in all_pairs(sampled)]
        assert len(keys) == len(set(keys))


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
        sampled, _ = desk_pairs
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
