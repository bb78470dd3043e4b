import filecmp
import shutil
from pathlib import Path

import pytest

from cxgcorpus import cli
from cxgcorpus import corpus_builder as cb
from cxgcorpus import pair_sampler as ps
from cxgcorpus.corpus_builder import MultisetReport
from cxgcorpus.errors import FacetMissingError
from cxgcorpus.ingest import scan_annotated, store_path, write_annotated
from cxgcorpus.inventory import load_inventory
from cxgcorpus.matcher import OccurrenceTable, brute_force_match, build_index, match_corpus
from cxgcorpus.pair_sampler import AuditReport, PairExample

from helpers import load_annotated_file, make_desk, write_desk_files


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small desk corpus run through the whole CLI pipeline once."""
    root = tmp_path_factory.mktemp("cliwork")
    desk = make_desk(seed=5, n_sentences=900, n_articles=30, n_anchors=10)
    paths = write_desk_files(desk, root / "input")
    out = root / "out"
    out.mkdir()
    annotated = str(out / "annotated.tsv")
    steps = [
        ["annotate", paths["corpus"], annotated, "--mode", "pre-split",
         "--lexicon", paths["lexicon"], "--suffixes", paths["suffixes"],
         "--clusters", paths["clusters"], "--config", paths["config"]],
        ["match", annotated, paths["inventory"], str(out / "match"),
         "--config", paths["config"]],
        ["build", annotated, str(out / "match" / "table.tsv"), str(out / "build"),
         "--variant", "all", "--config", paths["config"]],
        ["pairs", annotated, str(out / "match" / "table.tsv"), str(out / "pairs"),
         "--config", paths["config"], "--inoculation-sizes", "8,16"],
        ["baseline", str(out / "pairs" / "train.tsv"), str(out / "pairs" / "test.tsv"),
         str(out / "baseline"), "--dev", str(out / "pairs" / "dev.tsv"),
         "--epochs", "4", "--config", paths["config"]],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return {"root": root, "desk": desk, "paths": paths, "out": out,
            "annotated": annotated, "steps": steps}


class TestPipeline:
    def test_outputs_exist(self, work):
        out = work["out"]
        for rel in (
            "annotated.tsv", "match/table.tsv", "match/discards.txt",
            "match/stats.tsv", "build/cxg.txt", "build/base.txt",
            "build/random.txt", "build/cxg.manifest", "build/verify.txt",
            "pairs/train.tsv", "pairs/dev.tsv", "pairs/test.tsv",
            "pairs/shortfall.tsv", "pairs/audit.txt", "pairs/inoculation_8.tsv",
            "pairs/inoculation_16.tsv", "baseline/metrics.tsv",
            "baseline/metrics_dev.tsv", "baseline/model.bin",
        ):
            assert (out / rel).exists(), rel

    def test_annotation_matches_direct_export(self, work, tmp_path):
        direct = tmp_path / "direct.tsv"
        write_annotated(work["desk"].sentences, direct)
        assert Path(work["annotated"]).read_text("utf-8") == direct.read_text("utf-8")

    def test_stats_command(self, work):
        out = work["out"]
        argv = ["stats", str(out / "match" / "table.tsv"), str(out / "stats.tsv"),
                "--config", work["paths"]["config"]]
        assert cli.main(argv) == 0
        rows = [
            line.split("\t")
            for line in (out / "stats.tsv").read_text("utf-8").splitlines()
        ]
        assert rows[0][0] == "2" and rows[-1][1] == "inf"
        total = sum(int(r[2]) for r in rows)
        assert total == len(work["desk"].inventory)  # every desk cxg has freq >= 2

    def test_metrics_format(self, work):
        lines = (work["out"] / "baseline" / "metrics.tsv").read_text("utf-8").splitlines()
        assert lines[-1].startswith("ALL\tALL\t")
        first = lines[0].split("\t")
        assert 0.0 <= float(first[3]) <= 1.0


class TestExitCodes:
    def test_missing_input_is_input_error(self, tmp_path):
        assert cli.main(["annotate", str(tmp_path / "nope.txt"), str(tmp_path / "o.tsv")]) == cli.EXIT_INPUT

    def test_stale_input_detected(self, work, tmp_path):
        out = str(tmp_path / "m2")
        argv = ["match", work["annotated"], work["paths"]["inventory"], out,
                "--config", work["paths"]["config"], "--max-gap", "2"]
        # annotated sidecar is max_gap independent: still fresh
        assert cli.main(argv) == 0
        # ...but a build against the gap-1 table with gap 2 must be stale
        argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "b2"), "--config", work["paths"]["config"], "--max-gap", "2"]
        assert cli.main(argv) == cli.EXIT_INPUT

    def test_audit_failure_exit_code(self, work, tmp_path, monkeypatch):
        bad = AuditReport(violations=[("train", PairExample(0, 1, "same", 0, 2, 50, "train"), "boom")])
        monkeypatch.setattr(ps, "audit_pairs", lambda *a, **k: bad)
        argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "p2"), "--config", work["paths"]["config"],
                "--inoculation-sizes", "8"]
        assert cli.main(argv) == cli.EXIT_AUDIT

    def test_multiset_failure_exit_code(self, work, tmp_path, monkeypatch):
        bad = MultisetReport(total_a=1, total_b=2, mismatched=[(0, 1, 2)])
        monkeypatch.setattr(cb, "verify_multiset", lambda *a, **k: bad)
        argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "b3"), "--variant", "all", "--config", work["paths"]["config"]]
        assert cli.main(argv) == cli.EXIT_MULTISET

    def test_oversized_inoculation_names_size(self, work, tmp_path, capsys):
        argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "p3"), "--config", work["paths"]["config"],
                "--inoculation-sizes", "100000"]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "100000" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_is_byte_identical(self, work, tmp_path):
        annotated2 = str(tmp_path / "annotated.tsv")
        paths = work["paths"]
        argv = ["annotate", paths["corpus"], annotated2, "--mode", "pre-split",
                "--lexicon", paths["lexicon"], "--suffixes", paths["suffixes"],
                "--clusters", paths["clusters"], "--config", paths["config"]]
        assert cli.main(argv) == 0
        assert filecmp.cmp(work["annotated"], annotated2, shallow=False)
        argv = ["match", annotated2, paths["inventory"], str(tmp_path / "match"),
                "--config", paths["config"]]
        assert cli.main(argv) == 0
        assert filecmp.cmp(
            work["out"] / "match" / "table.tsv", tmp_path / "match" / "table.tsv",
            shallow=False,
        )

    def test_jobs_flag_does_not_change_output(self, work, tmp_path):
        paths = work["paths"]
        argv = ["match", work["annotated"], paths["inventory"], str(tmp_path / "match8"),
                "--config", paths["config"], "--jobs", "2"]
        assert cli.main(argv) == 0
        assert filecmp.cmp(
            work["out"] / "match" / "table.tsv", tmp_path / "match8" / "table.tsv",
            shallow=False,
        )


class TestConfig:
    def test_flag_overrides_config_file(self, work, tmp_path):
        # the config band is 2:10000; narrow it on the command line
        argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "narrow"), "--variant", "cxg",
                "--config", work["paths"]["config"], "--band", "2:50"]
        assert cli.main(argv) == 0
        manifest = (tmp_path / "narrow" / "cxg.manifest").read_text("utf-8")
        assert "band_lo = 2" in manifest and "band_hi = 50" in manifest

    def test_bad_band_flag(self, work, tmp_path):
        argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "x"), "--config", work["paths"]["config"], "--band", "oops"]
        assert cli.main(argv) == cli.EXIT_INPUT


def run_cli(argv, capsys) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def copy_annotated(work, root: Path) -> Path:
    """A private copy of the annotated corpus, its store and their sidecars."""
    for suffix in ("", ".meta", ".sents", ".sents.meta"):
        shutil.copy(work["annotated"] + suffix, root / f"annotated.tsv{suffix}")
    return root / "annotated.tsv"


def _config_case(line):
    def case(work, tmp):
        cfg = tmp / "bad.cfg"
        cfg.write_text(f"# a comment\n{line}\n", encoding="utf-8")
        argv = ["match", work["annotated"], work["paths"]["inventory"], tmp / "m",
                "--config", cfg]
        return argv, f"{cfg}:2"
    return case


def _flag_case(stage, flag, value):
    def case(work, tmp):
        table = work["out"] / "match" / "table.tsv"
        argv = {
            "match": ["match", work["annotated"], work["paths"]["inventory"], tmp / "m"],
            "pairs": ["pairs", work["annotated"], table, tmp / "p"],
        }[stage]
        return argv + ["--config", work["paths"]["config"], flag, value], flag
    return case


def _missing_store(work, tmp):
    annotated = copy_annotated(work, tmp)
    store_path(annotated).unlink()
    argv = ["build", annotated, work["out"] / "match" / "table.tsv", tmp / "b",
            "--config", work["paths"]["config"]]
    return argv, str(store_path(annotated))


def _edited_annotated(work, tmp):
    annotated = copy_annotated(work, tmp)
    with open(annotated, "a", encoding="utf-8") as fh:
        fh.write("\n99999\t9999\t0\textra\tNOUN\t-\n")
    argv = ["match", annotated, work["paths"]["inventory"], tmp / "m",
            "--config", work["paths"]["config"]]
    return argv, str(annotated)


def _bad_store_id(work, tmp):
    annotated = copy_annotated(work, tmp)
    store = store_path(annotated)
    lines = store.read_text("utf-8").splitlines(keepends=True)
    lines[1] = "x" + lines[1]
    store.write_text("".join(lines), encoding="utf-8")
    argv = ["match", annotated, work["paths"]["inventory"], tmp / "m",
            "--config", work["paths"]["config"]]
    return argv, f"{store}:2"


def _bad_table_id(work, tmp):
    table = tmp / "table.tsv"
    shutil.copy(work["out"] / "match" / "table.tsv", table)
    table.write_text("x\t1 2\n" + table.read_text("utf-8"), encoding="utf-8")
    argv = ["build", work["annotated"], table, tmp / "b", "--config", work["paths"]["config"]]
    return argv, f"{table}:1"


def _pre_annotated_case(second_row):
    def case(work, tmp):
        tsv = tmp / "external.tsv"
        tsv.write_text(f"3\t0\t0\ta\tNOUN\t-\n\n{second_row}\n", encoding="utf-8")
        return ["annotate", tsv, tmp / "annotated.tsv", "--mode", "pre-annotated"], f"{tsv}: line 3"
    return case


MALFORMED = {
    "config-seed": _config_case("seed = x"),
    "config-max-gap": _config_case("max_gap = x"),
    "config-negative-max-gap": _config_case("max_gap = -1"),
    "config-band-edges": _config_case("band_edges = 2,x"),
    "config-unknown-key": _config_case("max-gap = 2"),
    "config-unknown-strictness": _config_case("strictness = disjiont"),
    "flag-band-edges": _flag_case("match", "--band-edges", "2,x"),
    "flag-inoculation-sizes": _flag_case("pairs", "--inoculation-sizes", "8,x"),
    "flag-negative-max-gap": _flag_case("match", "--max-gap", "-1"),
    "flag-zero-jobs": _flag_case("match", "--jobs", "0"),
    "missing-store": _missing_store,
    "annotated-edited-after-annotate": _edited_annotated,
    "store-non-integer-id": _bad_store_id,
    "table-non-integer-id": _bad_table_id,
    "pre-annotated-non-integer-id": _pre_annotated_case("x\t0\t1\tb\tNOUN\t-"),
    "pre-annotated-id-goes-backwards": _pre_annotated_case("2\t0\t1\tb\tNOUN\t-"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_its_source(case, work, tmp_path, capsys):
    argv, source = MALFORMED[case](work, tmp_path)
    code, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT, err
    assert source in err


EXTERNAL_TSV = (
    # a form with a space, a sem written 07, and no blank line before
    # the next sentence, which carries no sem at all
    "0\t0\t0\tNew York\tPROPN\t07\n"
    "0\t0\t0\tis\tAUX\t-\n"
    "0\t0\t0\tbig\tADJ\t3\n"
    "1\t0\t1\tit\tPRON\t-\n"
    "1\t0\t1\truns\tVERB\t-\n"
    "\n"
    "4\t1\t0\tshe\tPRON\t2\n"
    "4\t1\t0\truns\tVERB\t5\n"
    "4\t1\t0\tfast\tADV\t-\n"
)


class TestSentenceStore:
    @pytest.fixture
    def annotated(self, tmp_path):
        external = tmp_path / "external.tsv"
        external.write_text(EXTERNAL_TSV, encoding="utf-8")
        annotated = tmp_path / "annotated.tsv"
        assert cli.main(["annotate", str(external), str(annotated), "--mode", "pre-annotated"]) == 0
        return annotated

    def test_store_reader_matches_tsv_reader(self, annotated):
        expected = [
            (s.sentence_id, s.article_id, s.position_in_article, s.forms, s.tags, s.sems)
            for s in load_annotated_file(annotated)
        ]
        rows = [tuple(row) for row in scan_annotated(store_path(annotated))]
        assert rows == expected
        assert rows[0][3] == ["New York", "is", "big"] and rows[0][5] == [7, None, 3]
        assert rows[1][5] == [None, None]

    def test_match_over_store_agrees_with_tsv_and_oracle(self, annotated, tmp_path):
        inventory = tmp_path / "inventory.tsv"
        inventory.write_text(
            "0\tpos:PROPN pos:AUX\n1\tpos:PRON pos:VERB\n2\tlex:is pos:ADJ\n"
            "3\tlex:runs pos:ADV\n",
            encoding="utf-8",
        )
        assert cli.main(["match", str(annotated), str(inventory), str(tmp_path / "m")]) == 0
        got = OccurrenceTable.read(tmp_path / "m" / "table.tsv", tmp_path / "m" / "discards.txt")
        inv = load_inventory(inventory)
        sentences = load_annotated_file(annotated)
        expected = match_corpus(build_index(inv), sentences)
        assert got.forward == expected.forward and got.discarded == expected.discarded
        for s in sentences:
            oracle = [m.cxg_id for m in brute_force_match(inv, s)]
            assert got.constructions_of(s.sentence_id) == oracle

    def test_facet_missing_fires_on_store_path(self, annotated, tmp_path, capsys):
        inventory = tmp_path / "inventory.tsv"
        inventory.write_text("0\tsem:7 pos:AUX\n1\tpos:PRON pos:VERB\n", encoding="utf-8")
        index = build_index(load_inventory(inventory))
        rows = list(scan_annotated(store_path(annotated)))
        assert match_corpus(index, rows[:1]).forward == {0: [0], 1: []}
        with pytest.raises(FacetMissingError, match="sentence 1"):
            match_corpus(index, rows)
        code, err = run_cli(["match", annotated, inventory, tmp_path / "m"], capsys)
        assert code == cli.EXIT_INPUT and "sentence 1" in err
