import argparse
import errno
import filecmp
import functools
import gc
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cxgcorpus
from cxgcorpus import baseline as bl
from cxgcorpus import cli
from cxgcorpus import corpus_builder as cb
from cxgcorpus import ingest
from cxgcorpus import matcher
from cxgcorpus import pair_sampler as ps
from cxgcorpus.corpus_builder import MultisetReport
from cxgcorpus.errors import FacetMissingError, InputError
from cxgcorpus.ingest import scan_annotated, store_path, write_annotated
from cxgcorpus.inventory import load_inventory
from cxgcorpus.matcher import brute_force_match, build_index, match_corpus
from cxgcorpus.pair_sampler import AuditReport, PairExample
from cxgcorpus.workspace import STAGE_KEYS, EffectiveConfig, flag

from helpers import load_annotated_file, make_desk, read_table, write_desk_files


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


# sha256 of every file the fixture's five stages write. They pin the
# writers' bytes, not only their agreement with themselves. baseline/ is
# pinned too: its dot products are exactly rounded sums, so model.bin
# does not depend on summation order; exp and log still come from the
# platform's C math library.
GOLDEN_SHA256 = {
    "annotated.tsv": "a378b11bb21ba05b38a5cc514877a4f52d6f1d70f8186f831a80fa210eb6bc11",
    "annotated.tsv.meta": "caaa5684b3fefc48e6336091ad5d45a3a2f74cdd61f6f1afa647bb3a9df49405",
    "annotated.tsv.sents": "e71a7c044a1ebdefa4e80cb6a8ed94b749f1f0cedb289601055a6cf7a4a04336",
    "annotated.tsv.sents.meta": "73aa9949db555b1d98cd448b07d3f7da4ca7c81cbe9501ed36cbd8b7b2e9bbc5",
    "baseline/metrics.tsv": "6568aef21f550e59d74792454fa05fca2a6ff9e148c3cdc03f078f55573afccb",
    "baseline/metrics.tsv.meta": "be150967b45d3c97c8a62c116f695439eaa48a56d350317f052ac97454e1dbf2",
    "baseline/metrics_dev.tsv": "4b1deaca809f5ca1f1b6738e09750c12f07b78ceb7f9fd9450d9c2e394e1315a",
    "baseline/metrics_dev.tsv.meta": "be150967b45d3c97c8a62c116f695439eaa48a56d350317f052ac97454e1dbf2",
    "baseline/model.bin": "b547d1ccf9725d3d9328eafa4a5c543ca8a7b08bd9b9cbd704b655ff5277cec9",
    "baseline/model.bin.meta": "be150967b45d3c97c8a62c116f695439eaa48a56d350317f052ac97454e1dbf2",
    "build/base.manifest": "3b2fa9bc9cba5e0360c8d2670bfc0ff34acb681fd53ed73a4f79459696f7ccf8",
    "build/base.manifest.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/base.txt": "a7e46cbe2ab6a09c5363531222bd94e1eee0d21c241fb1008fc469a49da92886",
    "build/base.txt.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/cxg.manifest": "a4a954c65fd4029046997bb3cdb7723260487d5e17889c3e8ee7307747e95e63",
    "build/cxg.manifest.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/cxg.txt": "a80855e6e9735a1bc49891ef009d3a97dfc35e5ebcf395592374d999d5d52a4b",
    "build/cxg.txt.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/random.manifest": "226957584ea4df567b7b2eaab1309b7fcf12632b630205044185abd24c22174c",
    "build/random.manifest.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/random.txt": "315561cf3a52fc7c9ce04eb22aa56335e3f8fd92d799d3ae2c3d9e3c47884584",
    "build/random.txt.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "build/verify.txt": "ee825ae135864f5870d77702b60007e1338246a8d28850479e196d5214b253bc",
    "build/verify.txt.meta": "91d91271aba8358482cc045e807473b08549f8cba4b30a2b8878b6a670795508",
    "match/discards.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "match/discards.txt.meta": "84a65436226aef8b71a9e9c9cc6e222a4184b17d1dd5bc8d1a9ca104405d5ab4",
    "match/stats.tsv": "5f16fcc7a4c4a5d57290d00a140fe7ebc7caef7a0483f5beced37b15b27dfe2c",
    "match/stats.tsv.meta": "bfb866ac4d495673ca0e6f102cc5a08f85235998457981418947bb5eca2b0388",
    "match/table.tsv": "449e598c10701500342a39e165f15bb664e0055e5fa5539dcfb71f40cf00f194",
    "match/table.tsv.meta": "84a65436226aef8b71a9e9c9cc6e222a4184b17d1dd5bc8d1a9ca104405d5ab4",
    "pairs/audit.txt": "859b4e9acb0e3537bc0ec69f1ff23e007fcabc4888ed6e8799e29b9662587595",
    "pairs/audit.txt.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/dev.tsv": "28d7ca9c3d3683d604361ed59e73fdf957104dd5ad3a9d0a48df25a953cf1604",
    "pairs/dev.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/inoculation_16.tsv": "3e4206d749aaa097168cde4ad420c72384360d72ecb13f048d9286ae6244b56c",
    "pairs/inoculation_16.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/inoculation_8.tsv": "2f0fac47abac288b5c805f5849b25b0850c4c758a114e87c0faf701b12bd7b55",
    "pairs/inoculation_8.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/shortfall.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "pairs/shortfall.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/test.tsv": "f831fad33b2e132becf33fa8c10b315bc7cf78209013aa901f1c73cc15a9a0cc",
    "pairs/test.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
    "pairs/train.tsv": "d9f5db86a60cacc933e574d8cd0b6c3e2c5c2378df8efc74e7a7a3ef1bf7807b",
    "pairs/train.tsv.meta": "e9bed7c88fcf0407b6b26cc4bf1224d15dbaafaa54cbef060205bb378180701e",
}


def test_stage_outputs_keep_their_bytes(work):
    out = work["out"]
    written = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for stage in ("match", "build", "pairs", "baseline") for p in (out / stage).iterdir()
    }
    for name in ("annotated.tsv", "annotated.tsv.meta",
                 "annotated.tsv.sents", "annotated.tsv.sents.meta"):
        written[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert written == GOLDEN_SHA256


# sha256 of the files `annotate` writes in raw mode from
# tests/data/raw_corpus.txt with the bundled resources. The work
# fixture's pre-split text leaves every token a bare word or a lone
# punctuation mark; this corpus glues punctuation to words, writes both
# apostrophes, the abbreviations, `_`, an Arabic-Indic digit and
# non-ASCII whitespace, so it pins the splitter and both tokenizer paths.
RAW_GOLDEN_SHA256 = {
    "annotated.tsv": "5b83f319f90af6ea5976a94e1541cdcff216fb257a5ea8878a33645d704db2eb",
    "annotated.tsv.sents": "230391240997d02aaf568116c9639257bc4cc543a60b442fcca26f8faaecba95",
}


def test_raw_annotation_keeps_its_bytes(tmp_path):
    corpus = Path(__file__).parent / "data" / "raw_corpus.txt"
    assert cli.main(["annotate", str(corpus), str(tmp_path / "annotated.tsv")]) == 0
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in RAW_GOLDEN_SHA256}
    assert written == RAW_GOLDEN_SHA256


# The package modules each stage loads, besides the package itself and
# the cli, errors and workspace modules that `import cxgcorpus.cli` loads.
STAGE_MODULES = {
    "annotate": {"ingest"},
    "match": {"ingest", "inventory", "matcher"},
    "stats": {"matcher"},
    "build": {"ingest", "matcher", "corpus_builder"},
    "pairs": {"ingest", "matcher", "pair_sampler"},
    "baseline": {"pair_sampler", "baseline"},
}


# Modules no stage needs, which each would cost every stage start-up
# time: numpy and multiprocessing, and dataclasses and logging, which
# pull in inspect, ast, traceback and tokenize.
UNNEEDED = ("numpy", "multiprocessing", "dataclasses", "logging", "inspect")

# OpenSSL's hashlib backend, some megabytes of memory: only a stage that
# hashes a file (for a sidecar's source_sha256) loads it.
HASHING_STAGES = {"annotate", "match", "build", "pairs"}


def _loaded_modules(code, argv=()):
    """The `cxgcorpus` modules, the UNNEEDED packages and `_hashlib` that
    a fresh interpreter has loaded after running `code`."""
    src = str(Path(cxgcorpus.__file__).parents[1])
    code += (
        "; print(' '.join(sorted({m.split('.')[0] for m in sys.modules} & "
        f"{{*{UNNEEDED!r}, '_hashlib'}} | {{m.split('.')[1] for m in sys.modules "
        "if m.startswith('cxgcorpus.')})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.splitlines()[-1].split())


def test_import_loads_neither_numpy_nor_multiprocessing(work, tmp_path):
    """Every stage pays for what `import cxgcorpus.cli` loads, which is no
    stage module, none of UNNEEDED and not `_hashlib`; each stage then
    loads only the modules it runs, none of UNNEEDED either, and
    `_hashlib` only if it hashes a file."""
    assert _loaded_modules("import sys, cxgcorpus.cli") == {"cli", "errors", "workspace"}
    code = "import sys; from cxgcorpus import cli; assert cli.main(sys.argv[1:]) == 0"
    stats = ["stats", str(work["out"] / "match" / "table.tsv"), tmp_path / "stats.tsv",
             "--config", work["paths"]["config"]]
    for step in [*work["steps"], stats]:
        stage = step[0]
        argv = list(step)
        if stage == "annotate":
            argv[2] = tmp_path / stage / "annotated.tsv"
        elif stage != "stats":
            argv[3] = tmp_path / stage
        loaded = _loaded_modules(code, argv)
        expected = {"cli", "errors", "workspace"} | STAGE_MODULES[stage]
        assert loaded == expected | ({"_hashlib"} if stage in HASHING_STAGES else set()), stage


def test_config_hash_falls_back_to_hashlib():
    """Without the interpreter's built-in sha256 module, a config hash is
    hashlib's sha256, the digest it is everywhere."""
    src = str(Path(cxgcorpus.__file__).parents[1])
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from cxgcorpus import workspace as ws; "
        "assert ws._config_sha256 is hashlib.sha256; config = ws.EffectiveConfig(seed=7); "
        "assert all(config.subset_hash(k) == hashlib.sha256(config.canonical(k).encode())"
        ".hexdigest()[:16] for k in ws.STAGE_KEYS.values()); print('ok')"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "ok\n"
    config = EffectiveConfig(seed=7)
    assert config.subset_hash(STAGE_KEYS["pairs"]) == hashlib.sha256(
        config.canonical(STAGE_KEYS["pairs"]).encode()).hexdigest()[:16]


# The names `cxgcorpus` exports, by the module each comes from.
PACKAGE_EXPORTS = {
    "ingest": ("AnnotatedSentence", "AnnotationResources", "Token", "annotate_corpus",
               "parse_wikitext", "split_sentences", "tag_pos", "tokenize"),
    "inventory": ("Construction", "InductionParams", "Inventory", "SlotConstraint",
                  "induce_inventory", "load_inventory", "parse_construction_spec",
                  "render_name", "write_inventory"),
    "matcher": ("MatchIndex", "OccurrenceTable", "brute_force_match",
                "build_index", "match_corpus", "match_sentence", "occurrence_stats"),
    "corpus_builder": ("BuildManifest", "build_base_clone", "build_cxg_corpus",
                       "build_random", "verify_multiset", "write_pretraining_file"),
    "pair_sampler": ("PairExample", "PairText", "audit_pairs", "make_inoculation_subsets",
                     "read_pairs", "sample_pairs", "write_pairs"),
    "baseline": ("LinearModel", "evaluate", "featurize_pair", "shuffle_control", "train"),
}


def test_package_names_load_on_first_access():
    code = (
        "import importlib, sys, cxgcorpus as cx; "
        f"exports = {PACKAGE_EXPORTS!r}; "
        "assert [m for m in sys.modules if m.startswith('cxgcorpus.')] == []; "
        "assert cx.pair_sampler.QUOTAS['train'] == (2, 2); "
        "assert {'errors', 'workspace', *exports, '__version__'} <= set(dir(cx)); "
        "assert all(getattr(cx, n) is getattr(importlib.import_module('cxgcorpus.' + m), n) "
        "and n in dir(cx) for m, names in exports.items() for n in names); "
        "ns = {}; exec('from cxgcorpus import *', ns); "
        "assert all(n in ns for names in exports.values() for n in names)"
    )
    assert _loaded_modules(code) == {"errors", "workspace", *PACKAGE_EXPORTS}
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cxgcorpus.nope


def test_baseline_runs_where_numpy_cannot_be_imported(work, tmp_path):
    """The baseline stage needs nothing outside the standard library,
    and writes the same bytes without it."""
    argv = work["steps"][-1][:3] + [str(tmp_path / "baseline")] + work["steps"][-1][4:]
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from cxgcorpus import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    src = str(Path(cxgcorpus.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code] + argv, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    written = {
        f"baseline/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "baseline").iterdir()
    }
    assert written == {k: v for k, v in GOLDEN_SHA256.items() if k.startswith("baseline/")}


def test_verbose_adds_two_match_lines_and_changes_no_output(work, tmp_path, capsys):
    """`-v` makes `match` print two lines on stderr and changes nothing
    else: every stage's stdout and output files are those of a run
    without it, and no other stage prints more."""
    table = matcher.OccurrenceTable.read(work["out"] / "match" / "table.tsv")
    discarded = (work["out"] / "match" / "discards.txt").read_text("utf-8").split()
    inventory = work["paths"]["inventory"]
    for step in work["steps"]:
        stage = step[0]
        runs = []
        for flags in ([], ["-v"]):
            out = tmp_path / ("verbose" if flags else "quiet") / stage
            argv = list(step)
            if stage == "annotate":
                argv[2] = str(out / "annotated.tsv")
            else:
                argv[3] = str(out)
            assert cli.main(flags + argv) == 0, stage
            printed = capsys.readouterr()
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((printed.out.replace(str(out), "OUT"), printed.err, files))
        (out_q, err_q, files_q), (out_v, err_v, files_v) = runs
        assert out_v == out_q and files_v == files_q and files_q and err_q == "", stage
        expected = ""
        if stage == "match":
            expected = (f"loaded {len(load_inventory(inventory))} constructions from {inventory}\n"
                        f"matched corpus: {len(table.reverse)} sentences instantiate >=1 "
                        f"construction, {len(discarded)} discarded\n")
        assert err_v == expected, stage


def _perfbench(script, *args):
    """Run perfbench/`script` with the program on its path."""
    src = Path(cxgcorpus.__file__).parents[1]
    return subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / script), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )


def test_stage_runs_under_the_benchmark_tracer(work, tmp_path):
    """perfbench/trace.py wraps named functions and methods of the
    program; one that is renamed or gone stops the traced stage, and
    `match` calls the traced `match_sentence` once per sentence. Its
    hooks take the arguments and results of the builders and the
    sampler, so `build` and `pairs` run traced too, write the bytes of
    the untraced run, and count what their manifests and pair files
    show."""
    out = work["out"]
    config = work["paths"]["config"]
    result = _perfbench("trace.py", tmp_path / "stats.json", "stats", out / "match" / "table.tsv",
                        tmp_path / "stats.tsv", "--config", config)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "stats.tsv").read_bytes() == (out / "match" / "stats.tsv").read_bytes()
    result = _perfbench("trace.py", tmp_path / "match.json", "match", work["annotated"],
                        work["paths"]["inventory"], tmp_path / "m", "--config", config)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "m" / "table.tsv").read_bytes() == (out / "match" / "table.tsv").read_bytes()
    counts = json.loads((tmp_path / "match.json").read_text("utf-8"))["counts"]
    assert counts["matcher.match_sentence_calls"] == len(work["desk"].sentences) == 900
    for step in work["steps"][2:4]:
        stage = step[0]
        result = _perfbench("trace.py", tmp_path / f"{stage}.json", *step[:3],
                            tmp_path / stage, *step[4:])
        assert result.returncode == 0, result.stderr
        written = sorted(p.name for p in (tmp_path / stage).iterdir())
        assert written == sorted(p.name for p in (out / stage).iterdir())
        for name in written:
            assert filecmp.cmp(tmp_path / stage / name, out / stage / name, shallow=False)
    counts = json.loads((tmp_path / "build.json").read_text("utf-8"))["counts"]
    manifests = {name: dict(line.split(" = ") for line in
                            (out / "build" / f"{name}.manifest").read_text("utf-8").splitlines())
                 for name in ("cxg", "base")}
    assert counts["corpus_builder.occurrences"] == int(manifests["cxg"]["total_occurrences"])
    assert counts["corpus_builder.base_documents"] == int(manifests["base"]["n_documents"])
    assert counts["corpus_builder.copies"] == int(manifests["base"]["copies"])
    counts = json.loads((tmp_path / "pairs.json").read_text("utf-8"))["counts"]
    lines = {name: (out / "pairs" / f"{name}.tsv").read_text("utf-8").splitlines()
             for name in (*ps.SPLITS, "shortfall")}
    delivered = sum(len(lines[name]) for name in ps.SPLITS)
    missing = sum(int(requested) - int(got) for requested, got in
                  (line.split("\t")[2:] for line in lines["shortfall"]))
    assert counts["pair_sampler.pairs_delivered"] == delivered
    assert counts["pair_sampler.pairs_requested"] == delivered + missing
    assert counts["pair_sampler.shortfalls"] == len(lines["shortfall"])


def test_benchmark_oracle_agrees_with_the_table(work):
    """perfbench/steps.py oracle reads `brute_force_match`'s results as
    constructions and compares their cxg_ids with the written table."""
    out = work["out"]
    result = _perfbench("steps.py", "oracle", work["annotated"], work["paths"]["inventory"],
                        out / "match", "--config", work["paths"]["config"], "--seed", 3)
    assert result.returncode == 0, result.stdout + result.stderr
    assert " 0 mismatches" in result.stdout


class TestSemCheck:
    """SEM annotations are checked once per corpus: a sentence with no
    clustered word matches no `sem:` slot, and only a corpus without any
    sem id is refused by an inventory with `sem:` slots."""

    def _match(self, tmp_path, capsys, *resource_flags):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The dog ran.\nOh!\n", encoding="utf-8")  # only `dog` has a cluster
        inventory = tmp_path / "inventory.tsv"
        inventory.write_text("0\tpos:DET sem:0\n", encoding="utf-8")
        annotated = tmp_path / "a" / "annotated.tsv"
        argv = ["annotate", corpus, annotated, "--mode", "pre-split", *resource_flags]
        assert cli.main([str(a) for a in argv]) == 0
        return run_cli(["match", annotated, inventory, tmp_path / "m"], capsys)

    def test_sentence_without_sem_ids_matches_no_sem_slot(self, tmp_path, capsys):
        code, err = self._match(tmp_path, capsys)
        assert code == cli.EXIT_OK, err
        assert (tmp_path / "m" / "table.tsv").read_text(encoding="utf-8") == "0\t0\n"
        assert (tmp_path / "m" / "discards.txt").read_text(encoding="utf-8") == "1\n"

    def test_corpus_without_sem_ids_exits_2(self, tmp_path, capsys):
        bundled = Path(cxgcorpus.__file__).parent / "resources"
        code, err = self._match(tmp_path, capsys, "--lexicon", bundled / "pos_lexicon.tsv",
                                "--suffixes", bundled / "suffix_rules.tsv")
        assert code == cli.EXIT_INPUT
        assert "error: the corpus carries no SEM annotations but the inventory uses SEM slots" in err
        assert not (tmp_path / "m").exists()  # the stage removes the directory it created


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
        bad = AuditReport(violations=[("train", PairExample(0, 1, "same", 0, 2, 50), "boom")],
                          duplicates=[], leaks=[])
        monkeypatch.setattr(ps, "audit_pairs", lambda *a, **k: bad)
        argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "p2"), "--config", work["paths"]["config"],
                "--inoculation-sizes", "8"]
        assert cli.main(argv) == cli.EXIT_AUDIT
        kept = sorted(p.name for p in (tmp_path / "p2").iterdir())
        assert kept == ["audit.txt", "audit.txt.meta"]

    def test_multiset_failure_exit_code(self, work, tmp_path, monkeypatch):
        bad = MultisetReport(total_a=1, total_b=2, mismatched=[(0, 1, 2)])
        monkeypatch.setattr(cb, "verify_multiset", lambda *a, **k: bad)
        argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "b3"), "--variant", "all", "--config", work["paths"]["config"]]
        assert cli.main(argv) == cli.EXIT_MULTISET
        # the variants and the report stay, for inspection
        assert sorted(p.name for p in (tmp_path / "b3").iterdir()) == sorted(
            p.name for p in (work["out"] / "build").iterdir())

    def test_oversized_inoculation_names_size(self, work, tmp_path, capsys):
        argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "p3"), "--config", work["paths"]["config"],
                "--inoculation-sizes", "100000"]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "100000" in capsys.readouterr().err
        assert not (tmp_path / "p3").exists()  # the stage removes the directory it created

    @pytest.mark.parametrize("stage", ["build", "pairs"])
    def test_table_from_another_corpus_refused_before_any_write(
        self, stage, work, tmp_path, capsys
    ):
        """A table naming sentences the store lacks stops the stage, naming
        both files, and leaves the output directory as it was."""
        external = tmp_path / "external.tsv"
        external.write_text(EXTERNAL_TSV, encoding="utf-8")  # sentence ids 0, 1 and 4
        annotated = tmp_path / "annotated.tsv"
        assert cli.main(["annotate", str(external), str(annotated), "--mode", "pre-annotated"]) == 0
        table = work["out"] / "match" / "table.tsv"  # sentence ids 0..899
        out = tmp_path / stage
        out.mkdir()
        (out / "kept.txt").write_text("earlier output\n", encoding="utf-8")
        sizes = ["--inoculation-sizes", "8"] if stage == "pairs" else []
        code, err = run_cli([stage, annotated, table, out,
                             "--config", work["paths"]["config"], *sizes], capsys)
        assert code == cli.EXIT_INPUT
        assert str(table) in err and str(annotated) in err and "sentence id" in err
        assert {p.name: p.read_text("utf-8") for p in out.iterdir()} == {
            "kept.txt": "earlier output\n"}

    @pytest.mark.parametrize("stage", ["pairs", "match", "annotate"])
    def test_failed_stage_removes_the_directories_it_created(
        self, stage, work, tmp_path, capsys
    ):
        """A stage that fails after creating its output directory exits 2
        and removes that directory and the parents it created, deepest
        first, but no directory that was there before."""
        kept = tmp_path / "kept"
        kept.mkdir()
        external = tmp_path / "external.tsv"
        if stage == "annotate":  # a sentence id that is not an integer
            external.write_text("x\t0\t0\tit\tPRON\t-\n", encoding="utf-8")
            argv = ["annotate", external, kept / "badout" / "sub" / "annotated.tsv",
                    "--mode", "pre-annotated"]
            error = f"{external}:1: "
        else:
            external.write_text("0\t0\t0\tit\tPRON\t-\n0\t0\t0\tis\tAUX\t-\n"
                                if stage == "match" else EXTERNAL_TSV, encoding="utf-8")
            annotated = tmp_path / "corpus" / "annotated.tsv"
            assert cli.main(["annotate", str(external), str(annotated),
                             "--mode", "pre-annotated"]) == 0
            if stage == "match":  # no sentence carries a sem id
                inventory = tmp_path / "inventory.tsv"
                inventory.write_text("0\tsem:7 pos:AUX\n", encoding="utf-8")
                argv = ["match", annotated, inventory, kept / "new" / "match"]
                error = "the corpus carries no SEM annotations"
            else:  # the table names sentence ids the store lacks
                argv = ["pairs", annotated, work["out"] / "match" / "table.tsv",
                        kept / "fresh" / "pairs", "--config", work["paths"]["config"]]
                error = "sentence id"
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_INPUT and error in err, err
        assert kept.is_dir() and not any(kept.iterdir())

    def test_annotate_creates_the_output_directory(self, work, tmp_path):
        paths = work["paths"]
        out = tmp_path / "new" / "dir" / "annotated.tsv"
        argv = ["annotate", paths["corpus"], str(out), "--mode", "pre-split",
                "--lexicon", paths["lexicon"], "--suffixes", paths["suffixes"],
                "--clusters", paths["clusters"], "--config", paths["config"]]
        assert cli.main(argv) == 0
        assert filecmp.cmp(work["annotated"], out, shallow=False)


# the library call in which each stage does its main work
STAGE_CALLS = {
    "annotate": (ingest, "write_annotated"),
    "match": (matcher, "match_corpus"),
    "stats": (matcher, "occurrence_stats"),
    "build": (cb, "build_cxg_corpus"),
    "pairs": (ps, "sample_pairs"),
    "baseline": (bl, "train"),
}


class TestCollector:
    """`cli.main` runs every stage with the cyclic collector paused,
    freezes nothing, and leaves the collector as the caller had it."""

    def _run(self, command, work, tmp_path, monkeypatch, fail=False):
        """Run `command` of the fixture pipeline into `tmp_path`, recording
        whether the collector was enabled in its main library call, which
        raises an input error when `fail` is set."""
        seen = []
        module, name = STAGE_CALLS[command]
        call = getattr(module, name)

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            if fail:
                raise InputError("refused by the test")
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        if command == "stats":
            argv = ["stats", str(work["out"] / "match" / "table.tsv"),
                    str(tmp_path / "stats.tsv"), "--config", work["paths"]["config"]]
        else:
            (argv,) = [step for step in work["steps"] if step[0] == command]
            out = 2 if command == "annotate" else 3
            argv = [*argv[:out], str(tmp_path / command), *argv[out + 1:]]
        return cli.main(argv), seen

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "exit-2"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("command", sorted(STAGE_CALLS))
    def test_stage_pauses_and_restores_the_collector(
        self, command, enabled, fail, work, tmp_path, monkeypatch
    ):
        if not enabled:
            gc.disable()
        try:
            code, seen = self._run(command, work, tmp_path, monkeypatch, fail)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert code == (cli.EXIT_INPUT if fail else cli.EXIT_OK)
        assert seen and not any(seen)
        assert after == enabled

    def test_match_keeps_what_the_caller_froze(self, work, tmp_path, monkeypatch):
        held = [[i] for i in range(1000)]
        gc.freeze()
        try:
            assert gc.get_freeze_count() >= len(held)
            code, seen = self._run("match", work, tmp_path, monkeypatch)
            assert gc.get_freeze_count() >= len(held)
        finally:
            gc.unfreeze()
        assert code == cli.EXIT_OK and seen == [False]


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

    def test_jobs_flag_does_not_change_output(self, work, tmp_path, capsys):
        # `--jobs` is accepted for old scripts and ignored, with one line saying so
        paths = work["paths"]
        argv = ["match", work["annotated"], paths["inventory"], str(tmp_path / "match8"),
                "--config", paths["config"], "--jobs", "2"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == "--jobs 2 is ignored: match runs in one process\n"
        assert filecmp.cmp(
            work["out"] / "match" / "table.tsv", tmp_path / "match8" / "table.tsv",
            shallow=False,
        )


def _fail_after_writing(monkeypatch, owner, name, path_arg, call=1):
    """Make the writer `owner.name` raise on its `call`-th call, after
    leaving half of the file at its positional argument `path_arg`."""
    writer = getattr(owner, name)
    calls = itertools.count(1)

    def failing(*args):
        writer(*args)
        if next(calls) == call:
            path = Path(args[path_arg])
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(owner, name, failing)


def _rerun_annotate(work, tmp, out, monkeypatch):
    out.mkdir()
    annotated = copy_annotated(work, out)
    rows = Path(work["annotated"]).read_text("utf-8").splitlines(keepends=True)
    bad = next(i for i in range(3000, len(rows)) if rows[i] != "\n")  # past a buffer flush
    fields = rows[bad].split("\t")
    fields[4] = "NOTATAG"
    rows[bad] = "\t".join(fields)
    external = tmp / "external.tsv"
    external.write_text("".join(rows), encoding="utf-8")
    return ["annotate", external, annotated, "--mode", "pre-annotated"], f"{external}:{bad + 1}:"


def _rerun_match(work, tmp, out, monkeypatch):
    shutil.copytree(work["out"] / "match", out)
    _fail_after_writing(monkeypatch, matcher, "write_stats", 1)  # after table.tsv, discards.txt
    return ["match", work["annotated"], work["paths"]["inventory"], out,
            "--config", work["paths"]["config"], "--max-gap", "2"], "No space left"


def _rerun_stats(work, tmp, out, monkeypatch):
    out.mkdir()
    for name in ("stats.tsv", "stats.tsv.meta"):
        shutil.copy(work["out"] / "match" / name, out / name)
    _fail_after_writing(monkeypatch, matcher, "write_stats", 1)
    return ["stats", work["out"] / "match" / "table.tsv", out / "stats.tsv",
            "--config", work["paths"]["config"], "--band-edges", "2,100"], "No space left"


def _rerun_build(work, tmp, out, monkeypatch):
    shutil.copytree(work["out"] / "build", out)
    _fail_after_writing(monkeypatch, cb, "write_pretraining_file", 2, call=2)  # base.txt
    return ["build", work["annotated"], work["out"] / "match" / "table.tsv", out,
            "--config", work["paths"]["config"], "--seed", "9"], "No space left"


def _rerun_pairs(work, tmp, out, monkeypatch):
    shutil.copytree(work["out"] / "pairs", out)
    _fail_after_writing(monkeypatch, ps, "write_pairs", 2, call=2)  # dev.tsv
    return ["pairs", work["annotated"], work["out"] / "match" / "table.tsv", out,
            "--config", work["paths"]["config"], "--inoculation-sizes", "8,16",
            "--seed", "9"], "No space left"


def _rerun_baseline(work, tmp, out, monkeypatch):
    shutil.copytree(work["out"] / "baseline", out)
    _fail_after_writing(monkeypatch, bl, "save_model", 1)  # after both metrics files
    pairs = work["out"] / "pairs"
    return ["baseline", pairs / "train.tsv", pairs / "test.tsv", out, "--dev", pairs / "dev.tsv",
            "--epochs", "2", "--config", work["paths"]["config"]], "No space left"


FAILING_RERUNS = {
    "annotate": _rerun_annotate,
    "match": _rerun_match,
    "stats": _rerun_stats,
    "build": _rerun_build,
    "pairs": _rerun_pairs,
    "baseline": _rerun_baseline,
}


def _entries(root: Path) -> dict[str, bytes | None]:
    """Every entry of a directory: a file's bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in root.iterdir()}


@pytest.mark.parametrize("stage", list(FAILING_RERUNS))
def test_failed_stage_keeps_the_previous_outputs(stage, work, tmp_path, monkeypatch, capsys):
    """A stage rerun under another setting into the directory of an
    earlier run, failing partway through one of its files, exits 2 and
    leaves that directory as it was: no file of its own, no sidecar and
    no staging entry."""
    out = tmp_path / "out"
    argv, message = FAILING_RERUNS[stage](work, tmp_path, out, monkeypatch)
    before = _entries(out)
    code, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT and message in err, err
    assert _entries(out) == before


def test_successful_stages_leave_no_staging_entry(work):
    assert list(work["root"].rglob(".*")) == []


def test_stage_removes_staging_directories_of_dead_runs(work, tmp_path):
    """A stage killed by a signal leaves its staging directory behind;
    the next run of that stage there removes it, but never one of a
    live process, of another stage, or of another name."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: no process has its pid now
    out = tmp_path / "out"
    out.mkdir()
    dead, alive = f".stats.{child.pid}.k1ll3d_x", f".stats.{os.getppid()}.al1ve_xy"
    kept = [alive, f".build.{child.pid}.k1ll3d_x", f".stats.{child.pid}", f".stats.x{child.pid}.y",
            f".stats.{2**80}.no_pid_x"]
    for name in [dead, *kept]:
        (out / name).mkdir()
        (out / name / "stats.tsv").write_text("partial\n", encoding="utf-8")
    argv = ["stats", str(work["out"] / "match" / "table.tsv"), str(out / "stats.tsv"),
            "--config", str(work["paths"]["config"])]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.glob(".*")) == sorted(kept)
    assert (out / alive / "stats.tsv").read_text("utf-8") == "partial\n"


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

    @pytest.mark.parametrize("command", sorted(STAGE_KEYS))
    def test_stage_takes_the_settings_its_sidecars_record(self, command, work, tmp_path):
        options = {o for a in _subparser(command)._actions for o in a.option_strings}
        settings = {flag(name): name for name in EffectiveConfig._fields}
        taken = {settings[o] for o in options & settings.keys()}
        assert taken == set(STAGE_KEYS[command])
        root = work["out"]  # the fixture ran every stage but stats
        if command == "stats":
            root = tmp_path
            table = work["out"] / "match" / "table.tsv"
            assert cli.main(["stats", str(table), str(root / "stats.tsv"),
                             "--config", work["paths"]["config"]]) == 0
        sidecars = [meta for meta in root.rglob("*.meta")
                    if f"command = {command}\n" in meta.read_text("utf-8")]
        assert sidecars
        for meta in sidecars:
            recorded = {line[2:].partition(" = ")[0]
                        for line in meta.read_text("utf-8").splitlines() if line.startswith("# ")}
            assert recorded <= taken, meta

    def test_baseline_takes_the_band_of_its_pairs(self, work, tmp_path):
        table = work["out"] / "match" / "table.tsv"
        pairs = tmp_path / "p"
        config = ["--config", work["paths"]["config"], "--band", "2:50"]
        assert cli.main(["pairs", work["annotated"], str(table), str(pairs), *config]) == 0
        assert "band = 2:50" in (pairs / "train.tsv.meta").read_text("utf-8")
        assert cli.main(["baseline", str(pairs / "train.tsv"), str(pairs / "test.tsv"),
                         str(tmp_path / "b"), "--epochs", "1", *config]) == 0

    def test_pairs_writes_no_inoculation_subsets_by_default(self, work, tmp_path):
        argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
                str(tmp_path / "p"), "--config", work["paths"]["config"]]
        assert cli.main(argv) == 0
        assert not list((tmp_path / "p").glob("inoculation_*"))
        assert (tmp_path / "p" / "train.tsv").read_bytes() == (
            work["out"] / "pairs" / "train.tsv").read_bytes()

    def test_baseline_default_hyperparameters(self, work, tmp_path):
        pairs = work["out"] / "pairs"
        argv = ["baseline", str(pairs / "train.tsv"), str(pairs / "test.tsv"),
                "--config", work["paths"]["config"]]
        assert cli.main(argv[:3] + [str(tmp_path / "default")] + argv[3:]) == 0
        assert cli.main(argv[:3] + [str(tmp_path / "eight"), "--epochs", "8"] + argv[3:]) == 0
        assert bl.EPOCHS == 8
        assert (tmp_path / "default" / "model.bin").read_bytes() == (
            tmp_path / "eight" / "model.bin").read_bytes()


# Every option of each command, as spelled on the command line.
OPTIONS = {
    "annotate": {"--mode", "--lexicon", "--suffixes", "--clusters", "--config"},
    "match": {"--jobs", "--config", "--max-gap", "--band-edges"},
    "stats": {"--config", "--max-gap", "--band-edges"},
    "build": {"--variant", "--config", "--max-gap", "--band", "--seed"},
    "pairs": {"--inoculation-sizes", "--config", "--max-gap", "--band", "--seed", "--strictness"},
    "baseline": {"--dev", "--epochs", "--config", "--max-gap", "--band", "--seed", "--strictness"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_stage_takes_exactly_its_options(command):
    assert OPTIONS.keys() == STAGE_KEYS.keys()
    options = {o for a in _subparser(command)._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == OPTIONS[command]


def _subparser(command) -> argparse.ArgumentParser:
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices[command]


def run_cli(argv, capsys) -> tuple[int, str]:
    """Exit code and stderr of one CLI call; argparse refuses a command
    line by raising `SystemExit(2)`."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
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
        pairs = work["out"] / "pairs"
        argv = {
            "annotate": ["annotate", work["paths"]["corpus"], tmp / "a.tsv", "--mode", "pre-split"],
            "match": ["match", work["annotated"], work["paths"]["inventory"], tmp / "m"],
            "stats": ["stats", table, tmp / "stats.tsv"],
            "pairs": ["pairs", work["annotated"], table, tmp / "p"],
            "baseline": ["baseline", pairs / "train.tsv", pairs / "test.tsv", tmp / "b"],
        }[stage]
        # `--flag=value`, so that a value starting with "-" reaches the check
        return argv + ["--config", work["paths"]["config"], f"{flag}={value}"], flag
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


def _repeated_store_id(work, tmp):
    """The store's second line written twice: the copy, line 3, repeats its id."""
    annotated = _damaged_store(work, tmp, "repeated-id")
    argv = ["build", annotated, work["out"] / "match" / "table.tsv", tmp / "b",
            "--config", work["paths"]["config"]]
    return argv, f"{store_path(annotated)}:3: sentence ids must be strictly increasing"


def _bad_table_id(work, tmp):
    table = tmp / "table.tsv"
    shutil.copy(work["out"] / "match" / "table.tsv", table)
    table.write_text("x\t1 2\n" + table.read_text("utf-8"), encoding="utf-8")
    argv = ["build", work["annotated"], table, tmp / "b", "--config", work["paths"]["config"]]
    return argv, f"{table}:1"


def _bad_pair_label(work, tmp):
    test = tmp / "test.tsv"
    lines = (work["out"] / "pairs" / "test.tsv").read_text("utf-8").splitlines(keepends=True)
    label, rest = lines[2].split("\t", 1)
    lines[2] = f"{label.capitalize()}\t{rest}"
    test.write_text("".join(lines), encoding="utf-8")
    argv = ["baseline", work["out"] / "pairs" / "train.tsv", test, tmp / "b",
            "--config", work["paths"]["config"]]
    return argv, f"{test}:3"


def _baseline_case(argument, replace):
    """baseline with train, test and --dev, the pair file of `argument`
    replaced by `replace(its path, tmp)`; the error must name what
    `replace` returns second."""
    def case(work, tmp):
        pairs = work["out"] / "pairs"
        paths = {"train": pairs / "train.tsv", "test": pairs / "test.tsv", "--dev": pairs / "dev.tsv"}
        paths[argument], source = replace(paths[argument], tmp)
        argv = ["baseline", paths["train"], paths["test"], tmp / "b", "--dev", paths["--dev"],
                "--config", work["paths"]["config"]]
        return argv, source
    return case


def _empty_path(argument):
    return _baseline_case(argument, lambda path, tmp: ("", f"error: {argument}: the path is empty"))


def _pair_lines(argument, keep):
    """The pair file of `argument` replaced by a copy that holds only the
    lines `keep` returns; the error must name the copy."""
    def replace(path, tmp):
        copy = tmp / path.name
        copy.write_text("".join(keep(path.read_text("utf-8").splitlines(keepends=True))),
                        encoding="utf-8")
        return copy, f"error: {copy}: "
    return _baseline_case(argument, replace)


def _empty_resource(flag):
    def case(work, tmp):
        argv, _ = _flag_case("annotate", flag, "")(work, tmp)
        return argv, f"error: {flag}: the path is empty"
    return case


def _pre_annotated_case(second_row):
    def case(work, tmp):
        tsv = tmp / "external.tsv"
        tsv.write_text(f"3\t0\t0\ta\tNOUN\t-\n\n{second_row}\n", encoding="utf-8")
        return ["annotate", tsv, tmp / "annotated.tsv", "--mode", "pre-annotated"], f"{tsv}:3: "
    return case


def _resource_case(flag, content, where):
    """annotate with three small resource files, the one given to `flag`
    holding `content`; the error names that file and then `where`."""
    def case(work, tmp):
        files = {"--lexicon": "the\tDET\n", "--suffixes": "ing\tVERB\n", "--clusters": "dog\t0\n"}
        files[flag] = content
        argv = ["annotate", work["paths"]["corpus"], tmp / "a.tsv", "--mode", "pre-split"]
        for name, text in files.items():
            path = tmp / f"{name[2:]}.tsv"
            path.write_text(text, encoding="utf-8")
            argv += [name, path]
        return argv, f"{tmp / flag[2:]}.tsv{where}"
    return case


def _pre_annotated_with_resources(work, tmp):
    argv = ["annotate", work["annotated"], tmp / "a.tsv", "--mode", "pre-annotated",
            "--lexicon", work["paths"]["lexicon"], "--suffixes", work["paths"]["suffixes"]]
    return argv, "error: --lexicon, --suffixes: --mode pre-annotated"


def _damaged(run, damage):
    """`run(work, tmp)` gives the argv of a valid run and a file it reads;
    `damage(file)` changes that file and returns what the error must name."""
    def case(work, tmp):
        argv, path = run(work, tmp)
        return argv, damage(path)
    return case


def _invalid_utf8(path):
    """A byte that is not UTF-8 (0xe9) at the start of the second line."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xe9" + lines[1]
    path.write_bytes(b"".join(lines))
    return f"{path}:2: invalid UTF-8 at byte offset {len(lines[0])}"


def _bare_cr(path):
    """Lines that end with a bare '\\r', which make the file one line."""
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    return f"{path}:1: "


def _reads_inventory(work, tmp):
    inventory = Path(shutil.copy(work["paths"]["inventory"], tmp))
    argv = ["match", work["annotated"], inventory, tmp / "m", "--config", work["paths"]["config"]]
    return argv, inventory


def _inventory_text(text, error):
    """An inventory of `text`, whose error must name `path:error`."""
    def damage(path):
        path.write_text(text, encoding="utf-8")
        return f"{path}:{error}"
    return _damaged(_reads_inventory, damage)


def _reads_config(work, tmp):
    config = Path(shutil.copy(work["paths"]["config"], tmp))
    return ["match", work["annotated"], work["paths"]["inventory"], tmp / "m", "--config", config], config


def _reads_lexicon(work, tmp):
    lexicon = Path(shutil.copy(work["paths"]["lexicon"], tmp))
    argv = ["annotate", work["paths"]["corpus"], tmp / "a.tsv", "--mode", "pre-split",
            "--lexicon", lexicon, "--suffixes", work["paths"]["suffixes"]]
    return argv, lexicon


def _reads_table(work, tmp):
    table = Path(shutil.copy(work["out"] / "match" / "table.tsv", tmp))
    return ["build", work["annotated"], table, tmp / "b", "--config", work["paths"]["config"]], table


def _table_row_0(edit):
    """Rewrite the sentence ids of the table's first row with `edit`."""
    def damage(path):
        lines = path.read_text("utf-8").splitlines(keepends=True)
        cid, ids = lines[0].split("\t")
        lines[0] = f"{cid}\t{' '.join(edit(ids.split()))}\n"
        path.write_text("".join(lines), encoding="utf-8")
        return f"{path}:1: sentence ids are not strictly increasing"
    return _damaged(_reads_table, damage)


def _reads_pairs(work, tmp):
    test = Path(shutil.copy(work["out"] / "pairs" / "test.tsv", tmp))
    argv = ["baseline", work["out"] / "pairs" / "train.tsv", test, tmp / "b",
            "--config", work["paths"]["config"]]
    return argv, test


def _reads_store(work, tmp):
    annotated = copy_annotated(work, tmp)
    argv = ["match", annotated, work["paths"]["inventory"], tmp / "m",
            "--config", work["paths"]["config"]]
    return argv, store_path(annotated)


MALFORMED = {
    "config-seed": _config_case("seed = x"),
    "config-max-gap": _config_case("max_gap = x"),
    "config-negative-max-gap": _config_case("max_gap = -1"),
    "config-band-edges": _config_case("band_edges = 2,x"),
    "config-descending-band-edges": _config_case("band_edges = 50,2"),
    "config-unknown-key": _config_case("max-gap = 2"),
    "config-unknown-strictness": _config_case("strictness = disjiont"),
    "flag-band-edges": _flag_case("match", "--band-edges", "2,x"),
    "flag-descending-band-edges": _flag_case("match", "--band-edges", "50,2"),
    "flag-clusters-without-lexicon": _flag_case(
        "annotate", "--clusters", Path(cxgcorpus.__file__).parent / "resources" / "clusters.tsv"),
    "flag-empty-lexicon": _empty_resource("--lexicon"),
    "flag-empty-suffixes": _empty_resource("--suffixes"),
    "flag-empty-clusters": _empty_resource("--clusters"),
    "flag-inoculation-sizes": _flag_case("pairs", "--inoculation-sizes", "8,x"),
    "flag-negative-inoculation-size": _flag_case("pairs", "--inoculation-sizes", "-5,8"),
    "flag-descending-inoculation-sizes": _flag_case("pairs", "--inoculation-sizes", "16,8"),
    "flag-empty-inoculation-sizes": _flag_case("pairs", "--inoculation-sizes", ""),
    "flag-blank-inoculation-sizes": _flag_case("pairs", "--inoculation-sizes", " "),
    "flag-negative-max-gap": _flag_case("match", "--max-gap", "-1"),
    "flag-empty-max-gap": _flag_case("match", "--max-gap", ""),
    "flag-empty-band": _flag_case("pairs", "--band", ""),
    "flag-empty-seed": _flag_case("baseline", "--seed", ""),
    "flag-unknown-strictness": _flag_case("pairs", "--strictness", "disjiont"),
    "flag-zero-jobs": _flag_case("match", "--jobs", "0"),
    "flag-abbreviated-band-edges": _flag_case("stats", "--band", "2,50"),
    "flag-abbreviated-max-gap": _flag_case("match", "--max", "3"),
    "flag-zero-epochs": _flag_case("baseline", "--epochs", "0"),
    "flag-negative-epochs": _flag_case("baseline", "--epochs", "-2"),
    "pair-label-not-same-or-different": _bad_pair_label,
    "empty-test-path": _empty_path("test"),
    "empty-dev-path": _empty_path("--dev"),
    "empty-test-pairs": _pair_lines("test", lambda lines: []),
    "empty-dev-pairs": _pair_lines("--dev", lambda lines: []),
    "single-label-train": _pair_lines(
        "train", lambda lines: [line for line in lines if line.startswith("same\t")]),
    "one-pair-train": _pair_lines("train", lambda lines: lines[:1]),
    "missing-store": _missing_store,
    "annotated-edited-after-annotate": _edited_annotated,
    "store-non-integer-id": _bad_store_id,
    "store-repeated-sentence-id": _repeated_store_id,
    "table-non-integer-id": _bad_table_id,
    "table-repeated-sentence-id": _table_row_0(lambda ids: ids[:1] + ids),
    "table-unsorted-sentence-ids": _table_row_0(lambda ids: ids[::-1]),
    "lexicon-unknown-tag": _resource_case("--lexicon", "the\tDET\ndog\tBLORP\n", ":2: "),
    "suffixes-unknown-tag": _resource_case("--suffixes", "ing\tVERB\ns\tVB\n", ":2: "),
    "clusters-non-integer-id": _resource_case("--clusters", "dog\t0\ncat\tx\n", ":2: "),
    "clusters-not-contiguous": _resource_case("--clusters", "dog\t0\ncat\t2\n", ": cluster ids"),
    "pre-annotated-non-integer-id": _pre_annotated_case("x\t0\t1\tb\tNOUN\t-"),
    "pre-annotated-id-goes-backwards": _pre_annotated_case("2\t0\t1\tb\tNOUN\t-"),
    "pre-annotated-with-lexicon": _pre_annotated_with_resources,
    "inventory-invalid-utf8": _damaged(_reads_inventory, _invalid_utf8),
    "config-invalid-utf8": _damaged(_reads_config, _invalid_utf8),
    "lexicon-invalid-utf8": _damaged(_reads_lexicon, _invalid_utf8),
    "table-invalid-utf8": _damaged(_reads_table, _invalid_utf8),
    "pairs-invalid-utf8": _damaged(_reads_pairs, _invalid_utf8),
    "store-invalid-utf8": _damaged(_reads_store, _invalid_utf8),
    "inventory-bare-cr-line-ends": _damaged(_reads_inventory, _bare_cr),
    "inventory-duplicate-id": _inventory_text(
        "0\tlex:a pos:NOUN\n0\tlex:b pos:NOUN\n1\tlex:c\n", "2: duplicate cxg_id 0"),
    "inventory-identical-slots": _inventory_text(
        "0\tsem:7 pos:NOUN\n1\tsem:07 pos:NOUN\n",
        "2: constructions 0 and 1 have identical slot sequences"),
    "inventory-non-canonical-id": _inventory_text(
        "0\tlex:a pos:NOUN\n7_0\tlex:b pos:NOUN\n", "2: cxg_id '7_0' is not ASCII digits"),
    "inventory-non-decimal-sem": _inventory_text(
        "0\tsem:\u00b2 pos:NOUN\n", "1: column 3: sem id '\u00b2' is not an integer"),
    "config-bare-cr-line-ends": _damaged(_reads_config, _bare_cr),
    "lexicon-bare-cr-line-ends": _damaged(_reads_lexicon, _bare_cr),
    "table-bare-cr-line-ends": _damaged(_reads_table, _bare_cr),
    "pairs-bare-cr-line-ends": _damaged(_reads_pairs, _bare_cr),
    "store-bare-cr-line-ends": _damaged(_reads_store, _bare_cr),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_its_source(case, work, tmp_path, capsys):
    argv, source = MALFORMED[case](work, tmp_path)
    code, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT, err
    assert source in err


@pytest.mark.parametrize("case", ["empty-test-pairs", "empty-dev-pairs",
                                  "single-label-train", "one-pair-train"])
def test_baseline_refuses_a_pair_file_before_any_write(case, work, tmp_path, capsys):
    argv, _ = MALFORMED[case](work, tmp_path)
    assert run_cli(argv, capsys)[0] == cli.EXIT_INPUT
    assert not (tmp_path / "b").exists()


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
        rows = list(scan_annotated(store_path(annotated)))
        assert rows == load_annotated_file(annotated)
        assert rows[0].forms == ["New York", "is", "big"] and rows[0].sems == [7, None, 3]
        assert rows[1].sems == [None, None]

    def test_match_over_store_agrees_with_tsv_and_oracle(self, annotated, tmp_path):
        inventory = tmp_path / "inventory.tsv"
        inventory.write_text(
            "0\tpos:PROPN pos:AUX\n1\tpos:PRON pos:VERB\n2\tlex:is pos:ADJ\n"
            "3\tlex:runs pos:ADV\n",
            encoding="utf-8",
        )
        assert cli.main(["match", str(annotated), str(inventory), str(tmp_path / "m")]) == 0
        got = read_table(tmp_path / "m" / "table.tsv", tmp_path / "m" / "discards.txt")
        inv = load_inventory(inventory)
        sentences = load_annotated_file(annotated)
        expected = match_corpus(build_index(inv), sentences, 1)
        assert got.forward == expected.forward and got.discarded == expected.discarded
        for s in sentences:
            oracle = [con.cxg_id for con in brute_force_match(inv, s, 1)]
            assert got.constructions_of(s.sentence_id) == oracle

    def test_facet_missing_fires_on_store_path(self, annotated, tmp_path, capsys):
        # sentence 1 carries no sem id, the others do: only a corpus
        # without any is refused
        inventory = tmp_path / "inventory.tsv"
        inventory.write_text("0\tsem:7 pos:AUX\n1\tpos:PRON pos:VERB\n", encoding="utf-8")
        index = build_index(load_inventory(inventory))
        rows = list(scan_annotated(store_path(annotated)))
        assert match_corpus(index, rows, 1).forward == {0: [0], 1: [1, 4]}
        with pytest.raises(FacetMissingError, match="the corpus carries no SEM annotations"):
            match_corpus(index, rows[1:2], 1)
        assert cli.main(["match", str(annotated), str(inventory), str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "table.tsv").read_text(encoding="utf-8") == "0\t0\n1\t1 4\n"

        external = tmp_path / "no_sem.tsv"
        external.write_text("0\t0\t0\tit\tPRON\t-\n0\t0\t0\tis\tAUX\t-\n", encoding="utf-8")
        no_sem = tmp_path / "no_sem" / "annotated.tsv"
        assert cli.main(["annotate", str(external), str(no_sem), "--mode", "pre-annotated"]) == 0
        code, err = run_cli(["match", no_sem, inventory, tmp_path / "m2"], capsys)
        assert code == cli.EXIT_INPUT and "the corpus carries no SEM annotations" in err
        assert not (tmp_path / "m2").exists()  # the stage removes the directory it created

    def test_crlf_tsv_annotates_like_lf(self, annotated, tmp_path):
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(EXTERNAL_TSV.replace("\n", "\r\n").encode("utf-8"))
        again = tmp_path / "crlf" / "annotated.tsv"
        assert cli.main(["annotate", str(crlf), str(again), "--mode", "pre-annotated"]) == 0
        assert again.read_bytes() == annotated.read_bytes()
        assert store_path(again).read_bytes() == store_path(annotated).read_bytes()


def _store_line_2(edit):
    """Damage a store by rewriting its second line (without its newline)
    with `edit`, which may return several lines."""
    def damage(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[1] = edit(lines[1])
        return b"\n".join(lines)
    return damage


def _last_field(value: bytes):
    return _store_line_2(lambda line: line.rsplit(b"\t", 1)[0] + b"\t" + value)


STORE_DAMAGE = {
    "wrong-field-count": _store_line_2(lambda line: line.rsplit(b"\t", 1)[0]),
    "non-integer-id": _store_line_2(lambda line: b"x" + line),
    "bad-sem-field": _last_field(b"q"),
    "negative-sem-field": _last_field(b"-3"),
    "repeated-id": _store_line_2(lambda line: line + b"\n" + line),
    "invalid-utf8": _store_line_2(lambda line: b"\xe9" + line),
}


def _damaged_store(work, tmp, case) -> Path:
    annotated = copy_annotated(work, tmp)
    store = store_path(annotated)
    store.write_bytes(STORE_DAMAGE[case](store.read_bytes()))
    return annotated


def _read_both(store: Path, wanted):
    """What scan_annotated and store_texts give for `store`: the refs and
    the texts of `wanted`, or the message of the error they raise."""
    try:
        rows = list(scan_annotated(store))
        scanned = ([tuple(row[:3]) for row in rows],
                   {row.sentence_id: row.text for row in rows if row.sentence_id in wanted})
    except InputError as exc:
        scanned = str(exc)
    try:
        passed = ingest.store_texts(store, wanted)
    except InputError as exc:
        passed = str(exc)
    return scanned, passed


class TestStoreReaders:
    """scan_annotated (match's reader) and store_texts (the one pass of
    build and pairs) hold every store line to one contract."""

    def test_valid_store_reads_alike(self, work):
        store = store_path(work["annotated"])
        every = {row.sentence_id for row in scan_annotated(store)}
        for wanted in (every, set(range(0, 900, 7)), ()):
            scanned, passed = _read_both(store, wanted)
            assert passed == scanned
            assert len(passed[0]) == 900 and len(passed[1]) == len(set(wanted) & every)

    @pytest.mark.parametrize("case", sorted(STORE_DAMAGE))
    def test_damaged_store_is_refused_alike(self, case, work, tmp_path):
        store = store_path(_damaged_store(work, tmp_path, case))
        scanned, passed = _read_both(store, set(range(900)))
        assert isinstance(passed, str) and passed == scanned
        line = 3 if case == "repeated-id" else 2
        assert passed.startswith(f"{store}:{line}: ")

    @pytest.mark.parametrize("stage", ["match", "build", "pairs"])
    @pytest.mark.parametrize("case", sorted(STORE_DAMAGE))
    def test_every_stage_refuses_a_damaged_store_line(self, stage, case, work, tmp_path, capsys):
        annotated = _damaged_store(work, tmp_path, case)
        expected = _read_both(store_path(annotated), ())[0]
        config = ["--config", work["paths"]["config"]]
        table = work["out"] / "match" / "table.tsv"
        argv = {"match": ["match", annotated, work["paths"]["inventory"], tmp_path / "out"],
                "build": ["build", annotated, table, tmp_path / "out"],
                "pairs": ["pairs", annotated, table, tmp_path / "out"]}[stage]
        code, err = run_cli(argv + config, capsys)
        assert code == cli.EXIT_INPUT
        assert err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def _texts_spy(monkeypatch, module, name, ids):
    """Record, for each call of module.name(items, texts, path), the ids
    of its texts mapping and `ids(items)`, the ids the call writes."""
    calls = []
    real = getattr(module, name)

    def spy(items, texts, path):
        calls.append((set(texts), ids(items)))
        return real(items, texts, path)
    monkeypatch.setattr(module, name, spy)
    return calls


def test_pairs_keeps_only_the_texts_of_sampled_sentences(work, tmp_path, monkeypatch):
    calls = _texts_spy(monkeypatch, ps, "write_pairs",
                       lambda pairs: {sid for pair in pairs for sid in (pair.sent_a, pair.sent_b)})
    argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
            str(tmp_path / "p"), "--config", work["paths"]["config"], "--inoculation-sizes", "8"]
    assert cli.main(argv) == 0
    written = set().union(*(ids for _, ids in calls))  # train, dev, test and the subset
    assert len(calls) == 4 and all(texts == written for texts, _ in calls)
    assert len(written) < 900


def test_build_keeps_only_the_texts_of_the_band(work, tmp_path, monkeypatch):
    table = read_table(work["out"] / "match" / "table.tsv", work["out"] / "match" / "discards.txt")
    lowest = min(f for f in table.frequencies().values() if f >= 2)
    in_band = {sid for cid in table.select_band((lowest, lowest)) for sid in table.forward[cid]}
    calls = _texts_spy(monkeypatch, cb, "write_pretraining_file",
                       lambda docs: set().union(*docs))
    argv = ["build", work["annotated"], str(work["out"] / "match" / "table.tsv"),
            str(tmp_path / "b"), "--config", work["paths"]["config"],
            "--band", f"{lowest}:{lowest}"]
    assert cli.main(argv) == 0
    assert len(calls) == 3 and all(texts == ids == in_band for texts, ids in calls)
    assert len(in_band) < len(table.reverse)


def _count_reverse_builds(monkeypatch) -> list:
    """Replace OccurrenceTable.reverse with one that records each build."""
    builds = []
    real = matcher.OccurrenceTable.reverse.func

    def reverse(table):
        builds.append(table)
        return real(table)
    prop = functools.cached_property(reverse)
    prop.__set_name__(matcher.OccurrenceTable, "reverse")
    monkeypatch.setattr(matcher.OccurrenceTable, "reverse", prop)
    return builds


def test_build_and_anchor_pairs_never_build_the_transpose(work, tmp_path, monkeypatch, capsys):
    def refuse(table):
        raise AssertionError("the table's reverse was read")
    monkeypatch.setattr(matcher.OccurrenceTable, "reverse", property(refuse))
    table = str(work["out"] / "match" / "table.tsv")
    config = ["--config", work["paths"]["config"]]
    assert cli.main(["-v", "match", work["annotated"], work["paths"]["inventory"],
                     str(tmp_path / "match"), *config]) == 0
    matched = len(read_table(table, work["out"] / "match" / "discards.txt").sentence_ids)
    assert f"matched corpus: {matched} sentences instantiate" in capsys.readouterr().err
    assert cli.main(["build", work["annotated"], table, str(tmp_path / "build"), *config]) == 0
    assert cli.main(["pairs", work["annotated"], table, str(tmp_path / "pairs"), *config,
                     "--strictness", "anchor", "--inoculation-sizes", "8,16"]) == 0
    for stage in ("match", "build", "pairs"):
        written = sorted(p.name for p in (tmp_path / stage).iterdir())
        assert written == sorted(p.name for p in (work["out"] / stage).iterdir())
        for name in written:
            assert filecmp.cmp(tmp_path / stage / name, work["out"] / stage / name, shallow=False)


def test_disjoint_pairs_build_the_transpose_once_and_flag_a_shared_construction(
    work, tmp_path, monkeypatch
):
    table = read_table(work["out"] / "match" / "table.tsv", work["out"] / "match" / "discards.txt")
    # a 'different' pair one-sided on its anchor whose sentences share another construction
    anchor = work["desk"].anchor_cxg_ids[0]
    a = table.forward[anchor][0]
    b = next(sid for sid in table.sentence_ids if anchor not in table.constructions_of(sid)
             and set(table.constructions_of(sid)) & set(table.constructions_of(a)))
    bad = PairExample(a, b, "different", anchor, 2, 10000)
    real = ps.sample_pairs

    def sample(*args):
        sampled = real(*args)
        sampled.train.append(bad)
        return sampled
    monkeypatch.setattr(ps, "sample_pairs", sample)
    builds = _count_reverse_builds(monkeypatch)
    argv = ["pairs", work["annotated"], str(work["out"] / "match" / "table.tsv"),
            str(tmp_path / "p"), "--config", work["paths"]["config"], "--strictness", "disjoint"]
    assert cli.main(argv) == cli.EXIT_AUDIT
    assert len(builds) == 1
    audit = (tmp_path / "p" / "audit.txt").read_text("utf-8")
    assert audit.startswith("1 label violation(s), ")
