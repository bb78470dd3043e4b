"""Command-line entry point orchestrating the pipeline end to end.

Subcommands: annotate | match | build | pairs | baseline | stats.
Exit codes: 0 success, 2 input/config errors, 3 pair-audit failures,
4 corpus multiset-verification failures.

`main` runs every command the same way: it builds the command's
`EffectiveConfig` once (the config file overridden by the setting flags
given), runs the command with Python's cyclic garbage collector paused,
and enables the collector again afterwards only if the caller had it
enabled; nothing is frozen. A stage makes no reference cycles it needs
collected, so a collection would only traverse its many containers.

Each command imports the modules it runs when it starts, so that a
stage loads only its own code, and writes every output file through
`_outputs`, which stages the files and their sidecars in a hidden
directory and moves them into place only when the command has not
raised: a failed run leaves its output directory as it was.

`match` streams the sentence store through `ingest.scan_annotated`.
`build` and `pairs` first read the occurrence table and decide which
sentences they will write (the band's, the sampled pairs'), then read
the store once through `ingest.store_texts`, which checks every line
as `scan_annotated` does but keeps the texts of only those sentences.
Of the stages, only `pairs` under `disjoint` strictness builds the
table's transpose, `OccurrenceTable.reverse`; `match` counts the
sentences it matched without it.

`-v` makes `match` print two lines on stderr, the number of
constructions loaded and the numbers of matched and discarded
sentences; the other stages print nothing more. The CLI imports
neither `logging` nor `dataclasses`: both cost a stage milliseconds of
start-up for nothing it uses.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import CxgError, InputError, ParseError
from .workspace import (
    ANNOTATE_KEYS,
    BUILD_KEYS,
    PAIRS_KEYS,
    STAGE_KEYS,
    STATS_KEYS,
    TABLE_KEYS,
    EffectiveConfig,
    check_sidecar,
    flag,
    flag_help,
    parse_int_list,
    render_bound,
    write_sidecar,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_AUDIT = 3
EXIT_MULTISET = 4


def _sentence_store(annotated: str, config: EffectiveConfig) -> Path:
    """The sentence store annotate wrote next to `annotated`, checked to
    come from the file's current content."""
    from . import ingest

    check_sidecar(annotated, config, ANNOTATE_KEYS)
    store = ingest.store_path(annotated)
    if not store.is_file():
        raise InputError(
            f"{store}: sentence store not found; run `cxgcorpus annotate` to write "
            f"{annotated} and its store"
        )
    check_sidecar(store, config, ANNOTATE_KEYS, source=annotated)
    return store


def _load_resources(args):
    """The annotator's resources: the files the flags name, or the
    bundled ones; an empty path is refused. Pre-annotated mode takes the
    tags and clusters of its TSV, so it has no resources and refuses the
    flags."""
    from . import ingest

    given = [name for name in ("lexicon", "suffixes", "clusters")
             if getattr(args, name) is not None]
    for name in given:
        if not getattr(args, name):
            raise InputError(f"{flag(name)}: the path is empty")
    if args.mode == "pre-annotated":
        if given:
            raise InputError(f"{', '.join(map(flag, given))}: --mode pre-annotated reads the "
                             "tags and clusters of its TSV and takes no annotator resources")
        return None
    if given:
        if args.lexicon is None or args.suffixes is None:
            raise InputError("--lexicon and --suffixes must be given together, "
                             "and --clusters needs both")
        return ingest.AnnotationResources.load(args.lexicon, args.suffixes, args.clusters)
    return ingest.AnnotationResources.default()


def cmd_annotate(args, config: EffectiveConfig) -> int:
    from . import ingest

    resources = _load_resources(args)
    out = Path(args.out)
    with _outputs(out.parent, config, "annotate") as stage:
        stream = ingest.iter_raw_lines(args.input)
        sentences = ingest.annotate_corpus(stream, resources, args.mode, args.input)
        path = stage(out.name, ANNOTATE_KEYS)
        stage(ingest.store_path(out).name, ANNOTATE_KEYS, source=out.name)
        count = ingest.write_annotated(sentences, path)
    print(f"annotated {count} sentences -> {args.out}")
    return EXIT_OK


@contextmanager
def _outputs(directory, config, command):
    """Stage a command's output files in a hidden directory inside
    `directory`, which is created, and commit them together.

    Yields `path(name, keys, source=None)`: it records the sidecar keys
    of the output file `name` (and, with `source`, the name of the
    output it was derived from) and returns the staged path to write it
    at. When the block ends without an exception, also on a verdict
    exit, each staged file gets its sidecar and both are moved into
    `directory`. On an exception nothing is moved, and the staging
    directory is removed in either case. The staging directories that
    runs of `command` killed by a signal left behind are removed first.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _remove_stale_stages(directory, command)
    stage = Path(tempfile.mkdtemp(prefix=f".{command}.{os.getpid()}.", dir=directory))
    staged = {}

    def path(name, keys, source=None):
        staged[name] = (keys, source)
        return stage / name

    try:
        yield path
        for name, (keys, source) in staged.items():
            write_sidecar(stage / name, config, command, keys,
                          source=None if source is None else stage / source)
        for name in staged:
            os.replace(stage / name, directory / name)
            os.replace(stage / f"{name}.meta", directory / f"{name}.meta")
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _remove_stale_stages(directory: Path, command: str) -> None:
    """Remove each `.<command>.<pid>.*` directory whose process no
    longer runs; one of a live process, or of a pid this process may not
    signal, is kept."""
    for stale in directory.glob(f".{command}.*.*"):
        pid = stale.name[len(command) + 2:].partition(".")[0]
        if not (pid.isdecimal() and stale.is_dir()):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(stale, ignore_errors=True)
        except (OSError, OverflowError):
            pass


def cmd_match(args, config: EffectiveConfig) -> int:
    from . import ingest, matcher
    from . import inventory as inv

    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs != 1:
        print(f"--jobs {args.jobs} is ignored: match runs in one process", file=sys.stderr)
    store = _sentence_store(args.annotated, config)
    index = matcher.build_index(inv.load_inventory(args.inventory))
    if args.verbose:
        print(f"loaded {index.size} constructions from {args.inventory}", file=sys.stderr)
    with _outputs(args.out, config, "match") as stage:
        corpus = ingest.scan_annotated(store)
        table = matcher.match_corpus(index, corpus, config.max_gap)
        matched = len(table.sentence_ids)
        if args.verbose:
            print(f"matched corpus: {matched} sentences instantiate >=1 construction, "
                  f"{len(table.discarded)} discarded", file=sys.stderr)
        table.write(stage("table.tsv", TABLE_KEYS), stage("discards.txt", TABLE_KEYS))
        stats = matcher.occurrence_stats(table, config.band_edges)
        matcher.write_stats(stats, stage("stats.tsv", STATS_KEYS))
    print(
        f"matched {matched} sentences against {index.size} constructions "
        f"({len(table.discarded)} discarded) -> {Path(args.out) / 'table.tsv'}"
    )
    return EXIT_OK


def cmd_stats(args, config: EffectiveConfig) -> int:
    from . import matcher

    check_sidecar(args.table, config, TABLE_KEYS)
    table = matcher.OccurrenceTable.read(args.table)
    stats = matcher.occurrence_stats(table, config.band_edges)
    out = Path(args.out)
    with _outputs(out.parent, config, "stats") as stage:
        matcher.write_stats(stats, stage(out.name, STATS_KEYS))
    for band in stats.bands:
        print(f"band {band.lo}..{render_bound(band.hi)}: {band.count} constructions")
    print(f"below {config.band_edges[0]}: {stats.below_min} constructions")
    return EXIT_OK


def _checked_table(args, config: EffectiveConfig):
    """The sentence store of `args.annotated` and the occurrence table
    `args.table`, both checked against their sidecars."""
    from . import matcher

    store = _sentence_store(args.annotated, config)
    check_sidecar(args.table, config, TABLE_KEYS)
    return store, matcher.OccurrenceTable.read(args.table)


def _store_texts(args, store: Path, table, wanted):
    """One checked pass over the store: its `SentenceRef`s in store
    order and the texts of the sentences in `wanted` by id. A table
    naming a sentence the store lacks is refused."""
    from . import ingest

    refs, texts = ingest.store_texts(store, wanted)
    missing = set().union(*table.forward.values()).difference(ref[0] for ref in refs)
    if missing:
        raise InputError(
            f"{args.table} names {len(missing)} sentence id(s) that {args.annotated} "
            f"does not hold (the lowest is {min(missing)}); match the table from that corpus"
        )
    return refs, texts


def cmd_build(args, config: EffectiveConfig) -> int:
    from . import corpus_builder as cb

    store, table = _checked_table(args, config)
    band = config.band
    built = {"cxg": cb.build_cxg_corpus(table, band)}
    target = built["cxg"][1].total_occurrences
    # every variant writes only the sentences of the cxg variant's documents
    wanted = set().union(*built["cxg"][0])
    corpus, texts = _store_texts(args, store, table, wanted)
    want = ("cxg", "base", "random") if args.variant == "all" else (args.variant,)
    with _outputs(args.out, config, "build") as stage:
        if "base" in want or "random" in want:
            built["base"] = cb.build_base_clone(corpus, table, band, target, kept=wanted)
            if "random" in want:
                built["random"] = cb.build_random(built["base"][0], config.seed, band)
        for name in want:
            docs, manifest = built[name]
            cb.write_pretraining_file(docs, texts, stage(f"{name}.txt", BUILD_KEYS))
            manifest.write(stage(f"{name}.manifest", BUILD_KEYS))
            print(
                f"built {name}: {manifest.n_documents} documents, "
                f"{manifest.total_occurrences} sentence occurrences -> "
                f"{Path(args.out) / f'{name}.txt'}"
            )
        if args.variant != "all":
            return EXIT_OK
        base = cb.occurrences(built["base"][0])  # counted once for both comparisons
        report_cxg = cb.verify_multiset(built["cxg"][0], base)
        report_rand = cb.verify_multiset(base, built["random"][0])
        stage("verify.txt", BUILD_KEYS).write_text(
            f"cxg vs base: {report_cxg.summary()}\n"
            f"base vs random: {report_rand.summary()}\n",
            encoding="utf-8",
        )
    if not report_cxg.equal_totals or not report_rand.equal_multisets:
        print("multiset verification FAILED", file=sys.stderr)
        return EXIT_MULTISET
    print(f"multiset verification ok (T={target})")
    return EXIT_OK


def cmd_pairs(args, config: EffectiveConfig) -> int:
    from . import pair_sampler as ps

    sizes = ()
    if args.inoculation_sizes is not None:
        try:
            sizes = parse_int_list(args.inoculation_sizes)
        except ParseError as exc:
            raise ParseError(f"--inoculation-sizes: {exc}") from exc
        if min(sizes) < 1 or list(sizes) != sorted(sizes):
            raise ParseError(
                f"--inoculation-sizes: sizes must be positive and ascending, "
                f"got {args.inoculation_sizes!r}"
            )

    store, table = _checked_table(args, config)
    with _outputs(args.out, config, "pairs") as stage:
        sampled = ps.sample_pairs(table, config.band, config.seed, config.strictness)
        subsets = ps.make_inoculation_subsets(sampled.train, sizes, config.seed)
        report = ps.audit_pairs(
            {"train": sampled.train, "dev": sampled.dev, "test": sampled.test},
            table,
            config.strictness,
        )
        # the subsets are drawn from train, so the splits name every sentence written
        wanted = {sid for name in ps.SPLITS for pair in sampled.split(name)
                  for sid in (pair.sent_a, pair.sent_b)}
        _, texts = _store_texts(args, store, table, wanted)
        stage("audit.txt", PAIRS_KEYS).write_text(report.summary() + "\n", encoding="utf-8")
        if not report.ok:
            print(f"pair audit FAILED: {report.summary()}", file=sys.stderr)
            return EXIT_AUDIT
        for name in ps.SPLITS:
            ps.write_pairs(sampled.split(name), texts, stage(f"{name}.tsv", PAIRS_KEYS))
        ps.write_shortfalls(sampled.shortfalls, stage("shortfall.tsv", PAIRS_KEYS))
        for size, subset in subsets.items():
            ps.write_pairs(subset, texts, stage(f"inoculation_{size}.tsv", PAIRS_KEYS))
    print(
        f"sampled pairs: train={len(sampled.train)} dev={len(sampled.dev)} "
        f"test={len(sampled.test)}, {len(sampled.shortfalls)} shortfall entries, audit ok"
    )
    return EXIT_OK


def cmd_baseline(args, config: EffectiveConfig) -> int:
    from . import baseline as bl
    from . import pair_sampler as ps

    for name, path in (("train", args.train), ("test", args.test), ("--dev", args.dev)):
        if path == "":
            raise InputError(f"{name}: the path is empty")
    epochs = bl.EPOCHS if args.epochs is None else args.epochs
    if epochs < 1:
        raise InputError(f"--epochs must be at least 1, got {epochs}")
    scoring = ([("metrics_dev.tsv", args.dev)] if args.dev else []) + [("metrics.tsv", args.test)]
    for path in (args.train, *(path for _, path in scoring)):
        check_sidecar(path, config, PAIRS_KEYS)
    train_pairs = ps.read_pairs(args.train)
    # all pair files are read and checked first, so that a bad one stops the stage before any write
    scored = {name: ps.read_pairs(path) for name, path in scoring}
    for name, path in scoring:
        if not scored[name]:
            raise InputError(f"{path}: cannot evaluate on an empty pair list")
    memo: dict = {}  # featurize_pair's side arrays and unigram/cross buckets, for the whole run
    try:
        model = bl.train(train_pairs, epochs, config.seed, memo)
    except InputError as exc:  # too few pairs, or one label only
        raise InputError(f"{args.train}: {exc}") from None
    with _outputs(args.out, config, "baseline") as stage:
        for name, pairs in scored.items():
            result = bl.evaluate(model, pairs, memo)
            bl.write_metrics(result, stage(name, PAIRS_KEYS))
        bl.save_model(model, stage("model.bin", PAIRS_KEYS))
    print(
        f"baseline: train_acc={model.train_accuracy:.4f} test_acc={result.accuracy:.4f} "
        f"({result.n_pairs} pairs) -> {Path(args.out) / 'metrics.tsv'}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxgcorpus",
        description="Construction-grammar corpus engine: annotate, match, "
        "build pre-training corpora, sample probe pairs, run the baseline.",
        allow_abbrev=False,
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="match: print what was loaded and matched on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag is taken only as spelled in full, so that a prefix of a
    # setting another stage takes (`stats --band` for `--band-edges`) is refused
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("annotate", help="parse and annotate a raw corpus")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--mode", choices=["raw", "pre-split", "pre-annotated"], default="raw")
    p.add_argument("--lexicon")
    p.add_argument("--suffixes")
    p.add_argument("--clusters")
    p.set_defaults(func=cmd_annotate)

    p = add_parser("match", help="match an inventory against an annotated corpus")
    p.add_argument("annotated")
    p.add_argument("inventory")
    p.add_argument("out", help="output directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored, for old scripts: match runs in one process")
    p.set_defaults(func=cmd_match)

    p = add_parser("stats", help="frequency bands of an occurrence table")
    p.add_argument("table")
    p.add_argument("out")
    p.set_defaults(func=cmd_stats)

    p = add_parser("build", help="build pre-training corpus variants")
    p.add_argument("annotated")
    p.add_argument("table")
    p.add_argument("out", help="output directory")
    p.add_argument("--variant", choices=["cxg", "base", "random", "all"], default="all")
    p.set_defaults(func=cmd_build)

    p = add_parser("pairs", help="sample same-construction pair datasets")
    p.add_argument("annotated")
    p.add_argument("table")
    p.add_argument("out", help="output directory")
    p.add_argument("--inoculation-sizes", dest="inoculation_sizes",
                   help="comma list of training-subset sizes; none by default")
    p.set_defaults(func=cmd_pairs)

    p = add_parser("baseline", help="train/evaluate the pair-probe baseline")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("out", help="output directory")
    p.add_argument("--dev")
    p.add_argument("--epochs", type=int)  # the default is baseline.EPOCHS, read when the stage runs
    p.set_defaults(func=cmd_baseline)

    for command, p in sub.choices.items():
        p.add_argument("--config", help="key = value config file")
        for key in STAGE_KEYS[command]:
            p.add_argument(flag(key), dest=key, help=flag_help(key))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        overrides = {key: getattr(args, key) for key in STAGE_KEYS[args.command]
                     if getattr(args, key) is not None}
        return args.func(args, EffectiveConfig.from_sources(args.config, overrides))
    except (CxgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
