"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Criteria cover matcher oracle
equivalence, the documented four-slot replay, corpus-build invariants,
band arithmetic, pair audits, baseline behaviour, end-to-end
determinism, and throughput targets.
"""

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cxgcorpus.baseline import EPOCHS, evaluate, shuffle_control, train
from cxgcorpus.corpus_builder import (
    build_base_clone,
    build_cxg_corpus,
    build_random,
)
from cxgcorpus.ingest import AnnotationResources, Token, annotate_corpus
from cxgcorpus.inventory import Construction, Inventory, SlotConstraint, parse_construction_spec
from cxgcorpus.matcher import (
    OccurrenceTable,
    brute_force_match,
    build_index,
    match_corpus,
    match_sentence,
    occurrence_stats,
)
from cxgcorpus.pair_sampler import (
    QUOTAS,
    audit_pairs,
    make_inoculation_subsets,
    sample_pairs,
)

from helpers import (
    band_ids,
    freq,
    from_tokens,
    make_desk,
    make_lexical_corpus,
    random_matcher_case,
    write_desk_files,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


TABLE1_SENTENCES = [
    "She didn't understand how I could do so poorly.",
    'Kiedis recalled of the situation: "He had such an outpouring of creativity '
    'while we were making that album that I think he really didn\'t know how to '
    'live life in tandem with that creativity."',
    "We didn't know how or why.",
    "One day she picked up a book and as she opened it, a white child took it "
    "away from her, saying she didn't know how to read.",
    'In a 1978 interview, Dylan reflected on the period: "I didn\'t know how to '
    'record the way other people were recording, and I didn\'t want to.',
    "And it can be on my album, too, I just didn't realize how it worked... At "
    "first when I got this, people didn't know that I was an artist, so it was, "
    "like, 'Oh, this songwriter BC.'",
]
CONTIGUOUS = {0, 2, 3, 4}  # the others need one skipped token


def test_matcher_oracle_equivalence():
    rng = random.Random(424242)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        max_gap = rng.choice((0, 1, 2))
        inventory, sentence = random_matcher_case(rng, max_gap)
        index = build_index(inventory)
        fast = match_sentence(index, sentence, max_gap)
        slow = [con.cxg_id for con in brute_force_match(inventory, sentence, max_gap)]
        if fast != slow:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "matcher-oracle-equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"1000 cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_table1_replay():
    resources = AnnotationResources.default()
    construction = parse_construction_spec("7\tpos:PRON lex:didn't pos:VERB lex:how")
    inventory = Inventory([construction])
    index = build_index(inventory)
    stream = " = Replay = \n" + "\n".join(TABLE1_SENTENCES) + "\n"
    sentences = list(annotate_corpus(stream, resources, "pre-split"))
    assert len(sentences) == 6

    gap1 = [bool(match_sentence(index, s, 1)) for s in sentences]
    gap0 = [bool(match_sentence(index, s, 0)) for s in sentences]
    ok = all(gap1)
    ok = ok and all(gap0[i] for i in CONTIGUOUS)
    ok = ok and not any(gap0[i] for i in range(6) if i not in CONTIGUOUS)
    report(
        "table1-replay", ok,
        f"max_gap=1 matches {sum(gap1)}/6, max_gap=0 matches {sum(gap0)}/6 (contiguous only)",
    )


def test_corpus_build_invariants(desk):
    start = time.perf_counter()
    corpus = desk.sentences[:10000]
    index = build_index(desk.inventory)
    table = match_corpus(index, corpus, max_gap=1)
    band = (2, 10000)

    cxg_docs, cxg_manifest = build_cxg_corpus(table, band)
    recount = sum(freq(table, c) for c in table.select_band(band))
    ok_a = cxg_manifest.total_occurrences == recount == sum(map(len, cxg_docs))

    base_docs, base_manifest = build_base_clone(corpus, band_ids(table, band), band, recount)
    ok_b = sum(map(len, base_docs)) == recount

    random_docs, _ = build_random(base_docs, seed=99, band=band)
    base_sorted = sorted(s for d in base_docs for s in d)
    random_sorted = sorted(s for d in random_docs for s in d)
    ok_c = base_sorted == random_sorted

    meta = {s.sentence_id: (s.article_id, s.position_in_article) for s in corpus}
    adjacent = 0
    violations = 0
    for doc in base_docs:
        for a, b in zip(doc, doc[1:]):
            adjacent += 1
            art_a, pos_a = meta[a]
            art_b, pos_b = meta[b]
            if art_a != art_b or pos_b != pos_a + 1:
                violations += 1
    ok_d = violations == 0
    elapsed = time.perf_counter() - start
    report(
        "corpus-build-invariants",
        ok_a and ok_b and ok_c and ok_d and elapsed < 120.0,
        f"T={recount}, adjacency {adjacent - violations}/{adjacent}, {elapsed:.1f}s",
    )


def test_band_arithmetic(desk_table):
    stats = occurrence_stats(desk_table, (2, 10000))
    lower, upper = stats.bands[0].count, stats.bands[1].count
    all_count = sum(1 for f in desk_table.frequencies().values() if f >= 2)
    ok_desk = lower + upper == all_count

    # synthetic table with the reference shape: 21,216 constructions in
    # [2, 10000] plus 465 above 10,000 must sum to 21,681
    forward = {}
    for i in range(21216):
        forward[i] = list(range(2 + (i % 50)))
    shared_upper = list(range(10001))
    for i in range(465):
        forward[21216 + i] = shared_upper
    table = OccurrenceTable(forward)
    stats = occurrence_stats(table, (2, 10000))
    ok_shape = (
        stats.bands[0].count == 21216
        and stats.bands[1].count == 465
        and stats.bands[0].count + stats.bands[1].count == 21681
    )
    # quota arithmetic: 21,216 constructions at 2 positive + 2 negative
    # training pairs each allow up to 84,864 training pairs
    per_cxg = sum(QUOTAS["train"])
    ok_quota = len(table.select_band((2, 10000))) * per_cxg == 84864
    report(
        "band-arithmetic",
        ok_desk and ok_shape and ok_quota,
        f"desk {lower}+{upper}={all_count}; reference 21216+465=21681; "
        f"max training pairs 21216*{per_cxg}=84864",
    )


def test_pair_audit(desk_table):
    band = (2, 10000)
    sampled = sample_pairs(desk_table, band, 31, "anchor")
    audit = audit_pairs(
        {"train": sampled.train, "dev": sampled.dev, "test": sampled.test},
        desk_table,
        "anchor",
    )
    ok_audit = audit.ok

    shortfall_ids = {s.cxg_id for s in sampled.shortfalls}
    ok_quotas = True
    for cid in desk_table.select_band(band):
        if freq(desk_table, cid) < 5 or cid in shortfall_ids:
            continue
        got = [
            sum(1 for p in sampled.train if p.anchor_cxg == cid and p.label == "same"),
            sum(1 for p in sampled.train if p.anchor_cxg == cid and p.label == "different"),
            sum(1 for p in sampled.dev if p.anchor_cxg == cid),
            sum(1 for p in sampled.test if p.anchor_cxg == cid),
        ]
        ok_quotas = ok_quotas and got == [2, 2, 2, 2]
    ok_quotas = ok_quotas and not any(
        freq(desk_table, s.cxg_id) >= 5 for s in sampled.shortfalls
    )

    sizes = (16, 40, 100)
    subsets = make_inoculation_subsets(sampled.train, sizes, seed=31)
    ok_inoc = True
    prev = []
    for size in sizes:
        subset = subsets[size]
        same = sum(p.label == "same" for p in subset)
        ok_inoc = ok_inoc and abs(same - (size - same)) <= 1
        ok_inoc = ok_inoc and subset[: len(prev)] == prev
        prev = subset
    report(
        "pair-audit",
        ok_audit and ok_quotas and ok_inoc,
        f"{audit.summary()}; quotas exact; subsets nested/balanced {sizes}",
    )


def _pairs_to_text(pairs, texts):
    from cxgcorpus.pair_sampler import PairText

    return [
        PairText(p.label, texts[p.sent_a], texts[p.sent_b], p.anchor_cxg, p.band_lo, p.band_hi)
        for p in pairs
    ]


def test_baseline_learnability_control_and_band_ordering(desk, desk_table):
    # (a) learnability: every construction of the synthetic corpus is
    # lexically anchored (two LEX slots); held-out accuracy must clear 0.90
    lex_sentences, lex_inventory = make_lexical_corpus()
    lex_table = match_corpus(build_index(lex_inventory), lex_sentences, max_gap=1)
    lex_texts = {s.sentence_id: s.text for s in lex_sentences}
    lex = sample_pairs(lex_table, (2, 10000), 41, "anchor")
    train_lex = _pairs_to_text(lex.train, lex_texts)
    test_lex = _pairs_to_text(lex.test, lex_texts)
    model_lex = train(train_lex, EPOCHS, 3)
    acc_learn = evaluate(model_lex, test_lex).accuracy
    ok_learn = acc_learn >= 0.90

    # (b) label-shuffle control: mean accuracy over 5 seeds within 0.50 +/- 0.05
    control_accs = []
    for seed in range(5):
        shuffled = shuffle_control(train_lex, seed=seed)
        control_model = train(shuffled, EPOCHS, seed)
        control_accs.append(evaluate(control_model, test_lex).accuracy)
    control_mean = statistics.mean(control_accs)
    ok_control = 0.45 <= control_mean <= 0.55

    # (c) band-difficulty ordering on the desk corpus: the >10000 band
    # (abstract POS patterns) is strictly harder than the 2-50 band
    # (lexical anchors)
    texts = desk.texts
    lower = sample_pairs(desk_table, (2, 50), 41, "anchor")
    model_lower = train(_pairs_to_text(lower.train, texts), EPOCHS, 3)
    test_lower = _pairs_to_text(lower.test, texts)
    acc_lower = evaluate(model_lower, test_lower).accuracy
    upper = sample_pairs(desk_table, (10001, None), 41, "anchor")
    model_upper = train(_pairs_to_text(upper.train, texts), EPOCHS, 3)
    test_upper = _pairs_to_text(upper.test, texts)
    acc_upper = evaluate(model_upper, test_upper).accuracy
    ok_order = acc_lower > acc_upper

    report(
        "baseline-learnability-control-ordering",
        ok_learn and ok_control and ok_order,
        f"learnability acc={acc_learn:.3f} (n={len(test_lex)}), control mean={control_mean:.3f}, "
        f"band 2-50 acc={acc_lower:.3f} > band >10000 acc={acc_upper:.3f} (n={len(test_upper)})",
    )


def _run_pipeline(paths, out: Path, hashseed: str, jobs: str = "1") -> None:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    annotated = str(out / "annotated.tsv")
    steps = [
        ["annotate", paths["corpus"], annotated, "--mode", "pre-split",
         "--lexicon", paths["lexicon"], "--suffixes", paths["suffixes"],
         "--clusters", paths["clusters"], "--config", paths["config"]],
        ["match", annotated, paths["inventory"], str(out / "match"),
         "--config", paths["config"], "--jobs", jobs],
        ["build", annotated, str(out / "match" / "table.tsv"), str(out / "build"),
         "--variant", "all", "--config", paths["config"]],
        ["pairs", annotated, str(out / "match" / "table.tsv"), str(out / "pairs"),
         "--config", paths["config"], "--inoculation-sizes", "8,16"],
        ["baseline", str(out / "pairs" / "train.tsv"), str(out / "pairs" / "test.tsv"),
         str(out / "baseline"), "--epochs", "3", "--config", paths["config"]],
    ]
    for argv in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "cxgcorpus.cli"] + argv,
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr}"


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_end_to_end_determinism(tmp_path):
    desk = make_desk(seed=77, n_sentences=1500, n_articles=50, n_anchors=12)
    paths = write_desk_files(desk, tmp_path / "input")

    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(paths, run_a, hashseed="1")
    _run_pipeline(paths, run_b, hashseed="2")
    tree_a = _tree_bytes(run_a)
    tree_b = _tree_bytes(run_b)
    ok_repeat = tree_a == tree_b

    # --jobs must not affect outputs either
    run_c = tmp_path / "run_c"
    run_c.mkdir()
    _run_pipeline(paths, run_c, hashseed="3", jobs="8")
    ok_jobs = _tree_bytes(run_c) == tree_a

    report(
        "end-to-end-determinism",
        ok_repeat and ok_jobs,
        f"{len(tree_a)} files byte-identical across reruns and --jobs 1 vs 8",
    )


def _synthetic_throughput_inventory(rng, size=20000):
    tags = ("NOUN", "VERB", "DET", "ADJ", "ADP", "ADV", "PRON", "AUX")
    words = [f"t{i:05d}" for i in range(30000)]
    seen = set()
    constructions = []
    while len(constructions) < size:
        k = rng.randrange(2, 6)
        slots = []
        for _ in range(k):
            r = rng.random()
            if r < 0.5:
                slots.append(SlotConstraint("LEX", rng.choice(words)))
            elif r < 0.9:
                slots.append(SlotConstraint("POS", rng.choice(tags)))
            else:
                slots.append(SlotConstraint("SEM", str(rng.randrange(50))))
        slots = tuple(slots)
        if any(s.kind == "LEX" for s in slots) and slots not in seen:
            seen.add(slots)
            constructions.append(Construction(len(constructions), slots))
    return Inventory(constructions), words, tags


def test_throughput_and_pipeline_runtime(tmp_path):
    rng = random.Random(4242)
    inventory, words, tags = _synthetic_throughput_inventory(rng)
    index = build_index(inventory)
    sentences = []
    for sid in range(20000):
        toks = (
            Token(rng.choice(words), rng.choice(tags), rng.randrange(50))
            for _ in range(20)
        )
        sentences.append(from_tokens(sid, 0, sid, toks))
    start = time.perf_counter()
    match_corpus(index, sentences, max_gap=1)
    elapsed = time.perf_counter() - start
    rate = len(sentences) / elapsed
    ok_rate = rate >= 5000

    # full desk pipeline at ~100k sentences through the CLI
    desk = make_desk(seed=29, n_sentences=100000, n_articles=2000)
    paths = write_desk_files(desk, tmp_path / "big")
    del desk
    out = tmp_path / "bigrun"
    out.mkdir()
    start = time.perf_counter()
    _run_pipeline(paths, out, hashseed="1")
    pipeline_elapsed = time.perf_counter() - start
    ok_pipeline = pipeline_elapsed < 300.0
    report(
        "throughput",
        ok_rate and ok_pipeline,
        f"{rate:.0f} sentences/s vs 20k constructions; "
        f"100k-sentence pipeline in {pipeline_elapsed:.0f}s",
    )
