"""Seeded input generators for the benchmark workloads.

The generators live here, not in the test helpers, so that an edit to
the tests cannot change what the benchmark measures. Each writes plain
input files for the `cxgcorpus` CLI.

A workload's structure comes from its fixed generator seed: `write_desk`
draws the same random sequence as the desk corpus of the test suite,
and `write_throughput` the same as the 20k-construction throughput
fixture. The benchmark's `--seed` picks `relabel`, a seeded permutation
of the open-class words (nouns among nouns, verbs among verbs, the
throughput vocabulary among itself) applied to every file. Each word
keeps its length, tag and cluster, so every seed gives different files
that cost the program the same work and yield the same counts; a run's
spread is then the machine's and the program's, not the inputs'.
`relabel = 0` leaves the words as drawn.
"""

from __future__ import annotations

import random
from pathlib import Path

_CONFIG = (
    "seed = 7\nband = 2:10000\nmax_gap = 1\nstrictness = {strictness}\n"
    "band_edges = 2,50,100,1000,10000\n"
)


def _relabeling(pools, seed: int) -> dict[str, str]:
    """A permutation of the words of each pool, drawn with `seed`."""
    rng = random.Random(seed)
    mapping = {}
    for pool in pools:
        shuffled = list(pool)
        if seed:
            rng.shuffle(shuffled)
        mapping.update(zip(pool, shuffled))
    return mapping


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_desk(
    root: Path, seed: int, relabel: int, n_sentences: int, n_articles: int, n_anchors: int
) -> dict[str, Path]:
    """Desk corpus: tokens drawn i.i.d. from tag-class pools, with
    `azNN bzNN` anchor bigrams planted into 20-45 sentences each; the
    inventory has one construction per anchor, six mid-frequency and
    four POS-bigram constructions."""
    rng = random.Random(seed)
    nouns = [f"n{i:04d}" for i in range(6000)]
    verbs = [f"v{i:04d}" for i in range(4000)]
    dets = ["the", "a", "this", "that", "each", "some", "every", "another"]
    adps = ["of", "in", "on", "at", "with", "from", "by", "for"]
    puncts = [".", ",", ";"]
    anchors = [(f"az{i:02d}", f"bz{i:02d}") for i in range(n_anchors)]
    anchor_words = [w for pair in anchors for w in pair]

    tag_of = {}
    for pool, tag in ((nouns, "NOUN"), (verbs, "VERB"), (dets, "DET"),
                      (adps, "ADP"), (puncts, "PUNCT"), (anchor_words, "NOUN")):
        for w in pool:
            tag_of[w] = tag
    vocab = sorted(tag_of)
    label = _relabeling((nouns, verbs), relabel)

    pools = [nouns, verbs, dets, adps, puncts]
    weights = [0.40, 0.20, 0.25, 0.10, 0.05]
    raw = []
    for _ in range(n_sentences):
        n = rng.randrange(18, 23)
        raw.append([rng.choice(pool) for pool in rng.choices(pools, weights, k=n)])

    available = list(range(n_sentences))
    rng.shuffle(available)
    cursor = 0
    for first, second in anchors:
        for _ in range(rng.randrange(20, 46)):
            sid = available[cursor]
            cursor += 1
            at = rng.randrange(0, len(raw[sid]) + 1)
            raw[sid][at:at] = [first, second]

    per_article = max(1, n_sentences // n_articles)

    def corpus_lines():
        last_aid = None
        for sid, forms in enumerate(raw):
            aid = min(sid // per_article, n_articles - 1)
            if aid != last_aid:
                yield f" = Article {aid} = "
                last_aid = aid
            yield " ".join(label.get(f, f) for f in forms)

    specs = [f"lex:{a} lex:{b}" for a, b in anchors]
    specs += [
        "lex:of pos:DET", "lex:in pos:DET", "lex:the pos:NOUN", "lex:a pos:VERB",
        "sem:3 pos:PUNCT", "lex:with pos:NOUN pos:PUNCT",
    ]
    specs += [f"pos:{a} pos:{b}" for a, b in
              (("NOUN", "NOUN"), ("DET", "NOUN"), ("NOUN", "VERB"), ("VERB", "NOUN"))]

    root.mkdir(parents=True, exist_ok=True)
    paths = {name: root / f"{name}.{ext}" for name, ext in (
        ("corpus", "txt"), ("lexicon", "tsv"), ("suffixes", "tsv"),
        ("clusters", "tsv"), ("inventory", "tsv"), ("config", "cfg"),
    )}
    _write_lines(paths["corpus"], corpus_lines())
    _write_lines(paths["lexicon"], (f"{label.get(w, w)}\t{tag_of[w]}" for w in vocab))
    _write_lines(paths["suffixes"], ["zzzz\tNOUN"])
    _write_lines(paths["clusters"], (f"{label.get(w, w)}\t{i % 10}" for i, w in enumerate(vocab)))
    _write_lines(paths["inventory"], (f"{i}\t{s}" for i, s in enumerate(specs)))
    paths["config"].write_text(_CONFIG.format(strictness="anchor"), encoding="utf-8")
    return paths


def write_throughput(
    root: Path, seed: int, relabel: int, n_constructions: int, n_sentences: int, length: int
) -> dict[str, Path]:
    """Throughput inventory (2-5 slots, at least one LEX slot, over a
    30k-word vocabulary) and uniformly random sentences, written as a
    pre-annotated TSV in the `write_annotated` format."""
    rng = random.Random(seed)
    tags = ("NOUN", "VERB", "DET", "ADJ", "ADP", "ADV", "PRON", "AUX")
    words = [f"t{i:05d}" for i in range(30000)]
    label = _relabeling((words,), relabel)
    seen = set()
    specs = []
    while len(specs) < n_constructions:
        slots = []
        for _ in range(rng.randrange(2, 6)):
            r = rng.random()
            if r < 0.5:
                slots.append(f"lex:{label[rng.choice(words)]}")
            elif r < 0.9:
                slots.append(f"pos:{rng.choice(tags)}")
            else:
                slots.append(f"sem:{rng.randrange(50)}")
        spec = " ".join(slots)
        if "lex:" in spec and spec not in seen:
            seen.add(spec)
            specs.append(spec)

    def annotated_lines():
        for sid in range(n_sentences):
            if sid:
                yield ""
            for _ in range(length):
                form, tag, sem = rng.choice(words), rng.choice(tags), rng.randrange(50)
                yield f"{sid}\t0\t{sid}\t{label[form]}\t{tag}\t{sem}"

    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "inventory": root / "inventory.tsv",
        "annotated": root / "annotated_input.tsv",
        "config": root / "workspace.cfg",
    }
    _write_lines(paths["inventory"], (f"{i}\t{s}" for i, s in enumerate(specs)))
    _write_lines(paths["annotated"], annotated_lines())
    paths["config"].write_text(_CONFIG.format(strictness="disjoint"), encoding="utf-8")
    return paths
