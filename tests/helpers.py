"""Synthetic corpora, inventories, and resources shared by the tests.

The desk corpus draws tokens i.i.d. from tag-class pools so matcher,
corpus-builder, sampler and baseline behaviour can be exercised at a
controlled scale:

  * 40 anchor constructions (lex:azNN lex:bzNN), planted into 20-45
    sentences each -> the low-frequency band;
  * a few lexical mid-frequency constructions (e.g. lex:of pos:DET);
  * POS-bigram constructions so generic they match >3/4 of all
    sentences -> the >10000 band at 13k sentences.

The lexical corpus is the clean probe-learnability setting: every
sentence realizes exactly one two-word lexically anchored construction
over an otherwise huge disjoint vocabulary.

Every word carries a semantic cluster so SEM slots always have facets
to match against.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from cxgcorpus.baseline import DIM, L2, LEARNING_RATE, LinearModel, _dot, _sigmoid, featurize_pair
from cxgcorpus.errors import EmptyBandError, InputError
from cxgcorpus.ingest import (
    ABBREVIATIONS, AnnotatedSentence, AnnotationResources, Token, read_annotated,
)
from cxgcorpus.inventory import Construction, Inventory, SlotConstraint
from cxgcorpus.matcher import OccurrenceTable
from cxgcorpus.pair_sampler import PairExample, PairText, SampledPairs, sample_pairs
from cxgcorpus.workspace import STRICTNESS


def S(kind: str, value) -> SlotConstraint:
    return SlotConstraint(kind, str(value))


def from_tokens(sid: int, aid: int, pos: int, tokens: Iterable[Token]) -> AnnotatedSentence:
    """The sentence whose `tokens` view gives back these tokens."""
    tokens = list(tokens)
    return AnnotatedSentence(
        sid, aid, pos,
        [t.form for t in tokens], [t.pos for t in tokens], [t.sem for t in tokens],
    )


def sent(sid, toks, aid=0, pos=0) -> AnnotatedSentence:
    """toks: list of (form, pos) or (form, pos, sem) tuples."""
    return from_tokens(sid, aid, pos, (Token(*t) for t in toks))


def load_annotated_file(path: str | Path) -> list[AnnotatedSentence]:
    with open(path, encoding="utf-8") as fh:
        return list(read_annotated(fh))


def sentence_text_map(corpus: Iterable[AnnotatedSentence]) -> dict[int, str]:
    return {s.sentence_id: s.text for s in corpus}


def read_pretraining_file(path: str | Path) -> list[list[str]]:
    """Documents as lists of sentence lines (round-trip check helper)."""
    docs: list[list[str]] = []
    cur: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                cur.append(line)
            elif cur:
                docs.append(cur)
                cur = []
    if cur:
        docs.append(cur)
    return docs


def read_table(table_path: str | Path, discards_path: str | Path) -> OccurrenceTable:
    """The table and the discards `OccurrenceTable.write` wrote."""
    table = OccurrenceTable.read(table_path)
    discarded = [int(sid) for sid in Path(discards_path).read_text("utf-8").split()]
    return OccurrenceTable(table.forward, discarded=discarded)


def freq(table: OccurrenceTable, cxg_id: int) -> int:
    return len(table.forward[cxg_id])


def is_transpose_consistent(table: OccurrenceTable) -> bool:
    """Whether `reverse` holds exactly the memberships `forward` holds."""
    n_fwd = sum(len(v) for v in table.forward.values())
    n_rev = sum(len(v) for v in table.reverse.values())
    if n_fwd != n_rev:
        return False
    for sid, cids in table.reverse.items():
        for cid in cids:
            fwd = table.forward.get(cid)
            if fwd is None:
                return False
            i = bisect_left(fwd, sid)
            if i >= len(fwd) or fwd[i] != sid:
                return False
    return True


# --------------------------------------------------------------------------
# naive references for the corpus builder, written without its code

def reference_band(table: OccurrenceTable, band: tuple[int, int | None]) -> list[int]:
    """The cxg_ids whose frequency lies in the band (never below 2), ascending."""
    lo, hi = max(band[0], 2), band[1]
    freqs = {cid: len(sids) for cid, sids in table.forward.items()}
    return [cid for cid in sorted(freqs) if lo <= freqs[cid] and (hi is None or freqs[cid] <= hi)]


def reference_cxg(table: OccurrenceTable, band) -> list[tuple[int, ...]]:
    """The cxg variant: the band's forward rows, in cxg_id order."""
    return [tuple(table.forward[cid]) for cid in reference_band(table, band)]


def reference_base(corpus, table: OccurrenceTable, band, target_total: int) -> list[tuple]:
    """The base variant: the sentences, each (sentence_id, article_id,
    position_in_article, ...), in (article, position) order, a sentence
    kept when any of its constructions is selected, a document broken at
    every drop and every article change; then the documents repeated in
    a cycle, the last one cut, until target_total sentences."""
    selected = reference_band(table, band)
    runs: list[list[int]] = [[]]
    article = None
    for s in sorted(corpus, key=lambda s: (s[1], s[2])):
        keep = any(s[0] in table.forward[cid] for cid in selected)
        if not keep or s[1] != article:
            runs.append([])
        if keep:
            runs[-1].append(s[0])
        article = s[1]
    documents = [tuple(run) for run in runs if run]
    out: list[tuple[int, ...]] = []
    total = 0
    for doc in itertools.cycle(documents):
        if total == target_total:
            break
        out.append(doc[: target_total - total])
        total += len(out[-1])
    return out


def reference_pretraining_bytes(documents, texts: dict[int, str]) -> bytes:
    """A pre-training file: each sentence on its line, documents joined by one blank line."""
    return "\n".join("".join(f"{texts[sid]}\n" for sid in doc) for doc in documents).encode()


def band_ids(table: OccurrenceTable, band) -> set[int]:
    """The sentence ids of the constructions `band` selects, which
    `build_base_clone` keeps."""
    return set().union(*map(table.forward.__getitem__, table.select_band(band)))


def random_build_case(rng: random.Random):
    """A small random table and the (sentence_id, article_id,
    position_in_article) refs and texts of its store: sentence ids with
    gaps, articles whose positions do not follow the ids, constructions
    that may have no instance, and one row repeated under several ids in
    about a fifth of the cases, so that the cxg total is an exact
    multiple of the kept sentences. Returns (refs, texts, table, band)."""
    sids = sorted(rng.sample(range(60), rng.randrange(1, 25)))
    n_articles = rng.randrange(1, 5)
    article_of = {sid: rng.randrange(n_articles) for sid in sids}
    refs = []
    for aid in range(n_articles):
        members = [sid for sid in sids if article_of[sid] == aid]
        positions = sorted(rng.sample(range(3 * len(members) + 1), len(members)))
        rng.shuffle(positions)
        refs.extend((sid, aid, pos) for sid, pos in zip(members, positions))
    refs.sort()
    texts = {sid: f"s{sid} " + " ".join(rng.choices("abc", k=rng.randrange(1, 4))) for sid in sids}
    cids = rng.sample(range(100), rng.randrange(1, 8))
    if rng.random() < 0.2:
        row = sorted(rng.sample(sids, rng.randrange(0, len(sids) + 1)))
        forward = {cid: list(row) for cid in cids}
    else:
        forward = {cid: sorted(rng.sample(sids, rng.randrange(0, len(sids) + 1))) for cid in cids}
    lo = rng.randrange(0, 8)
    band = (lo, None if rng.random() < 0.4 else lo + rng.randrange(0, 10))
    return refs, texts, OccurrenceTable(forward), band


def sampled_pair_cases(seeds: Iterable[int], shuffle: int | None = None):
    """For each seed's random_build_case table and each strictness, the
    tuple (table, band, seed, strictness, sampled): `sample_pairs` of the
    table and band under that seed and strictness, or None when it
    raised EmptyBandError. With `shuffle`, each table's rows come in an
    order drawn from it and the seed."""
    for seed in seeds:
        _, _, table, band = random_build_case(random.Random(seed))
        if shuffle is not None:
            rows = list(table.forward.items())
            random.Random(f"{shuffle}:{seed}").shuffle(rows)
            table = OccurrenceTable(dict(rows))
        for strictness in STRICTNESS:
            try:
                sampled = sample_pairs(table, band, seed, strictness)
            except EmptyBandError:
                sampled = None
            yield table, band, seed, strictness, sampled


def pairs_digest(cases) -> str:
    """sha256 over the band, seed, strictness and result of each case."""
    digest = hashlib.sha256()
    for _, *case in cases:
        digest.update(repr(case).encode())
    return digest.hexdigest()


def all_pairs(sampled: SampledPairs) -> list[PairExample]:
    return sampled.train + sampled.dev + sampled.test


def pair_key(pair: PairExample) -> tuple[int, int]:
    return (pair.sent_a, pair.sent_b)


def pair_features(text_a: str, text_b: str) -> list[str]:
    """Raw feature strings of a pair, the definition `featurize_pair`
    hashes: side-marked unigrams and bigrams (asymmetric by design), then
    the cross block (X:) over shared tokens, symmetric under swapping
    the two sentences."""
    toks_a = text_a.split()
    toks_b = text_b.split()
    feats = []
    for side, toks in (("A", toks_a), ("B", toks_b)):
        for tok in toks:
            feats.append(f"{side}:{tok}")
        for t1, t2 in zip(toks, toks[1:]):
            feats.append(f"{side}:{t1}_{t2}")
    for tok in sorted(set(toks_a) & set(toks_b)):
        feats.append(f"X:{tok}")
    return feats


def dense_train(
    pairs: list[PairText],
    epochs: int,
    seed: int,
    memo: dict | None = None,
) -> LinearModel:
    """The trainer `baseline.train` must equal bit for bit: the same SGD
    over a dense `array('d')` of all DIM buckets, each example kept as
    its packed bucket and value arrays."""
    if epochs < 1:
        raise InputError(f"epochs must be at least 1, got {epochs}")
    if memo is None:
        memo = {}
    if len(pairs) < 2:
        raise InputError("need at least 2 training pairs")
    labels = {p.label for p in pairs}
    if labels != {"same", "different"}:
        raise InputError(f"training set must contain both labels, got {sorted(labels)}")

    examples = []
    for p in pairs:
        vec = featurize_pair(p.text_a, p.text_b, DIM, memo)
        examples.append((array("l", vec), array("d", vec.values()), float(p.label == "same")))

    w = array("d", [0.0]) * DIM
    bias = 0.0
    lr, l2 = LEARNING_RATE, L2
    rng = random.Random(seed)
    order = list(range(len(examples)))
    losses = []
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            keys, values, y = examples[i]
            z = bias + _dot(w, keys, values)
            p = _sigmoid(z)
            p_clip = min(max(p, 1e-12), 1.0 - 1e-12)
            total += -(y * math.log(p_clip) + (1.0 - y) * math.log(1.0 - p_clip))
            g = p - y
            for j, v in zip(keys, values):
                w[j] -= lr * (g * v + l2 * w[j])
            bias -= lr * g
        losses.append(total / len(examples))

    correct = 0
    for keys, values, y in examples:
        z = bias + _dot(w, keys, values)
        correct += int((z >= 0.0) == (y == 1.0))
    return LinearModel(w, bias, tuple(losses), correct / len(examples))


def split_line_reference(text: str) -> list[str]:
    """The sentences of one line, by the splitting rule of
    `ingest.split_sentences` written as a character loop: the
    specification `ingest._split_line` is tested against."""
    out = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?":
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k > j and k < n and text[k].isupper():
                back = i - 1
                while back >= start and not text[back].isspace():
                    back -= 1
                word = text[back + 1 : j]
                if word not in ABBREVIATIONS:
                    piece = text[start:j].strip()
                    if piece:
                        out.append(piece)
                    start = k
            i = j
        else:
            i += 1
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


# --------------------------------------------------------------------------
# randomized matcher cases (oracle sweeps)

_CASE_TAGS = ("NOUN", "VERB", "DET", "ADJ", "ADP")
_CASE_FORMS = tuple(f"w{i}" for i in range(30))


def _rand_token(rng) -> Token:
    return Token(rng.choice(_CASE_FORMS), rng.choice(_CASE_TAGS), rng.randrange(5))


def _rand_slot(rng) -> SlotConstraint:
    r = rng.random()
    if r < 0.45:
        return S("LEX", rng.choice(_CASE_FORMS))
    if r < 0.85:
        return S("POS", rng.choice(_CASE_TAGS))
    return S("SEM", rng.randrange(5))


def _satisfying_token(slot: SlotConstraint, rng) -> Token:
    if slot.kind == "LEX":
        return Token(slot.value, rng.choice(_CASE_TAGS), rng.randrange(5))
    if slot.kind == "POS":
        return Token(rng.choice(_CASE_FORMS), slot.value, rng.randrange(5))
    return Token(rng.choice(_CASE_FORMS), rng.choice(_CASE_TAGS), int(slot.value))


def random_matcher_case(rng, max_gap: int) -> tuple[Inventory, AnnotatedSentence]:
    """A random inventory and sentence; ~60% of cases have a guaranteed
    planted instance of one construction (with gaps up to max_gap)."""
    toks = [_rand_token(rng) for _ in range(rng.randrange(6, 16))]
    constructions = []
    seen = set()
    for cid in range(rng.randrange(1, 25)):
        slots = tuple(_rand_slot(rng) for _ in range(rng.randrange(2, 5)))
        if slots in seen:
            continue
        seen.add(slots)
        constructions.append(Construction(cid, slots))
    if constructions and rng.random() < 0.6:
        target = rng.choice(constructions)
        realization = []
        for i, slot in enumerate(target.slots):
            if i:
                realization.extend(_rand_token(rng) for _ in range(rng.randrange(0, max_gap + 1)))
            realization.append(_satisfying_token(slot, rng))
        at = rng.randrange(0, len(toks) + 1)
        toks = toks[:at] + realization + toks[at:]
    return Inventory(constructions), from_tokens(0, 0, 0, toks)


# --------------------------------------------------------------------------
# the desk corpus

@dataclass
class DeskCorpus:
    sentences: list[AnnotatedSentence]
    inventory: Inventory
    resources: AnnotationResources
    anchor_cxg_ids: list[int]
    upper_cxg_ids: list[int]
    raw_lines: list[str]  # pre-split text with article headings

    @property
    def texts(self) -> dict[int, str]:
        return {s.sentence_id: s.text for s in self.sentences}


def make_desk(
    seed: int = 13,
    n_sentences: int = 13000,
    n_articles: int = 260,
    n_anchors: int = 40,
) -> DeskCorpus:
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
    cluster_map = {w: i % 10 for i, w in enumerate(vocab)}

    pools = [nouns, verbs, dets, adps, puncts]
    weights = [0.40, 0.20, 0.25, 0.10, 0.05]

    def draw_tokens(n):
        classes = rng.choices(pools, weights, k=n)
        return [rng.choice(pool) for pool in classes]

    raw = [draw_tokens(rng.randrange(18, 23)) for _ in range(n_sentences)]

    # plant each anchor as an `azNN bzNN` bigram in a few sentences
    available = list(range(n_sentences))
    rng.shuffle(available)
    cursor = 0
    for first, second in anchors:
        m = rng.randrange(20, 46)
        for _ in range(m):
            sid = available[cursor]
            cursor += 1
            at = rng.randrange(0, len(raw[sid]) + 1)
            raw[sid][at:at] = [first, second]

    sentences = []
    per_article = max(1, n_sentences // n_articles)
    for sid, forms in enumerate(raw):
        aid = min(sid // per_article, n_articles - 1)
        pos = sid - aid * per_article
        tokens = (Token(w, tag_of[w], cluster_map[w]) for w in forms)
        sentences.append(from_tokens(sid, aid, pos, tokens))

    constructions = []
    cid = 0
    anchor_ids = []
    for first, second in anchors:
        constructions.append(Construction(cid, (S("LEX", first), S("LEX", second))))
        anchor_ids.append(cid)
        cid += 1
    mids = [
        (S("LEX", "of"), S("POS", "DET")),
        (S("LEX", "in"), S("POS", "DET")),
        (S("LEX", "the"), S("POS", "NOUN")),
        (S("LEX", "a"), S("POS", "VERB")),
        (S("SEM", 3), S("POS", "PUNCT")),
        (S("LEX", "with"), S("POS", "NOUN"), S("POS", "PUNCT")),
    ]
    for slots in mids:
        constructions.append(Construction(cid, tuple(slots)))
        cid += 1
    upper_ids = []
    for pair in (("NOUN", "NOUN"), ("DET", "NOUN"), ("NOUN", "VERB"), ("VERB", "NOUN")):
        constructions.append(Construction(cid, (S("POS", pair[0]), S("POS", pair[1]))))
        upper_ids.append(cid)
        cid += 1

    inventory = Inventory(constructions)
    lexicon = dict(tag_of)
    resources = AnnotationResources(lexicon, [], cluster_map)

    raw_lines = []
    last_aid = None
    for s in sentences:
        if s.article_id != last_aid:
            raw_lines.append(f" = Article {s.article_id} = ")
            last_aid = s.article_id
        raw_lines.append(s.text)

    return DeskCorpus(sentences, inventory, resources, anchor_ids, upper_ids, raw_lines)


def make_lexical_corpus(
    seed: int = 101,
    n_anchors: int = 60,
    freq: tuple[int, int] = (150, 250),
) -> tuple[list[AnnotatedSentence], Inventory]:
    """Partition-style corpus: each sentence realizes exactly one
    lexically anchored two-slot construction, over rare filler words."""
    rng = random.Random(seed)
    nouns = [f"n{i:06d}" for i in range(100000)]
    verbs = [f"v{i:06d}" for i in range(50000)]
    dets = ["the", "a"]
    adps = ["of", "in"]
    anchors = [(f"az{i:03d}", f"bz{i:03d}") for i in range(n_anchors)]
    tag_of = {}
    flat = [w for pair in anchors for w in pair]
    for pool, tag in ((nouns, "NOUN"), (verbs, "VERB"), (dets, "DET"),
                      (adps, "ADP"), (flat, "NOUN")):
        for w in pool:
            tag_of[w] = tag
    cluster_map = {w: i % 10 for i, w in enumerate(sorted(tag_of))}
    pools = [nouns, verbs, dets, adps]
    weights = [0.62, 0.30, 0.04, 0.04]
    sentences = []
    sid = 0
    for first, second in anchors:
        m = rng.randrange(*freq)
        for _ in range(m):
            forms = [
                rng.choice(pool)
                for pool in rng.choices(pools, weights, k=rng.randrange(6, 9))
            ]
            at = rng.randrange(0, len(forms) + 1)
            forms[at:at] = [first, second]
            tokens = (Token(w, tag_of[w], cluster_map[w]) for w in forms)
            sentences.append(from_tokens(sid, sid // 50, sid % 50, tokens))
            sid += 1
    constructions = [
        Construction(i, (S("LEX", a), S("LEX", b))) for i, (a, b) in enumerate(anchors)
    ]
    return sentences, Inventory(constructions)


def write_desk_files(desk: DeskCorpus, root) -> dict[str, str]:
    """Write the desk corpus as CLI-consumable files; returns paths."""
    from cxgcorpus.inventory import write_inventory

    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": str(root / "corpus.txt"),
        "lexicon": str(root / "lexicon.tsv"),
        "suffixes": str(root / "suffixes.tsv"),
        "clusters": str(root / "clusters.tsv"),
        "inventory": str(root / "inventory.tsv"),
        "config": str(root / "workspace.cfg"),
    }
    (root / "corpus.txt").write_text("\n".join(desk.raw_lines) + "\n", encoding="utf-8")
    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        for w in sorted(desk.resources.pos_lexicon):
            fh.write(f"{w}\t{desk.resources.pos_lexicon[w]}\n")
    (root / "suffixes.tsv").write_text("zzzz\tNOUN\n", encoding="utf-8")
    with open(paths["clusters"], "w", encoding="utf-8") as fh:
        for w in sorted(desk.resources.cluster_map):
            fh.write(f"{w}\t{desk.resources.cluster_map[w]}\n")
    write_inventory(desk.inventory, paths["inventory"])
    (root / "workspace.cfg").write_text(
        "seed = 7\nband = 2:10000\nmax_gap = 1\nstrictness = anchor\n"
        "band_edges = 2,50,100,1000,10000\n",
        encoding="utf-8",
    )
    return paths
