"""Corpus ingestion: article parsing, sentence splitting, tokenization,
and per-token annotation with the three facets (surface form, POS tag,
semantic cluster) that slot constraints match against.

The pipeline is deliberately rule-based and deterministic; anyone with a
better annotator can bypass it entirely through the pre-annotated TSV
ingestion path (`mode="pre-annotated"`), which reads an external TSV in
the format write_annotated writes.

An annotated corpus is written twice in one pass: the token-per-row TSV
(`annotated.tsv`, the exchange format) and the sentence store
(`annotated.tsv.sents`), one tab-separated line per sentence that the
later stages read instead of re-parsing the TSV. The store's `.meta`
sidecar records the sha256 of the TSV it was written with, and `match`,
`build` and `pairs` refuse (exit 2) a missing store or one whose TSV has
changed since; external TSVs get their store by going through
`annotate --mode pre-annotated`.

The store has two readers that hold each line to one contract, with the
same `file:line` messages (see scan_annotated): scan_annotated streams
whole sentences, for `match`, and store_texts makes one light pass that
returns every line's three ids, as a plain tuple, and the texts of only
the sentences a caller wants, for `build` and `pairs`.

A sentence is one AnnotatedSentence from annotation to matching: its
ids and its three facet columns (forms, tags, sem ids). The annotator,
both readers and the writer work on the columns; a Token per token is
built only when a caller reads a sentence's `tokens` view.

Case is never folded anywhere: surface forms pass through annotation
unchanged.

A token is a `_TOKEN_RE` match. `tokenize` cuts the sentence at
whitespace and keeps a piece whole when it is all letters and digits
or one character long; only a piece that glues punctuation to a word
goes through the regex. The tokens are exactly those of
`_TOKEN_RE.findall` over the whole sentence; `tokenize` says why.
"""

from __future__ import annotations

import io
import re
from functools import partial
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple

from .errors import ParseError
from .workspace import decode_error, read_lines

# The one tag set: of the lexicon, the suffix rules, the pre-annotated
# TSV and an inventory's `pos:` slots.
UNIVERSAL_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

DEFAULT_TAG = "NOUN"  # the tag of a word no lexicon entry or suffix rule tags

# words the sentence splitter does not split after
ABBREVIATIONS = frozenset({
    "Mr.", "Mrs.", "Ms.", "Dr.", "Prof.", "St.", "Mt.", "Jr.", "Sr.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "ca.", "al.", "Inc.", "Ltd.",
    "Co.", "Corp.", "Fig.", "No.", "Vol.", "pp.", "U.S.", "U.K.",
})

# A heading line delimited by a single `=` on each side marks an article
# break; `= =`-style lines are lower-level section headings, i.e. content.
_HEADING_RE = re.compile(r"^=\s*[^=]+?\s*=$")

# Words may contain internal apostrophes ("didn't" stays whole); every
# other punctuation character becomes its own token.
_TOKEN_RE = re.compile(r"\w+(?:['’]\w+)*|[^\w\s]")

# A run of sentence punctuation and the whitespace after it (group 1).
_BOUNDARY_RE = re.compile(r"[.!?]+(\s*)")


class Token(NamedTuple):
    """One token with its three matchable facets."""

    form: str
    pos: str
    sem: int | None = None


class AnnotatedSentence(NamedTuple):
    """One sentence: its ids and its three facet columns, one entry per
    token. `sems` holds None where a token has no cluster.

    Every stage works on the columns; `tokens` is a view built from them
    on each read.
    """

    sentence_id: int
    article_id: int
    position_in_article: int
    forms: list[str]
    tags: list[str]
    sems: list[int | None]

    @property
    def text(self) -> str:
        return " ".join(self.forms)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(Token, self.forms, self.tags, self.sems))


class AnnotationResources:
    """Immutable lookup tables for the fallback annotator.

    pos_lexicon maps a word to its most frequent tag, suffix_rules are
    ordered longest-suffix-first, and cluster_map assigns semantic
    cluster ids (required to be contiguous from 0). Every tag is one of
    UNIVERSAL_TAGS.
    """

    def __init__(
        self,
        pos_lexicon: dict[str, str],
        suffix_rules: list[tuple[str, str]],
        cluster_map: dict[str, int],
    ):
        for word, tag in pos_lexicon.items():
            _known_tag("lexicon entry", word, tag)
        for suffix, tag in suffix_rules:
            _known_tag("suffix rule", suffix, tag)
        _check_contiguous(cluster_map)
        self.pos_lexicon = dict(pos_lexicon)
        # Longest suffix first; ties keep file order (stable sort).
        self.suffix_rules = sorted(suffix_rules, key=lambda r: -len(r[0]))
        self.cluster_map = dict(cluster_map)

    @classmethod
    def load(
        cls,
        lexicon_path: str | Path,
        suffix_path: str | Path,
        cluster_path: str | Path | None = None,
    ) -> "AnnotationResources":
        """Load resources from TSV files (word<TAB>tag etc.); an error
        names the file and, for a bad entry, its line."""
        lexicon = dict(_read_tsv_pairs(lexicon_path, partial(_known_tag, "lexicon entry")))
        suffixes = list(_read_tsv_pairs(suffix_path, partial(_known_tag, "suffix rule")))
        clusters: dict[str, int] = {}
        if cluster_path is not None:
            clusters = dict(_read_tsv_pairs(cluster_path, _cluster_id))
            try:
                _check_contiguous(clusters)
            except ParseError as exc:
                raise ParseError(f"{cluster_path}: {exc}") from exc
        return cls(lexicon, suffixes, clusters)

    @classmethod
    def default(cls) -> "AnnotationResources":
        """Resources bundled with the package."""
        base = Path(__file__).parent / "resources"
        return cls.load(
            base / "pos_lexicon.tsv", base / "suffix_rules.tsv", base / "clusters.tsv"
        )


def _known_tag(what: str, key: str, tag: str) -> str:
    if tag not in UNIVERSAL_TAGS:
        raise ParseError(f"{what} {key!r} uses unknown tag {tag!r}")
    return tag


def _cluster_id(word: str, cid: str) -> int:
    try:
        return int(cid)
    except ValueError:
        raise ParseError(f"cluster id {cid!r} for {word!r} is not an integer") from None


def _check_contiguous(cluster_map: dict[str, int]) -> None:
    if cluster_map:
        ids = sorted(set(cluster_map.values()))
        if ids[0] != 0 or ids[-1] != len(ids) - 1:
            raise ParseError(
                f"cluster ids must form a contiguous range from 0, got {ids[:5]}..{ids[-1]}"
            )


def _read_tsv_pairs(
    path: str | Path, value: Callable[[str, str], Any]
) -> Iterator[tuple[str, Any]]:
    """(key, value(key, field)) for each non-blank line `key<TAB>field`;
    an error names `path:line`."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}")
        try:
            field = value(*parts)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        yield parts[0], field


def iter_raw_lines(path: str | Path) -> Iterator[str]:
    """Yield decoded lines from a raw UTF-8 corpus file, split on '\\n'
    only (a '\\r' stays in its line).

    Invalid UTF-8 raises workspace.decode_error(path), which names
    `path:line` and the byte offset of the first bad byte.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise decode_error(path) from exc


def parse_wikitext(stream: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Split a WikiText-style stream into (article_id, article_text) pairs.

    Articles are the maximal runs of lines between top-level heading
    lines; headings themselves are dropped, as are articles with no
    non-whitespace content. A str is split into lines at '\n' only, as
    iter_raw_lines splits a file.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline="\n")
    article_id = 0
    buf: list[str] = []
    for line in stream:
        if _HEADING_RE.match(line.strip()):
            text = "".join(buf)
            buf.clear()
            if text.strip():
                yield article_id, text
                article_id += 1
        else:
            buf.append(line)
    text = "".join(buf)
    if text.strip():
        yield article_id, text


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence splitting.

    A boundary is a run of `.`, `!`, `?` followed by whitespace and an
    uppercase letter, unless the word ending in that punctuation is one
    of ABBREVIATIONS. End-of-text always closes the last sentence.
    Newlines are treated as hard boundaries.
    """
    sentences: list[str] = []
    for line in text.split("\n"):
        sentences.extend(_split_line(line))
    return sentences


def _split_line(text: str) -> list[str]:
    out = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        j, k = m.span(1)
        if j < k < len(text) and text[k].isupper():
            # the word ending in this punctuation: scan back to the
            # whitespace before it, so each word is scanned at most once
            back = m.start() - 1
            while back >= start and not text[back].isspace():
                back -= 1
            if text[back + 1 : j] not in ABBREVIATIONS:
                piece = text[start:j].strip()
                if piece:
                    out.append(piece)
                start = k
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


def tokenize(sentence: str) -> list[str]:
    """The tokens of a sentence: each maximal run of word characters
    (`\\w`: what `str.isalnum` accepts, and `_`), joined into one token
    across an internal `'` or `’` ("didn't" stays whole), and each other
    non-whitespace character on its own.

    The sentence is cut at whitespace first, and a piece that is all
    letters and digits (`str.isalnum`) or one character long is one
    token as it stands; only the other pieces go through `_TOKEN_RE`.
    This gives `_TOKEN_RE.findall(sentence)` exactly: `str.split()` and
    the regex's `\\s` test whitespace alike, no token spans whitespace,
    an alphanumeric piece is one `\\w+` run, and one non-whitespace
    character is one token under either alternative.
    """
    out = []
    for piece in sentence.split():
        if piece.isalnum() or len(piece) == 1:
            out.append(piece)
        else:
            out += _TOKEN_RE.findall(piece)
    return out


def tag_pos(tokens: list[str], resources: AnnotationResources) -> list[str]:
    """Lexicon lookup, then longest matching suffix rule, then the default tag."""
    tags = list(map(resources.pos_lexicon.get, tokens))
    if None in tags:
        rules = resources.suffix_rules
        for i, tok in enumerate(tokens):
            if tags[i] is None:
                tags[i] = next(
                    (tag for suffix, tag in rules
                     if tok.endswith(suffix) and len(tok) > len(suffix)),
                    DEFAULT_TAG,
                )
    return tags


def annotate_corpus(
    stream: str | Iterable[str],
    resources: AnnotationResources | None,
    mode: str,
    source: str | Path | None = None,
) -> Iterator[AnnotatedSentence]:
    """Annotate a corpus stream, yielding AnnotatedSentence in order.

    mode:
      raw          -- article parsing + sentence splitting + tokenization
      pre-split    -- article parsing; each non-blank line is one sentence
      pre-annotated -- the TSV format written by write_annotated, verbatim;
                       it reads no resources, which may be None
    """
    if mode == "pre-annotated":
        yield from read_annotated(stream, source)
        return
    if mode not in ("raw", "pre-split"):
        raise ParseError(f"unknown ingestion mode {mode!r}")

    cluster_of = resources.cluster_map.get
    sentence_id = 0
    for article_id, text in parse_wikitext(stream):
        if mode == "raw":
            sents = split_sentences(text)
        else:
            sents = [line.strip() for line in text.split("\n") if line.strip()]
        position = 0
        for sent in sents:
            forms = tokenize(sent)
            if not forms:
                continue
            yield AnnotatedSentence(
                sentence_id, article_id, position,
                forms, tag_pos(forms, resources), list(map(cluster_of, forms)),
            )
            sentence_id += 1
            position += 1


def store_path(annotated: str | Path) -> Path:
    """Where the sentence store of an annotated TSV lives."""
    return Path(str(annotated) + ".sents")


class _Memo(dict):
    """key -> fn(key), computed once per distinct key."""

    def __init__(self, fn, known: dict):
        super().__init__(known)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _sem_value(field: str) -> int:
    """The cluster id a sem field names; a malformed or negative field
    raises ValueError naming it."""
    try:
        value = int(field)
    except ValueError:
        raise ValueError(f"bad sem field {field!r}") from None
    if value < 0:
        raise ValueError(f"negative cluster id {value}")
    return value


def write_annotated(
    sentences: Iterable[AnnotatedSentence], path: str | Path
) -> int:
    """Write the pre-annotated TSV: one token per row,
    sentence_id, article_id, position_in_article, form, pos, sem ('-' if absent),
    with a blank line between sentences. Returns the sentence count.

    The same pass writes the sentence store at store_path(path): one
    line per sentence of n tokens, with the tab-separated fields
    sentence_id, article_id, position_in_article, the n forms, the n
    tags and the n sem ids ('-' if absent). A form holds no tab or
    newline, as the TSV's rows could not carry it either.

    An error leaves both files partly written; the `annotate` command
    writes them in its staging directory and moves them into place only
    when the whole stage has succeeded.
    """
    sem_text = _Memo(str, {None: "-"}).__getitem__  # '-' for no cluster
    count = 0
    with open(path, "w", encoding="utf-8") as fh, open(
        store_path(path), "w", encoding="utf-8", newline="\n"
    ) as store:
        for sent in sentences:
            ids = f"{sent.sentence_id}\t{sent.article_id}\t{sent.position_in_article}"
            sems = list(map(sem_text, sent.sems))
            rows = f"\n{ids}\t".join(map("\t".join, zip(sent.forms, sent.tags, sems)))
            fh.write(f"\n{ids}\t{rows}\n" if count else f"{ids}\t{rows}\n")
            store.write("\t".join([ids, *sent.forms, *sent.tags, *sems]) + "\n")
            count += 1
    return count


def read_annotated(
    stream: str | Iterable[str], source: str | Path | None = None
) -> Iterator[AnnotatedSentence]:
    """Read the pre-annotated TSV back into AnnotatedSentence objects.

    Facets are taken verbatim; only structural validity is enforced:
    column count, tags in UNIVERSAL_TAGS, strictly increasing sentence
    ids, and strictly increasing position within each article (which
    implies corpus-wide uniqueness of (article_id, position) without
    holding every pair in memory).
    Rows belong to one sentence while their ids, read as integers, stay
    the same. A str is split into lines at '\n' only, as iter_raw_lines
    splits a file. An error names the line `source:N:` (`line N:` without one).
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline="\n")
    where = "line " if source is None else f"{source}:"
    sem_value = _Memo(_sem_value, {"-": None}).__getitem__

    cur_key: tuple[int, int, int] | None = None
    cur_fields: list[str] | None = None  # the id fields of the previous row
    forms, tag_col, sems = [], [], []  # the columns of the current sentence
    last_sid = -1
    last_pos_by_article: dict[int, int] = {}

    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\r\n")
        if not line.strip():
            if cur_key is not None:
                yield AnnotatedSentence(*cur_key, forms, tag_col, sems)
                forms, tag_col, sems = [], [], []
                cur_key = cur_fields = None
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ParseError(f"{where}{lineno}: expected 6 columns, got {len(parts)}")
        key = cur_key
        if parts[:3] != cur_fields:
            try:
                key = (int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError(f"{where}{lineno}: non-integer id field")
            cur_fields = parts[:3]
        form, tag = parts[3], parts[4]
        if not form:
            raise ParseError(f"{where}{lineno}: empty token form")
        if tag not in UNIVERSAL_TAGS:
            raise ParseError(f"{where}{lineno}: unknown POS tag {tag!r}")
        try:
            sem = sem_value(parts[5])
        except ValueError as exc:
            raise ParseError(f"{where}{lineno}: {exc}")
        if key != cur_key:
            if cur_key is not None:
                yield AnnotatedSentence(*cur_key, forms, tag_col, sems)
                forms, tag_col, sems = [], [], []
            sid, aid, pos = key
            if sid <= last_sid:
                raise ParseError(
                    f"{where}{lineno}: sentence ids must be strictly increasing; "
                    f"saw {sid} after {last_sid}"
                )
            if pos <= last_pos_by_article.get(aid, -1):
                raise ParseError(
                    f"{where}{lineno}: position {pos} in article {aid} repeats or goes backwards"
                )
            last_pos_by_article[aid] = pos
            last_sid = sid
            cur_key = key
        forms.append(form)
        tag_col.append(tag)
        sems.append(sem)
    if cur_key is not None:
        yield AnnotatedSentence(*cur_key, forms, tag_col, sems)


def _field_count_error(path, lineno: int, fields: int) -> ParseError:
    return ParseError(
        f"{path}:{lineno}: expected 3 id fields and 3 fields per token, got {fields} fields"
    )


def _bad_field_error(path, lineno: int) -> ParseError:
    return ParseError(f"{path}:{lineno}: non-integer id or bad sem field")


def _order_error(path, lineno: int, sid: int, last: int) -> ParseError:
    return ParseError(
        f"{path}:{lineno}: sentence ids must be strictly increasing; saw {sid} after {last}"
    )


def scan_annotated(path: str | Path) -> Iterator[AnnotatedSentence]:
    """Stream the sentences of a sentence store (see write_annotated),
    one line at a time.

    A line must hold 3 + 3n tab-separated fields with n >= 1: three
    integer ids, n forms, n tags and n sem fields ('-' or a cluster id
    under `_sem_value`), and its sentence id must be greater than the
    previous line's. A line that breaks this is refused at `path:line`;
    store_texts checks the same contract with the same messages."""
    sem_value = _Memo(_sem_value, {"-": None}).__getitem__
    last = None
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        n, extra = divmod(len(fields) - 3, 3)
        if n < 1 or extra:
            raise _field_count_error(path, lineno, len(fields))
        try:
            row = AnnotatedSentence(
                int(fields[0]), int(fields[1]), int(fields[2]),
                fields[3 : 3 + n], fields[3 + n : 3 + 2 * n],
                list(map(sem_value, fields[3 + 2 * n :])),
            )
        except ValueError:
            raise _bad_field_error(path, lineno) from None
        if last is not None and row.sentence_id <= last:
            raise _order_error(path, lineno, row.sentence_id, last)
        last = row.sentence_id
        yield row


def store_texts(
    path: str | Path, wanted: Container[int]
) -> tuple[list[tuple[int, int, int]], dict[int, str]]:
    """Check every line of a sentence store as scan_annotated does, with
    the same messages, and return each line's (sentence_id, article_id,
    position_in_article) in store order and the text of each sentence
    whose id is in `wanted`.

    A line's fields are counted by its tabs, and only its ids and its
    sem fields are split off; its forms are split only when its sentence
    is wanted, and its tags never. A sem field is checked the first
    time its text is seen."""
    accepted = {"-"}  # the sem field texts already checked
    refs: list[tuple[int, int, int]] = []
    texts: dict[int, str] = {}
    last = None
    for lineno, line in read_lines(path):
        tabs = line.count("\t")
        n, extra = divmod(tabs - 2, 3)
        if n < 1 or extra:
            raise _field_count_error(path, lineno, tabs + 1)
        head = line.split("\t", 3)
        sems = line.rsplit("\t", n)
        sems[0] = "-"  # the rest of the line, before the sem fields
        try:
            ref = (int(head[0]), int(head[1]), int(head[2]))
            if not accepted.issuperset(sems):
                for field in sems:
                    if field not in accepted:
                        _sem_value(field)
                        accepted.add(field)
        except ValueError:
            raise _bad_field_error(path, lineno) from None
        sid = ref[0]
        if last is not None and sid <= last:
            raise _order_error(path, lineno, sid, last)
        last = sid
        refs.append(ref)
        if sid in wanted:
            # the n forms, the first n - 1 tabs turned to spaces (a form holds no tab)
            texts[sid] = head[3].replace("\t", " ", n - 1).partition("\t")[0]
    return refs, texts
