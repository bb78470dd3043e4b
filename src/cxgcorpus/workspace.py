"""Workspace configuration: `key = value` config files, the effective
settings a run uses, the text form of each setting, the settings each
stage takes as flags, and sidecars for staleness detection; and
iter_raw_lines, the one reader of the package's UTF-8 text files.

Every derived file gets a `<name>.meta` sidecar recording the hash of
the effective configuration that produced it. Commands that consume a
derived file refuse to run when the recorded hash differs from the
current one, so stale intermediate files are caught without relying on
timestamps. A sidecar can also record the sha256 of the file its file
was derived from (`source_sha256`), so that a consumer can refuse a
derived file whose source has changed since.

A config hash is the interpreter's built-in sha256 of a few lines, so
that a stage which hashes no file never loads `hashlib`, whose OpenSSL
library costs megabytes of memory and milliseconds of start-up; only
`file_sha256` imports it, since OpenSSL's sha256 is several times faster
on a large file.
"""

from __future__ import annotations

import sys
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .errors import DecodeError, InputError, ParseError, StaleInputError

try:  # the built-in module that holds it, as `random` finds its sha512
    if sys.version_info >= (3, 12):
        from _sha2 import sha256 as _config_sha256
    else:
        from _sha256 import sha256 as _config_sha256
except ImportError:
    from hashlib import sha256 as _config_sha256

STRICTNESS = ("anchor", "disjoint")


def iter_raw_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, split on '\\n' only, so that a
    '\\r' inside a line stays, and each with the '\\n' that ends it.
    Invalid UTF-8 raises DecodeError naming `path:line` and the byte
    offset of the first bad byte. The file opens at the first line."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise decode_error(path) from exc


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line iter_raw_lines gives, without
    the '\\r' and '\\n' that end it."""
    return enumerate(map(str.rstrip, iter_raw_lines(path), repeat("\r\n")), 1)


def decode_error(path: str | Path) -> DecodeError:
    """The error for a file that is not valid UTF-8: the file is read
    again in binary, line by line, to name the line and the absolute
    byte offset of its first bad byte ('\\n' never occurs inside a
    multi-byte UTF-8 sequence, so splitting the bytes on it is safe)."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DecodeError(
                    f"{path}:{lineno}: invalid UTF-8 at byte offset {offset + exc.start}")
            offset += len(raw)
    return DecodeError(f"{path}: invalid UTF-8")


def _config_entries(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each `key = value` line; '#' starts a comment."""
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected `key = value`")
        yield lineno, key.strip(), value.strip()


def render_bound(hi: int | None) -> str:
    """Text form of a band's upper bound: `inf` for an unbounded band."""
    return "inf" if hi is None else str(hi)


def parse_bound(text: str) -> int | None:
    """Inverse of render_bound; raises ValueError on anything else."""
    return None if text == "inf" else int(text)


def parse_band(text: str) -> tuple[int, int | None]:
    """Parse `LO:HI` where HI may be `inf` (or empty)."""
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ParseError(f"band must be LO:HI, got {text!r}")
    try:
        lo = int(lo_text)
        hi = parse_bound(hi_text.strip() or "inf")
    except ValueError:
        raise ParseError(f"bad band {text!r}")
    if hi is not None and hi < lo:
        raise ParseError(f"band upper bound {hi} below lower bound {lo}")
    return lo, hi


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}")


def bands_from_edges(band_edges: Sequence[int]) -> list[tuple[int, int | None]]:
    """Non-overlapping inclusive bands from increasing edges.

    Edges [2, 50, 100] give [2, 50], [51, 100], [101, None]: the first
    band is closed at both edges, later bands start one past the
    previous edge, and a final unbounded band is always appended.
    """
    edges = list(band_edges)
    if len(edges) < 1 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ParseError(f"band edges must be strictly increasing, got {edges}")
    bands: list[tuple[int, int | None]] = []
    for i in range(len(edges) - 1):
        lo = edges[i] if i == 0 else edges[i] + 1
        bands.append((lo, edges[i + 1]))
    bands.append((edges[-1] + 1 if len(edges) > 1 else edges[-1], None))
    return bands


def _band_edges(text: str) -> tuple[int, ...]:
    edges = parse_int_list(text)
    bands_from_edges(edges)
    return edges


def parse_strictness(text: str) -> str:
    if text not in STRICTNESS:
        raise ParseError(f"strictness must be one of {', '.join(STRICTNESS)}, got {text!r}")
    return text


def _max_gap(text: str) -> int:
    gap = int(text)
    if gap < 0:
        raise ParseError(f"max_gap must be >= 0, got {gap}")
    return gap


class Setting(NamedTuple):
    parse: Callable[[str], Any]  # text form -> value; ParseError or ValueError if malformed
    render: Callable[[Any], str]  # value -> text form, as config files and sidecars hold it
    help: str  # of the setting's command-line flag


# Every setting a config file or a flag may give, and the only place
# that knows how each is read and written as text.
_SETTINGS = {
    "seed": Setting(int, str, "seed of every random draw"),
    "band": Setting(parse_band, lambda band: f"{band[0]}:{render_bound(band[1])}",
                    "LO:HI frequency band of the constructions used; HI may be inf"),
    "max_gap": Setting(_max_gap, str, "tokens a construction may skip between two slots"),
    "strictness": Setting(parse_strictness, str,
                          f"what a different pair avoids: {' or '.join(STRICTNESS)}"),
    "band_edges": Setting(_band_edges, lambda edges: ",".join(map(str, edges)),
                          "comma list of the edges of the reported frequency bands"),
}


def flag(key: str) -> str:
    """The command-line flag of a setting or option: `max_gap` is `--max-gap`."""
    return "--" + key.replace("_", "-")


def flag_help(key: str) -> str:
    """Help text of a setting's flag, with its default in text form."""
    setting = _SETTINGS[key]
    return f"{setting.help} (default {setting.render(getattr(EffectiveConfig(), key))})"


class EffectiveConfig(NamedTuple):
    """The settings that affect derived outputs."""

    seed: int = 0
    band: tuple[int, int | None] = (2, 10000)
    max_gap: int = 1
    strictness: str = "anchor"
    band_edges: tuple[int, ...] = (2, 50, 100, 1000, 10000)

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None, overrides: dict[str, str]
    ) -> "EffectiveConfig":
        """Config-file values first, command-line overrides on top.

        Both are given as text; an unknown config key or a malformed value,
        an empty one included, raises ParseError naming its `file:line`, or
        the `--flag` it came from.
        """
        sources: list[tuple[str, str, str]] = []
        if config_path is not None:
            for lineno, key, value in _config_entries(config_path):
                if key not in _SETTINGS:
                    raise ParseError(
                        f"{config_path}:{lineno}: unknown setting {key!r}; "
                        f"known: {', '.join(sorted(_SETTINGS))}"
                    )
                sources.append((f"{config_path}:{lineno}", key, value))
        sources += [(flag(key), key, value) for key, value in overrides.items()]
        values = {}
        for where, key, value in sources:
            try:
                values[key] = _SETTINGS[key].parse(value)
            except ValueError:
                raise ParseError(f"{where}: {key} {value!r} is not an integer")
            except ParseError as exc:
                raise ParseError(f"{where}: {exc}")
        return cls(**values)

    def canonical(self, keys: tuple[str, ...]) -> str:
        return "".join(f"{k} = {_SETTINGS[k].render(getattr(self, k))}\n" for k in sorted(keys))

    def subset_hash(self, keys: tuple[str, ...]) -> str:
        return _config_sha256(self.canonical(keys).encode("utf-8")).hexdigest()[:16]


# The config keys each derived artifact actually depends on; a file's
# sidecar records the hash over its own subset, so e.g. changing the
# band never invalidates an annotated corpus or an occurrence table.
ANNOTATE_KEYS: tuple[str, ...] = ()
TABLE_KEYS = ("max_gap",)
STATS_KEYS = ("max_gap", "band_edges")
BUILD_KEYS = ("max_gap", "band", "seed")
PAIRS_KEYS = ("max_gap", "band", "seed", "strictness")

# The settings each command takes, as flags: exactly the keys that the
# sidecars of the files it reads and writes record.
STAGE_KEYS = {
    "annotate": ANNOTATE_KEYS,
    "match": STATS_KEYS,
    "stats": STATS_KEYS,
    "build": BUILD_KEYS,
    "pairs": PAIRS_KEYS,
    "baseline": PAIRS_KEYS,
}


def file_sha256(path: str | Path) -> str:
    import hashlib  # OpenSSL's sha256, loaded only by a stage that hashes a file

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_sidecar(
    out_path: str | Path,
    config: EffectiveConfig,
    command: str,
    keys: tuple[str, ...],
    source: str | Path | None = None,
) -> None:
    """Write `<out_path>.meta`; with `source`, also record the sha256 of
    the file out_path was derived from."""
    meta = Path(str(out_path) + ".meta")
    body = f"config_hash = {config.subset_hash(keys)}\ncommand = {command}\n"
    if source is not None:
        body += f"source_sha256 = {file_sha256(source)}\n"
    for line in config.canonical(keys).splitlines():
        body += f"# {line}\n"
    meta.write_text(body, encoding="utf-8")


def check_sidecar(
    in_path: str | Path,
    config: EffectiveConfig,
    keys: tuple[str, ...],
    source: str | Path | None = None,
) -> None:
    """Raise when a derived input was built under a different config.

    Files without a sidecar (external inputs) are accepted as-is, unless
    `source` is given: then the sidecar must exist and record the sha256
    of the current content of `source`.
    """
    meta = Path(str(in_path) + ".meta")
    if not meta.exists():
        if source is not None:
            raise InputError(f"{meta} not found: cannot tell which {source} {in_path} came from")
        return
    recorded_meta = {key: value for _, key, value in _config_entries(meta)}
    recorded = recorded_meta.get("config_hash")
    current = config.subset_hash(keys)
    if recorded != current:
        raise StaleInputError(
            f"{in_path} was built under config hash {recorded}, "
            f"current is {current}; rebuild it or restore the config"
        )
    if source is not None and recorded_meta.get("source_sha256") != file_sha256(source):
        raise StaleInputError(
            f"{in_path} was derived from another version of {source} "
            f"(its sha256 differs from the one {meta} records); rebuild it"
        )
