"""Streaming ingestion: token streams -> histograms -> fingerprints.

The histogram (symbol -> count) is the sufficient statistic of a sample; the
fingerprint (multiplicity j -> number of symbols seen exactly j times) is a
further summary and is the only thing any estimator in this package consumes.
Everything here runs in one pass with memory proportional to the number of
distinct symbols, never to the sample size.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DecodeError,
    EmptyInputError,
    FingerprintFormatError,
    ParameterError,
)

TokenSource = Union[str, bytes, IO, Iterable[str]]

_CHUNK_BYTES = 1 << 16
_TABLE_MAX = 1 << 16


class _KeepAlnumOrSpace(dict):
    """``str.translate`` table that keeps a character exactly when
    ``str.isalnum`` or ``str.isspace`` holds and deletes it otherwise.

    An answer is computed on first sight and stored while the table holds
    fewer than ``_TABLE_MAX`` entries, so the table stays near 4.7 MB however
    many distinct code points it meets (all of them would take 78 MB).
    """

    def __missing__(self, c: int):
        ch = chr(c)
        keep = c if ch.isalnum() or ch.isspace() else None
        if len(self) < _TABLE_MAX:
            self[c] = keep
        return keep


_TABLE = _KeepAlnumOrSpace()


@dataclass(frozen=True)
class TokenizerConfig:
    """Whitespace tokenizer settings: lowercase and drop punctuation by default."""

    case_fold: bool = True
    strip_punctuation: bool = True


@dataclass(frozen=True)
class Histogram:
    """Occurrence counts per symbol.

    ``counts`` maps a symbol (string token or integer id, anything hashable)
    to its positive occurrence count; ``n`` is the total sample size.
    """

    counts: Mapping
    n: int

    def __post_init__(self):
        total = 0
        for sym, c in self.counts.items():
            if c < 1 or c != int(c):
                raise ParameterError(f"histogram count for {sym!r} must be a positive integer, got {c!r}")
            total += c
        if total != self.n:
            raise ParameterError(f"histogram counts sum to {total}, expected n={self.n}")

    @property
    def distinct(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class Fingerprint:
    """Multiplicity profile: ``h[j]`` symbols were observed exactly j times."""

    h: Mapping[int, int]
    n: int

    def __post_init__(self):
        total = 0
        for j, c in self.h.items():
            if j < 1 or j != int(j):
                raise ParameterError(f"multiplicity {j!r} must be a positive integer")
            if c < 1 or c != int(c):
                raise ParameterError(f"fingerprint count h_{j} must be a positive integer, got {c!r}")
            total += j * c
        if total != self.n:
            raise ParameterError(f"fingerprint implies {total} samples, expected n={self.n}")

    @property
    def distinct(self) -> int:
        """Number of distinct observed symbols."""
        return sum(self.h.values())

    def get(self, j: int, default: int = 0) -> int:
        return self.h.get(j, default)

    def items(self):
        return self.h.items()


def _iter_decoded_lines(source: TokenSource, encoding: str) -> Iterator[str]:
    """Decoded text of ``source`` in pieces that end at line breaks.

    For bytes and binary streams the pieces join to the decoded text, with
    newlines translated as in a file opened in text mode.
    """
    if isinstance(source, str):
        source = source.splitlines()
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, io.TextIOBase) or not hasattr(source, "read"):
        yield from source  # a text stream or an iterable of text lines
        return
    # binary stream: one incremental decoder over the whole stream, since a
    # character may straddle a read boundary and UTF-16 code units may hold a
    # 0x0a byte.  Text after the last newline waits for the next chunk, so no
    # token is split.  Newlines are universal, as in a file opened as text.
    try:
        "".encode(encoding)  # LookupError for unknown and bytes-to-bytes codecs
    except LookupError:
        raise ParameterError(f"{encoding!r} is not a text encoding") from None
    decoder = codecs.getincrementaldecoder(encoding)()
    lines = io.IncrementalNewlineDecoder(decoder, translate=True)
    consumed, pending = 0, []
    while True:
        chunk = source.read(_CHUNK_BYTES)
        try:
            text = lines.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # exc.start indexes the decoder's unconsumed bytes followed by chunk
            offset = consumed - len(decoder.getstate()[0]) + exc.start
            raise DecodeError(
                f"invalid {encoding} byte at offset {offset}: {exc.reason}",
                byte_offset=offset,
            ) from exc
        if not chunk:
            yield "".join(pending) + text
            return
        consumed += len(chunk)
        head, newline, tail = text.rpartition("\n")
        if newline:
            yield "".join(pending) + head + newline
            pending = []
        pending.append(tail)


def tokenize(
    source: TokenSource,
    cfg: TokenizerConfig = TokenizerConfig(),
    encoding: str = "utf-8",
) -> Iterator[str]:
    """Split text into tokens on whitespace, one streaming pass.

    Tokens are lowercased when ``cfg.case_fold`` and stripped of every
    character that is not ``str.isalnum`` when ``cfg.strip_punctuation``;
    tokens that become empty are dropped.  ``source`` may be a string, raw
    bytes, an open (text or binary) file, or an iterable of lines.  Bytes are
    decoded with any Python text codec; invalid bytes raise
    :class:`DecodeError` carrying the byte offset.  The tokens come lazily:
    nothing is read or checked before the first one is requested.
    """
    def lines() -> Iterator[str]:
        for line in _iter_decoded_lines(source, encoding):
            if cfg.case_fold:
                line = line.lower()
            if cfg.strip_punctuation:
                line = line.translate(_TABLE)
            yield line

    # split and hand out tokens in C, with no Python frame per token
    return itertools.chain.from_iterable(map(str.split, lines()))


def build_histogram(tokens: Iterable) -> Histogram:
    """Count occurrences of each symbol in one pass."""
    counts = Counter(tokens)
    return Histogram(counts=counts, n=counts.total())


def fingerprint_of(hist: Histogram) -> Fingerprint:
    """Tally how many symbols occur exactly j times, for each j."""
    counts = np.fromiter(hist.counts.values(), dtype=np.int64, count=len(hist.counts))
    return fingerprint_from_counts(counts)


def fingerprint_from_counts(counts: np.ndarray) -> Fingerprint:
    """Fingerprint of a count vector (zeros ignored); the one tally of counts into h_j."""
    nz = counts[counts > 0]
    mult, num = np.unique(nz, return_counts=True)
    n = int(np.dot(mult, num))
    return Fingerprint(h=dict(zip(mult.tolist(), num.tolist())), n=n)


def read_fingerprint_file(path) -> Fingerprint:
    """Parse a ``j h_j`` fingerprint file.

    One ``j h_j`` pair per line (ASCII decimal, whitespace separated), ``j``
    strictly increasing, ``h_j >= 1``.  Lines starting with ``#`` and blank
    lines are ignored.  Malformed content, a non-ASCII byte included, raises
    :class:`FingerprintFormatError` with the offending line number.
    """
    h: dict[int, int] = {}
    prev_j = 0
    # a byte outside ASCII decodes to a lone surrogate, so it is caught with its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if not line.isascii():
                    raise ValueError("non-ASCII byte")
                body = line.strip()
                if not body or body.startswith("#"):
                    continue
                parts = body.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 'j h_j', got {body!r}")
                try:
                    j, hj = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValueError(f"non-integer field in {body!r}") from None
                if j == prev_j:
                    raise ValueError(f"duplicate multiplicity j={j}")
                if j < prev_j:
                    raise ValueError(f"multiplicities must be strictly increasing "
                                     f"(j={j} after {prev_j})")
                if j < 1 or hj < 1:
                    raise ValueError(f"j and h_j must be >= 1, got j={j} h_j={hj}")
            except ValueError as exc:
                message = f"{path}:{lineno}: {exc}"
                raise FingerprintFormatError(message, line_number=lineno) from None
            h[j] = hj
            prev_j = j
    n = sum(j * c for j, c in h.items())
    return Fingerprint(h=h, n=n)


def write_fingerprint_file(fp: Fingerprint, path) -> None:
    """Write ``j h_j`` lines in ascending j; inverse of :func:`read_fingerprint_file`."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for j in sorted(fp.h):
            fh.write(f"{j} {fp.h[j]}\n")


def check_seed(seed: int) -> None:
    """A master seed is any integer >= 0, as numpy's SeedSequence takes it."""
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


def check_resample(fraction: float, seed: int) -> None:
    """The rules of ``resample``'s arguments, which need no units: 0 < fraction <= 1, a valid seed."""
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    check_seed(seed)


def resample(units: Sequence, fraction: float, seed: int) -> list:
    """Draw ``ceil(fraction * len(units))`` units uniformly with replacement.

    A unit is either a single token (word resampling) or a sequence of tokens
    (paragraph resampling); drawn sequences are concatenated in draw order.
    Deterministic for a fixed seed.
    """
    if len(units) == 0:
        raise EmptyInputError("cannot resample from an empty corpus")
    check_resample(fraction, seed)
    m = math.ceil(fraction * len(units))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out: list = []
    for i in rng.integers(0, len(units), size=m):
        unit = units[int(i)]
        if isinstance(unit, (list, tuple)):
            out.extend(unit)
        else:
            out.append(unit)
    return out


def split_paragraphs(text: str) -> list[str]:
    """Split raw text into blank-line separated paragraphs."""
    paras = [p for p in text.split("\n\n") if p.strip()]
    return paras
