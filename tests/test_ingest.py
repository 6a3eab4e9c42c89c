"""Tokenization, histograms, fingerprints, file round trips, resampling."""

import io
import re
from collections import Counter

import numpy as np
import pytest

from supportsize import (
    DecodeError,
    EmptyInputError,
    Fingerprint,
    FingerprintFormatError,
    Histogram,
    ParameterError,
    TokenizerConfig,
    build_histogram,
    fingerprint_from_counts,
    fingerprint_of,
    parse_family,
    read_fingerprint_file,
    resample,
    sample_fingerprint,
    split_paragraphs,
    tokenize,
    write_fingerprint_file,
)


def test_tokenize_case_and_punctuation():
    assert list(tokenize("The the, THE")) == ["the", "the", "the"]


def test_tokenize_empty():
    assert list(tokenize("")) == []


def test_tokenize_whitespace_split():
    assert list(tokenize("a b a c")) == ["a", "b", "a", "c"]


def test_tokenize_config_switches():
    cfg = TokenizerConfig(case_fold=False, strip_punctuation=False)
    assert list(tokenize("The the,", cfg)) == ["The", "the,"]
    cfg = TokenizerConfig(case_fold=True, strip_punctuation=False)
    assert list(tokenize("The the,", cfg)) == ["the", "the,"]


def test_tokenize_drops_pure_punctuation_tokens():
    assert list(tokenize("a -- b !!")) == ["a", "b"]


def test_tokenize_unicode_alnum_kept():
    assert list(tokenize("café! 42nd")) == ["café", "42nd"]


def test_tokenize_bytes_and_streams_agree():
    text = "One two, two THREE\nthree three.\n"
    expected = list(tokenize(text))
    assert list(tokenize(text.encode())) == expected
    assert list(tokenize(io.BytesIO(text.encode()))) == expected
    assert list(tokenize(io.StringIO(text))) == expected


def test_tokenize_decode_error_reports_byte_offset():
    data = b"abc \xff def"
    with pytest.raises(DecodeError) as err:
        list(tokenize(data))
    assert err.value.byte_offset == 4
    # streamed input reports the absolute offset too
    with pytest.raises(DecodeError) as err:
        list(tokenize(io.BytesIO(b"ok line\n" + data)))
    assert err.value.byte_offset == 8 + 4
    # a sequence cut short by the end of the input
    with pytest.raises(DecodeError) as err:
        list(tokenize("é\n".encode() + b"\xc3"))
    assert err.value.byte_offset == 3


def test_tokenize_decodes_the_stream_as_a_whole():
    # U+0A0A encodes as 0a 0a in UTF-16, so splitting the bytes at b"\n" breaks it
    assert list(tokenize("aਊb\n".encode("utf-16"), encoding="utf-16")) == ["aਊb"]
    # tokens and multi-byte characters straddle the stream's read boundaries
    text = "ééé wörd\r\nxyzzy " * 30_000
    assert list(tokenize(io.BytesIO(text.encode()))) == text.split()
    for codec in ("hex", "no-such-codec"):
        with pytest.raises(ParameterError, match="not a text encoding"):
            list(tokenize(b"ab", encoding=codec))


class CountingBytesIO(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_tokenize_streams():
    # the first token costs one 64 KiB read of a stream several chunks long
    source = CountingBytesIO(b"word\n" * 60_000)
    tokens = tokenize(source)
    assert source.reads == 0
    assert next(tokens) == "word"
    assert source.reads == 1
    assert sum(1 for _ in tokens) == 60_000 - 1
    assert source.reads > 4
    # nothing is decoded or checked until the first token is requested
    tokens = tokenize(b"ok \xff")
    with pytest.raises(DecodeError):
        list(tokens)
    tokens = tokenize(b"ab", encoding="no-such-codec")
    with pytest.raises(ParameterError):
        next(tokens)


def test_build_histogram_examples():
    h = build_histogram(["a", "b", "a", "c"])
    assert dict(h.counts) == {"a": 2, "b": 1, "c": 1}
    assert h.n == 4 and h.distinct == 3
    assert build_histogram([]).n == 0
    h = build_histogram(["x"] * 5)
    assert dict(h.counts) == {"x": 5} and h.n == 5


def test_build_histogram_streams_from_generator():
    h = build_histogram(tok for tok in ["a", "a", "b"])
    assert dict(h.counts) == {"a": 2, "b": 1}


def test_histogram_invariants_enforced():
    with pytest.raises(ParameterError):
        Histogram(counts={"a": 0}, n=0)
    with pytest.raises(ParameterError):
        Histogram(counts={"a": 2}, n=3)


def test_fingerprint_of_examples():
    fp = fingerprint_of(Histogram(counts={"a": 2, "b": 1, "c": 1}, n=4))
    assert dict(fp.items()) == {1: 2, 2: 1}
    assert fp.n == 4
    assert fingerprint_of(Histogram(counts={}, n=0)).n == 0
    fp = fingerprint_of(Histogram(counts={"x": 5}, n=5))
    assert dict(fp.items()) == {5: 1} and fp.n == 5


def test_fingerprint_invariants():
    fp = Fingerprint(h={1: 2, 3: 4}, n=14)
    assert fp.distinct == 6
    with pytest.raises(ParameterError):
        Fingerprint(h={1: 2}, n=3)
    with pytest.raises(ParameterError):
        Fingerprint(h={0: 2}, n=0)
    for h_j in (0, 1.5):
        with pytest.raises(ParameterError, match="h_2 must be a positive integer"):
            Fingerprint(h={2: h_j}, n=2 * h_j)


def test_fingerprint_relabeling_invariance():
    tokens = ["a", "b", "a", "c", "c", "c"]
    relabeled = [{"a": "z", "b": "q", "c": "m"}[t] for t in tokens]
    fp1 = fingerprint_of(build_histogram(tokens))
    fp2 = fingerprint_of(build_histogram(relabeled))
    assert dict(fp1.items()) == dict(fp2.items())


def test_fingerprint_from_counts_matches_histogram_route():
    # both public routes against a tally of the symbols made in the test
    random_counts = np.random.default_rng(3).integers(0, 6, size=200)
    empty = np.array([], dtype=np.int64)
    for counts in (random_counts, np.zeros(5, dtype=np.int64), empty, np.array([0, 7, 0])):
        symbols = np.repeat(np.arange(counts.size), counts).tolist()
        expected = dict(Counter(Counter(symbols).values()))
        for fp in (fingerprint_from_counts(counts), fingerprint_of(build_histogram(symbols))):
            assert dict(fp.items()) == expected
            assert fp.n == len(symbols)
    # the general tally serves an empty sample too, a drawn one of size 0 included
    draw = sample_fingerprint(parse_family("uniform:k=10"), 0, np.random.default_rng(0))
    for fp in (fingerprint_from_counts(np.zeros(5, dtype=np.int64)),
               fingerprint_from_counts(empty), draw):
        assert fp == Fingerprint(h={}, n=0) and type(fp.n) is int


def test_fingerprint_file_round_trip(tmp_path):
    fp = Fingerprint(h={1: 2, 2: 1, 9: 4}, n=40)
    path = tmp_path / "fp.txt"
    write_fingerprint_file(fp, path)
    back = read_fingerprint_file(path)
    assert dict(back.items()) == dict(fp.items())
    assert back.n == fp.n


def test_fingerprint_file_examples(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1 2\n2 1\n")
    fp = read_fingerprint_file(path)
    assert dict(fp.items()) == {1: 2, 2: 1} and fp.n == 4

    path.write_text("#comment\n3 1\n")
    fp = read_fingerprint_file(path)
    assert dict(fp.items()) == {3: 1} and fp.n == 3

    path.write_text("2 1\n2 5\n")
    with pytest.raises(FingerprintFormatError, match="duplicate") as err:
        read_fingerprint_file(path)
    assert err.value.line_number == 2


def test_fingerprint_file_no_trailing_newline(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1 3\n4 2")
    assert read_fingerprint_file(path).n == 11


@pytest.mark.parametrize(
    "content,lineno",
    [
        ("1 2 3\n", 1),
        ("x 2\n", 1),
        ("2 1\n1 5\n", 2),   # decreasing j
        ("1 0\n", 1),
        ("1 2\n-3 1\n", 2),
    ],
)
def test_fingerprint_file_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    prefix = "^" + re.escape(f"{path}:{lineno}: ")
    with pytest.raises(FingerprintFormatError, match=prefix) as err:
        read_fingerprint_file(path)
    assert err.value.line_number == lineno


def test_resample_counts_and_determinism():
    paras = [["a", "b"], ["c"], ["d", "e"], ["f"]]
    out1 = resample(paras, 1.0, seed=5)
    out2 = resample(paras, 1.0, seed=5)
    assert out1 == out2
    # 4 paragraphs at fraction 1.0 -> exactly 4 drawn units
    drawn = resample([["x"]] * 4, 1.0, seed=0)
    assert len(drawn) == 4

    words = list("abcdefghij")
    assert len(resample(words, 0.5, seed=1)) == 5
    assert resample(words, 0.5, seed=2) != resample(words, 0.5, seed=3) or True


def test_resample_errors():
    with pytest.raises(EmptyInputError):
        resample([], 0.5, seed=0)
    with pytest.raises(ParameterError):
        resample(["a"], 0.0, seed=0)
    with pytest.raises(ParameterError):
        resample(["a"], 1.5, seed=0)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        resample(["a"], 0.5, seed=-1)
    assert resample(["a"], 1.0, seed=10**38) == ["a"]  # any size of seed


def test_split_paragraphs():
    text = "one two\nthree\n\nfour\n\n\nfive six"
    assert split_paragraphs(text) == ["one two\nthree", "four", "\nfive six"]


def test_single_pass_pipeline_over_stream():
    # tokenize -> histogram -> fingerprint over a generator, no materialization
    def stream():
        for i in range(1000):
            yield f"tok{i % 37}"

    fp = fingerprint_of(build_histogram(stream()))
    assert fp.n == 1000
    assert fp.distinct == 37
    assert sum(j * c for j, c in fp.items()) == 1000


@pytest.mark.parametrize("content,lineno", [
    ("1 3\n2 é\n".encode("utf-8"), 2),
    (b"1 3\n\xff 1\n", 2),
    ("# café\n1 3\n".encode("utf-8"), 1),
])
def test_fingerprint_file_non_ascii_byte_names_its_line(tmp_path, content, lineno):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(FingerprintFormatError, match="non-ASCII") as err:
        read_fingerprint_file(path)
    assert err.value.line_number == lineno
