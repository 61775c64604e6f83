"""Byte-level encoding detection and CSV dialect sniffing.

Real files arrive without metadata: the bytes themselves are the only
evidence of how they were written.  :func:`detect_encoding` walks a
deterministic fallback chain (BOM -> strict UTF-8 -> UTF-16 heuristic ->
Latin-1) and reports which step matched, so ingestion telemetry can
count how often the happy path was missed.  :func:`sniff_dialect` infers
the delimiter, quote character and header presence from a decoded sample
by consistency voting -- ``csv.Sniffer`` is too eager on single-column
and quote-heavy files, so the vote is implemented from scratch.

Everything here is pure (bytes/str in, verdict out) and deterministic,
which is what makes the Hypothesis round-trip suite in
``tests/io/test_roundtrip_properties.py`` possible.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass

#: Delimiters considered by the dialect vote, in tie-break priority order.
DELIMITER_CANDIDATES = (",", ";", "\t", "|")

#: BOM signatures checked first (longest first so UTF-32 never reads as
#: UTF-16).  Each maps to the codec that consumes the BOM itself.
_BOMS: tuple[tuple[bytes, str], ...] = (
    (codecs.BOM_UTF32_LE, "utf-32-le"),
    (codecs.BOM_UTF32_BE, "utf-32-be"),
    (codecs.BOM_UTF8, "utf-8-sig"),
    (codecs.BOM_UTF16_LE, "utf-16-le"),
    (codecs.BOM_UTF16_BE, "utf-16-be"),
)

#: The SQLite 3 file magic (first 16 bytes of every database file).
SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass(frozen=True)
class EncodingDetection:
    """Outcome of the encoding fallback chain.

    Attributes
    ----------
    encoding:
        The codec name to decode the payload with.
    had_bom:
        Whether a byte-order mark decided the verdict.
    n_fallbacks:
        How many chain steps failed before this one matched (0 for a
        BOM or clean UTF-8 file) -- the ``io.encoding_fallbacks``
        telemetry counter sums this.
    bom_length:
        Bytes to skip before decoding (0 unless ``had_bom`` and the
        codec does not strip its own BOM).
    """

    encoding: str
    had_bom: bool
    n_fallbacks: int
    bom_length: int = 0

    def decode(self, data: bytes) -> str:
        """Decode ``data`` under this verdict (never raises: the chain
        only returns codecs that decode the sampled bytes)."""
        return data[self.bom_length:].decode(self.encoding)


def _looks_like_utf16(data: bytes) -> str | None:
    """BOM-less UTF-16 heuristic: ASCII-heavy text has a NUL in every
    other byte.  Returns the endianness codec or ``None``."""
    if len(data) < 4:
        return None
    sample = data[:4096]
    sample = sample[: len(sample) - (len(sample) % 2)]
    if not sample:
        return None
    even_nuls = sample[0::2].count(0)
    odd_nuls = sample[1::2].count(0)
    half = len(sample) // 2
    # A text file needs a large majority of NULs on exactly one side.
    if odd_nuls >= 0.7 * half and even_nuls <= 0.1 * half:
        return "utf-16-le"
    if even_nuls >= 0.7 * half and odd_nuls <= 0.1 * half:
        return "utf-16-be"
    return None


def detect_encoding(data: bytes) -> EncodingDetection:
    """Run the UTF-8 / UTF-8-BOM / UTF-16 / Latin-1 fallback chain.

    The chain is ordered by evidence strength: an explicit BOM wins,
    then strict UTF-8 (which rejects random 8-bit bytes with high
    probability), then the BOM-less UTF-16 NUL-pattern heuristic, and
    finally Latin-1, which maps every byte and therefore never fails --
    the "at worst mojibake, never a crash" floor of the reader.
    """
    for bom, encoding in _BOMS:
        if data.startswith(bom):
            # utf-8-sig strips its own BOM; the explicit UTF-16/32
            # codecs do not, so skip it by hand.
            skip = 0 if encoding == "utf-8-sig" else len(bom)
            return EncodingDetection(encoding, had_bom=True, n_fallbacks=0,
                                     bom_length=skip)
    # The UTF-16 check must run before strict UTF-8: ASCII text encoded
    # as UTF-16 is byte-wise *valid* UTF-8 (NUL is a legal UTF-8 byte),
    # so the NUL-pattern heuristic is the only thing that can tell the
    # two apart.
    utf16 = _looks_like_utf16(data)
    if utf16 is not None:
        try:
            data.decode(utf16)
            return EncodingDetection(utf16, had_bom=False, n_fallbacks=1)
        except UnicodeDecodeError:
            pass
    try:
        data.decode("utf-8")
        return EncodingDetection("utf-8", had_bom=False, n_fallbacks=0)
    except UnicodeDecodeError:
        pass
    return EncodingDetection("latin-1", had_bom=False, n_fallbacks=2)


@dataclass(frozen=True)
class Dialect:
    """A sniffed CSV dialect."""

    delimiter: str
    quotechar: str = '"'
    has_header: bool = True


def _field_counts(lines: list[str], delimiter: str,
                  quotechar: str) -> list[int]:
    """Per-record field counts under one candidate dialect."""
    reader = csv.reader(io.StringIO("\n".join(lines)),
                        delimiter=delimiter, quotechar=quotechar)
    counts = []
    try:
        for row in reader:
            counts.append(len(row))
    except csv.Error:
        return []
    return counts


def _score_delimiter(lines: list[str],
                     delimiter: str) -> tuple[float, int, bool]:
    """(consistency, width, head agrees) of a candidate delimiter.

    Consistency is the fraction of records agreeing with the modal
    field count; width is that modal count.  A delimiter that never
    splits anything scores width 1 and loses to any real split.  The
    last element says whether the first record has the modal count: a
    delimiter that only splits quoted cells of later rows leaves the
    header whole.
    """
    counts = _field_counts(lines, delimiter, '"')
    if not counts:
        return (0.0, 0, False)
    modal = max(set(counts), key=lambda c: (counts.count(c), c))
    return (counts.count(modal) / len(counts), modal, counts[0] == modal)


def _is_number(text: str) -> bool:
    stripped = text.strip().replace(",", ".")
    # float() accepts digit-free spellings ("inf", "INFINITY", "nan")
    # that in a CSV are words -- plausible header names, never data
    # written by a numeric exporter.
    if not any(ch.isdigit() for ch in stripped):
        return False
    try:
        float(stripped)
        return True
    except ValueError:
        return False


def _infer_header(rows: list[list[str]]) -> bool:
    """Decide whether the first record is a header.

    Evidence for a header: its cells are non-empty and distinct, and at
    least one column whose body is numeric has a non-numeric first cell.
    With no body rows (or no signal either way) the answer defaults to
    ``True`` -- the common case for exported tables.
    """
    if not rows:
        return True
    head, body = rows[0], rows[1:]
    # Trailing empty header cells are routine in real exports (a
    # dangling delimiter); only *interior* empties argue against a
    # header row.
    trimmed = list(head)
    while trimmed and not trimmed[-1].strip():
        trimmed.pop()
    if not trimmed:
        return False
    if any(_is_number(cell) for cell in trimmed):
        return False
    # Numeric contrast is the strong signal: a column whose body is
    # mostly numeric under a non-numeric first cell means that first
    # row names things.  It overrides the weak negatives below --
    # duplicate header names do occur in real exports (the reader
    # disambiguates them).
    for j, name in enumerate(head):
        column = [row[j] for row in body if j < len(row)]
        numeric = [cell for cell in column if _is_number(cell)]
        if column and len(numeric) >= max(1, len(column) // 2) \
                and not _is_number(name):
            return True
    if any(not cell.strip() for cell in trimmed):
        return False
    if len(set(trimmed)) != len(trimmed):
        return False
    # No signal either way: a non-numeric, distinct, non-empty first
    # row is still the most plausible header.
    return True


def sniff_dialect(text: str, max_sample_lines: int = 64) -> Dialect:
    """Infer delimiter, quote character and header from decoded text.

    The delimiter is chosen by consistency voting over the first
    ``max_sample_lines`` records: highest agreement with the modal
    field count wins, ties broken by wider records, then by a first
    record with the modal field count, then by
    :data:`DELIMITER_CANDIDATES` order (comma first).  Quote character
    is ``"`` unless single quotes demonstrably wrap fields.
    """
    lines = text.splitlines()[:max_sample_lines]
    if not lines:
        return Dialect(delimiter=",")
    best = (",", (0.0, 0, False))
    for candidate in DELIMITER_CANDIDATES:
        score = _score_delimiter(lines, candidate)
        if score[1] <= 1:
            continue
        if score > best[1]:
            best = (candidate, score)
    delimiter = best[0]
    quotechar = '"'
    stripped = [line for line in lines if line]
    if stripped and all(line.startswith("'") and line.rstrip().endswith("'")
                        for line in stripped[:8]) \
            and not any('"' in line for line in stripped[:8]):
        quotechar = "'"
    try:
        rows = list(csv.reader(io.StringIO("\n".join(lines)),
                               delimiter=delimiter, quotechar=quotechar))
    except csv.Error:
        # Unparseable sample (bare CR in an unquoted field, oversized
        # field): keep the delimiter vote, default the header to True.
        rows = []
    return Dialect(delimiter=delimiter, quotechar=quotechar,
                   has_header=_infer_header(rows))
