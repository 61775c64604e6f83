"""Character and attribute dictionaries (Figure 3, step 4).

The character dictionary assigns each distinct character of the dirty
values an index from 1 upward; index 0 is the padding end-indicator used
to right-pad short sequences.  The attribute dictionary indexes attribute
names for the metadata input of ETSB-RNN.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.errors import EncodingError

PAD_INDEX = 0


class CharDictionary:
    """Bidirectional character-to-index mapping with a reserved pad index.

    Parameters
    ----------
    texts:
        The corpus of cell values; every distinct character is indexed in
        first-occurrence order, starting at 1 (0 is padding).
    """

    def __init__(self, texts: Iterable[str]):
        chars = dict.fromkeys(chain.from_iterable(texts))
        index = {char: i for i, char in enumerate(chars, start=1)}
        self._char_to_index = index
        self._index_to_char = {i: c for c, i in index.items()}

    @property
    def n_chars(self) -> int:
        """Number of distinct characters (excluding padding)."""
        return len(self._char_to_index)

    @property
    def vocab_size(self) -> int:
        """Embedding-table size: distinct characters + the pad slot."""
        return len(self._char_to_index) + 1

    def __contains__(self, char: str) -> bool:
        return char in self._char_to_index

    def index_of(self, char: str) -> int:
        """Index of ``char``.

        Raises
        ------
        EncodingError
            For characters absent from the corpus the dictionary was
            built on.
        """
        try:
            return self._char_to_index[char]
        except KeyError:
            raise EncodingError(f"character {char!r} not in dictionary") from None

    def char_of(self, index: int) -> str:
        """Inverse lookup (pad index has no character)."""
        try:
            return self._index_to_char[index]
        except KeyError:
            raise EncodingError(f"index {index} not in dictionary") from None

    def encode(self, text: str, length: int,
               unknown: str = "error") -> np.ndarray:
        """Encode ``text`` as a zero-padded index array of ``length``.

        Parameters
        ----------
        text:
            Value to encode; must be at most ``length`` characters.
        length:
            Output length; the tail is padded with :data:`PAD_INDEX`.
        unknown:
            ``"error"`` raises on out-of-dictionary characters;
            ``"skip"`` drops them (used when scoring unseen data).
        """
        if unknown not in ("error", "skip"):
            raise EncodingError(f"unknown must be 'error' or 'skip', got {unknown!r}")
        if len(text) > length:
            raise EncodingError(
                f"value of length {len(text)} exceeds maximum {length}; "
                "truncate during preparation first"
            )
        indices = []
        for char in text:
            if char in self._char_to_index:
                indices.append(self._char_to_index[char])
            elif unknown == "error":
                raise EncodingError(f"character {char!r} not in dictionary")
        out = np.zeros(length, dtype=np.int64)
        out[:len(indices)] = indices
        return out

    def encode_batch(self, texts: Sequence[str], length: int,
                     unknown: str = "error") -> np.ndarray:
        """:meth:`encode` every text at once: a ``(len(texts), length)`` array.

        Row ``i`` equals ``encode(texts[i], length, unknown)``, and the
        error raised is the one :meth:`encode` raises for the first text
        it would reject.  All characters are looked up by code point in
        one vectorised gather instead of one dictionary probe each.
        """
        if unknown not in ("error", "skip"):
            raise EncodingError(f"unknown must be 'error' or 'skip', got {unknown!r}")
        n = len(texts)
        sizes = np.fromiter(map(len, texts), dtype=np.int64, count=n)
        points = np.frombuffer(
            "".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        known = np.fromiter(map(ord, self._char_to_index), dtype=np.int64,
                            count=self.n_chars)
        # Code point -> index; the last slot (and every gap) is 0, the
        # pad index, for characters outside the dictionary.
        lookup = np.zeros(int(known.max(initial=0)) + 2, dtype=np.int64)
        lookup[known] = np.arange(1, self.n_chars + 1)
        codes = lookup[np.minimum(points, lookup.size - 1)]
        found = codes != PAD_INDEX
        owner = np.repeat(np.arange(n), sizes)
        rejected = sizes > length
        if unknown == "error":
            rejected[owner[~found]] = True
        if rejected.any():
            self.encode(texts[int(np.argmax(rejected))], length, unknown)
        kept = np.bincount(owner[found], minlength=n)
        out = np.zeros((n, length), dtype=np.int64)
        out[np.arange(length) < kept[:, None]] = codes[found]
        return out

    def decode(self, indices: Iterable[int]) -> str:
        """Map indices back to text, stopping at the first pad index."""
        chars = []
        for index in indices:
            if index == PAD_INDEX:
                break
            chars.append(self.char_of(int(index)))
        return "".join(chars)


class AttributeDictionary:
    """Attribute-name-to-index mapping for the ETSB-RNN metadata input.

    Indices start at 1 so that index 0 can stay a neutral padding slot in
    the attribute embedding, mirroring the character dictionary.
    """

    def __init__(self, attributes: Iterable[str]):
        index: dict[str, int] = {}
        for attribute in attributes:
            if attribute not in index:
                index[attribute] = len(index) + 1
        if not index:
            raise EncodingError("attribute dictionary requires at least one attribute")
        self._attr_to_index = index
        self._index_to_attr = {i: a for a, i in index.items()}

    @property
    def n_attributes(self) -> int:
        """Number of attributes."""
        return len(self._attr_to_index)

    @property
    def vocab_size(self) -> int:
        """Embedding-table size: attributes + the pad slot."""
        return len(self._attr_to_index) + 1

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attr_to_index

    def index_of(self, attribute: str) -> int:
        """Index of ``attribute`` (raises for unknown names)."""
        try:
            return self._attr_to_index[attribute]
        except KeyError:
            raise EncodingError(f"attribute {attribute!r} not in dictionary") from None

    def attribute_of(self, index: int) -> str:
        """Inverse lookup."""
        try:
            return self._index_to_attr[index]
        except KeyError:
            raise EncodingError(f"index {index} not in dictionary") from None

    def names(self) -> list[str]:
        """Attribute names in index order."""
        return [self._index_to_attr[i] for i in range(1, len(self._index_to_attr) + 1)]
