"""Tweet-text preprocessing, vocabulary handling and the LSTM encoder.

Tweets get a symbol treatment before lookup: user mentions, hashtags, URLs
and bare numbers collapse to dedicated symbols; everything else is lowercased.
Both tweet text and image text run through the same encoder.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from ..autodiff import Tensor, ops
from ..nn import LSTM, Layer

PAD = "<pad>"
UNK = "<unk>"
USER = "<user>"
HASHTAG = "<hashtag>"
NUMBER = "<number>"
URL = "<url>"

SPECIALS = (PAD, UNK, USER, HASHTAG, NUMBER, URL)

_URL_RE = re.compile(r"^(https?://|www\.)\S+$", re.IGNORECASE)
_NUMBER_RE = re.compile(r"^[+-]?\d+([.,]\d+)*$")
_STRIP_CHARS = ".,!?;:\"'()[]"


def preprocess_tweet_text(raw):
    """Tokenize a raw tweet into symbol-normalized lowercase tokens."""
    tokens = []
    for piece in raw.split():
        if _URL_RE.match(piece):
            tokens.append(URL)
            continue
        piece = piece.strip(_STRIP_CHARS)
        if not piece:
            continue
        if piece.startswith("@") and len(piece) > 1:
            tokens.append(USER)
        elif piece.startswith("#") and len(piece) > 1:
            tokens.append(HASHTAG)
            tokens.append(piece[1:].lower())
        elif _NUMBER_RE.match(piece):
            tokens.append(NUMBER)
        else:
            tokens.append(piece.lower())
    return tokens


def encode_texts(vocab, texts):
    """``[vocab.encode(preprocess_tweet_text(t)) for t in texts]``, tokenising each piece once.

    :func:`preprocess_tweet_text` maps every whitespace piece on its own, so a
    text's ids are the concatenated ids of its pieces, and each distinct piece
    is tokenised once. The memo lives for this call only. It pays when pieces
    repeat across ``texts``; when none repeats, a call takes about twice as
    long as the per-text comprehension.
    """
    memo = {}
    encoded = []
    for text in texts:
        ids = []
        for piece in text.split():
            piece_ids = memo.get(piece)
            if piece_ids is None:
                piece_ids = memo[piece] = vocab.encode(preprocess_tweet_text(piece))
            ids += piece_ids
        encoded.append(ids)
    return encoded


class Vocabulary:
    """Dense token -> index map; the special symbols always occupy 0..5."""

    def __init__(self, tokens=()):
        self._index = {}
        for tok in SPECIALS:
            self._index[tok] = len(self._index)
        for tok in tokens:
            self.add(tok)

    def add(self, token):
        if token not in self._index:
            self._index[token] = len(self._index)
        return self._index[token]

    def lookup(self, token):
        return self._index.get(token, self._index[UNK])

    def encode(self, tokens):
        return [self.lookup(t) for t in tokens]

    def __len__(self):
        return len(self._index)

    def __contains__(self, token):
        return token in self._index

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok, _ in sorted(self._index.items(), key=lambda kv: kv[1]):
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
        tokens = [tok for tok in text.splitlines() if tok]  # str.split() tokens hold no line break
        if tuple(tokens[: len(SPECIALS)]) != SPECIALS:
            raise ValueError(f"{path}: vocabulary file must start with {SPECIALS}")
        vocab = cls()
        for tok in tokens[len(SPECIALS):]:
            vocab.add(tok)
        return vocab


def pad_ids(id_lists):
    """Right-pad token-id lists with 0 to their longest; returns (ids (N, T), lengths (N,)).

    Lengths are explicit: a text holding id 0 (a literal ``<pad>``) keeps its length.
    """
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    ids = np.zeros((len(id_lists), int(lengths.max(initial=0))), dtype=np.int64)
    # a boolean mask assigns in row-major order, so the rows' ids go in concatenated
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(id_lists), dtype=np.int64, count=int(lengths.sum())
    )
    return ids, lengths


class TextEncoder(Layer):
    """Embedding table + single-layer LSTM; encodes a padded batch of token ids.

    The encoding of a sequence is the hidden state after its last token; empty
    sequences encode to the zero vector.
    """

    def __init__(self, vocab_size, embedding_dim, hidden_dim, rng):
        self.hidden_dim = hidden_dim
        self.embed = Tensor(rng.uniform(-0.05, 0.05, (vocab_size, embedding_dim)), requires_grad=True)
        self.lstm = LSTM(embedding_dim, hidden_dim, rng)

    def encode(self, text):
        """Encode ``text``, a :func:`pad_ids` pair, to an (N, hidden_dim) Tensor."""
        ids, lengths = text
        if ids.shape[1] == 0:
            return Tensor(np.zeros((len(ids), self.hidden_dim)))
        return self.lstm(ops.embedding(self.embed, ids), lengths)

    def _children(self):
        return {"lstm": self.lstm}

    def parameters(self):
        return {**super().parameters(), "embed": self.embed}
