"""One-shot BLAKE3 (plain hash mode) with extendable output.

Vendored because no compiled binding is installable in the target
environment. Correctness is pinned by tests/data/blake3_vectors.json,
generated with the reference Rust implementation; the test suite fails
loudly if this file ever drifts from it.

Every digest, one or many, takes the same batched path ("SIMD across
chunks", BLAKE3 spec section 5.3). Each compression's cost is numpy
dispatch, not arithmetic, so independent work shares lanes:

- Messages are grouped by length, because each length has its own tree
  shape. Within a group every chunk of every message is one lane,
  chunk-major, so the final chunks of the group are its last lanes.
- All chunks advance together one block at a time. The final (possibly
  partial) chunk runs in the same 16-step loop with its own block_len and
  flags, and drops out of the batch once its last block is done. A
  one-chunk message stops before that block, which is its root node.
- Each parent level of a group is one compression, and the root output
  blocks of every message in the call are one more.

The compression holds its state as four (4, L) rows a, b, c, d. A round
is one G over whole rows (the column step) and one G over b, c and d
rotated by 1, 2 and 3 lanes of the row (the diagonal step), updated in
place. The message words of all seven rounds are gathered once per call
through a schedule computed at import.
"""

from __future__ import annotations

import numpy as np

_IV = np.array(
    [0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
     0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19],
    dtype=np.uint32,
)
_PERM = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8]

_CHUNK_LEN = 1024
_BLOCK_LEN = 64

_CHUNK_START = 1
_CHUNK_END = 2
_PARENT = 4
_ROOT = 8


def _schedule() -> np.ndarray:
    """Message word indices of all 7 rounds, flattened to (112,).

    Each round's 16 indices are ordered column x, column y, diagonal x,
    diagonal y, four words each, so every G input is a contiguous slice.
    """
    order = [0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15]
    words, rounds = list(range(16)), []
    for _ in range(7):
        rounds += [words[j] for j in order]
        words = [words[j] for j in _PERM]
    return np.array(rounds, dtype=np.intp)


_SCHEDULE = _schedule()
_ROT1, _ROT2, _ROT3 = ([(i + r) % 4 for i in range(4)] for r in (1, 2, 3))


def _rotr(x, r: int, tmp) -> None:
    """x = x rotated right by r bits, in place; tmp is a buffer of x's shape."""
    np.right_shift(x, r, out=tmp)
    x <<= 32 - r
    x |= tmp


def _g(a, b, c, d, mx, my, tmp) -> None:
    a += b + mx
    d ^= a
    _rotr(d, 16, tmp)
    c += d
    b ^= c
    _rotr(b, 12, tmp)
    a += b + my
    d ^= a
    _rotr(d, 8, tmp)
    c += d
    b ^= c
    _rotr(b, 7, tmp)


def _compress(h, m, counter, block_len, flags):
    """Full 16-word compression output for a batch of lanes.

    h: (8, L) or (8, 1) input chaining values; m: (16, L) message words;
    counter: scalar or (L,) uint64; block_len, flags: scalar or (L,).
    """
    lanes = m.shape[1]
    v = np.empty((16, lanes), dtype=np.uint32)
    v[0:8] = h
    v[8:12] = _IV[0:4, None]
    counter = np.asarray(counter, dtype=np.uint64)
    v[12] = counter & np.uint64(0xFFFFFFFF)
    v[13] = counter >> np.uint64(32)
    v[14] = block_len
    v[15] = flags
    a, b, c, d = v[0:4], v[4:8], v[8:12], v[12:16]
    tmp = np.empty((4, lanes), dtype=np.uint32)
    words = m[_SCHEDULE]
    for r in range(0, 112, 16):
        _g(a, b, c, d, words[r:r + 4], words[r + 4:r + 8], tmp)
        bd, cd, dd = b[_ROT1], c[_ROT2], d[_ROT3]
        _g(a, bd, cd, dd, words[r + 8:r + 12], words[r + 12:r + 16], tmp)
        b[_ROT1], c[_ROT2], d[_ROT3] = bd, cd, dd
    v[0:8] ^= v[8:16]
    v[8:16] ^= h
    return v


def _root_nodes(padded, n: int):
    """Root node (h, m, block_len, flags) of each message of one length.

    padded: (k, chunks * 1024) uint8, k messages of n bytes each, zero
    padded. Returns h (8, k), m (16, k), block_len (k,) and flags (k,).
    """
    k, nchunks = padded.shape[0], padded.shape[1] // _CHUNK_LEN
    tail = n - (nchunks - 1) * _CHUNK_LEN
    last_blocks = max(1, -(-tail // _BLOCK_LEN))
    blocks = padded.view("<u4").reshape(k, nchunks, 16, 16)
    final = slice((nchunks - 1) * k, None)
    h = np.repeat(_IV[:, None], nchunks * k, axis=1)
    counter = np.repeat(np.arange(nchunks, dtype=np.uint64), k)
    for b in range(16 if nchunks > 1 else last_blocks):
        lanes = nchunks * k if b < last_blocks else (nchunks - 1) * k
        m = blocks[:, :, b].transpose(2, 1, 0).reshape(16, -1)[:, :lanes]
        block_len = np.full(lanes, _BLOCK_LEN, dtype=np.uint32)
        flags = np.full(lanes, _CHUNK_START if b == 0 else 0, dtype=np.uint32)
        if b == 15:
            flags |= _CHUNK_END
        if b == last_blocks - 1:
            block_len[final] = tail - _BLOCK_LEN * b
            flags[final] |= _CHUNK_END
            if nchunks == 1:
                return h, m, block_len, flags | _ROOT
        h[:, :lanes] = _compress(
            h[:, :lanes], m, counter[:lanes], block_len, flags)[0:8]
    # Pair chain values level by level; an odd one out is promoted
    # unchanged, which gives the reference's left-subtree tree shape.
    cvs = h.reshape(8, nchunks, k)
    while cvs.shape[1] > 2:
        pairs = cvs.shape[1] // 2
        m = np.concatenate(
            [cvs[:, 0:2 * pairs:2], cvs[:, 1:2 * pairs:2]]).reshape(16, -1)
        out = _compress(_IV[:, None], m, 0, _BLOCK_LEN, _PARENT)[0:8]
        cvs = np.concatenate(
            [out.reshape(8, pairs, k), cvs[:, 2 * pairs:]], axis=1)
    m = cvs.transpose(1, 0, 2).reshape(16, k)
    return (np.repeat(_IV[:, None], k, axis=1), m,
            np.full(k, _BLOCK_LEN, dtype=np.uint32),
            np.full(k, _PARENT | _ROOT, dtype=np.uint32))


def blake3_many(messages, out_len: int = 32) -> list[bytes]:
    """BLAKE3 hash of each message, extended to out_len bytes, in order."""
    if out_len < 1:
        raise ValueError("out_len must be at least 1")
    data = [np.frombuffer(msg, dtype=np.uint8) for msg in messages]
    groups: dict[int, list[int]] = {}
    for i, arr in enumerate(data):
        groups.setdefault(len(arr), []).append(i)
    order: list[int] = []
    nodes = []
    for n, members in groups.items():
        width = max(1, -(-n // _CHUNK_LEN)) * _CHUNK_LEN
        padded = np.zeros((len(members), width), dtype=np.uint8)
        for row, i in enumerate(members):
            padded[row, :n] = data[i]
        nodes.append(_root_nodes(padded, n))
        order.extend(members)
    if not order:
        return []
    h, m, block_len, flags = (np.concatenate(parts, axis=-1)
                              for parts in zip(*nodes))
    nblocks = -(-out_len // _BLOCK_LEN)
    out = _compress(
        np.repeat(h, nblocks, axis=1), np.repeat(m, nblocks, axis=1),
        np.tile(np.arange(nblocks, dtype=np.uint64), len(order)),
        np.repeat(block_len, nblocks), np.repeat(flags, nblocks))
    stride = nblocks * _BLOCK_LEN
    blob = out.T.astype("<u4").tobytes()
    digests: list[bytes] = [b""] * len(order)
    for row, i in enumerate(order):
        digests[i] = blob[row * stride:row * stride + out_len]
    return digests


def blake3_digest(data: bytes, out_len: int = 32) -> bytes:
    """BLAKE3 hash of data, extended to out_len bytes."""
    return blake3_many([data], out_len)[0]
