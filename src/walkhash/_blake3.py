"""One-shot BLAKE3 (plain hash mode) with extendable output.

Vendored because no compiled binding is installable in the target
environment. Correctness is pinned by tests/data/blake3_vectors.json,
generated with the reference Rust implementation; the test suite fails
loudly if this file ever drifts from it.

Every digest, one or many, takes the same batched path ("SIMD across
chunks", BLAKE3 spec section 5.3), so independent work shares lanes:

- Messages are grouped by length, because each length has its own tree
  shape. Within a group every chunk of every message is one lane,
  chunk-major, so the final chunks of the group are its last lanes.
- All chunks advance together one block at a time. The final (possibly
  partial) chunk runs in the same 16-step loop with its own block_len and
  flags, and drops out of the batch once its last block is done. A
  one-chunk message stops before that block, which is its root node.
- Each parent level of a group is one compression, and the root output
  blocks of every message in the call are one more.

A compression has two kernels with one output, picked by lane count:

- Below _CROSSOVER lanes, the int kernel holds each of the 16 state words
  and 16 message words as one Python int, lane j in bits 64j..64j+31
  (SWAR, "SIMD within a register"). A G step is the same 30 int
  operations at any lane count, with no numpy dispatch. One 32 KB
  message is 32 chunk lanes, then 16, 8, 4, 2 and 1, so it runs here.
- At or above it, the numpy kernel holds the state as four (4, L) rows
  a, b, c, d. A round is one G over whole rows (the column step) and one
  G over b, c and d rotated by 1, 2 and 3 lanes of the row (the diagonal
  step), updated in place. The message words of all seven rounds are
  gathered once per call through a schedule computed at import.

The int kernel's cost grows with the width of its ints, while the numpy
kernel's is mostly dispatch and barely grows below a few hundred lanes.
_CROSSOVER is where the two measured equal (88 lanes on a 2-core Xeon
VM, Python 3.11, numpy 2.4).
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
_CROSSOVER = 88  # lanes; see the module docstring


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


def _start(h, counter, block_len, flags, lanes: int):
    """(16, L) uint32 initial state: h, four IV words, counter, len, flags."""
    v = np.empty((16, lanes), dtype=np.uint32)
    v[0:8] = h
    v[8:12] = _IV[0:4, None]
    counter = np.asarray(counter, dtype=np.uint64)
    v[12] = counter & np.uint64(0xFFFFFFFF)
    v[13] = counter >> np.uint64(32)
    v[14] = block_len
    v[15] = flags
    return v


def _compress_rows(h, m, counter, block_len, flags):
    """The numpy kernel: each G runs over four (4, L) state rows."""
    lanes = m.shape[1]
    v = _start(h, counter, block_len, flags, lanes)
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


def _gi(a, b, c, d, mx, my, M):
    """G on lane-packed ints; M masks the low 32 bits of every 64-bit slot."""
    a = (a + b + mx) & M
    d ^= a
    d = ((d >> 16) | (d << 16)) & M
    c = (c + d) & M
    b ^= c
    b = ((b >> 12) | (b << 20)) & M
    a = (a + b + my) & M
    d ^= a
    d = ((d >> 8) | (d << 24)) & M
    c = (c + d) & M
    b ^= c
    b = ((b >> 7) | (b << 25)) & M
    return a, b, c, d


def _compress_ints(h, m, counter, block_len, flags):
    """The int kernel: each state and message word is one Python int.

    Lane j of a word sits in bits 64j..64j+31, so a sum of three words
    never carries into the next lane and a shift's spill lands in bits
    that the mask M clears.
    """
    lanes = m.shape[1]
    width = 8 * lanes
    state = _start(h, counter, block_len, flags, lanes)
    blob = np.concatenate([state, m]).astype("<u8").tobytes()
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, \
        *w = [int.from_bytes(blob[i:i + width], "little")
              for i in range(0, 32 * width, width)]
    hin = v0, v1, v2, v3, v4, v5, v6, v7
    M = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * lanes, "little")
    for _ in range(7):
        v0, v4, v8, v12 = _gi(v0, v4, v8, v12, w[0], w[1], M)
        v1, v5, v9, v13 = _gi(v1, v5, v9, v13, w[2], w[3], M)
        v2, v6, v10, v14 = _gi(v2, v6, v10, v14, w[4], w[5], M)
        v3, v7, v11, v15 = _gi(v3, v7, v11, v15, w[6], w[7], M)
        v0, v5, v10, v15 = _gi(v0, v5, v10, v15, w[8], w[9], M)
        v1, v6, v11, v12 = _gi(v1, v6, v11, v12, w[10], w[11], M)
        v2, v7, v8, v13 = _gi(v2, v7, v8, v13, w[12], w[13], M)
        v3, v4, v9, v14 = _gi(v3, v4, v9, v14, w[14], w[15], M)
        w = [w[i] for i in _PERM]
    low = v8, v9, v10, v11, v12, v13, v14, v15
    out = [x ^ y for x, y in zip((v0, v1, v2, v3, v4, v5, v6, v7), low)]
    out += [x ^ y for x, y in zip(low, hin)]
    blob = b"".join(x.to_bytes(width, "little") for x in out)
    return np.frombuffer(blob, dtype="<u8").reshape(16, lanes).astype(
        np.uint32)


def _compress(h, m, counter, block_len, flags):
    """Full 16-word compression output for a batch of lanes.

    h: (8, L) or (8, 1) input chaining values; m: (16, L) message words;
    counter: scalar or (L,) uint64; block_len, flags: scalar or (L,).
    Returns (16, L) uint32 from the int kernel below _CROSSOVER lanes and
    from the numpy kernel at or above it.
    """
    kernel = _compress_ints if m.shape[1] < _CROSSOVER else _compress_rows
    return kernel(h, m, counter, block_len, flags)


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
    if not isinstance(out_len, int) or isinstance(out_len, bool) \
            or out_len < 1:
        raise ValueError(f"out_len must be an int >= 1, got {out_len!r}")
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
