"""One-shot BLAKE3 (plain hash mode) with extendable output.

Vendored because no compiled binding is installable in the target
environment. Correctness is pinned by tests/data/blake3_vectors.json,
generated with the reference Rust implementation; the test suite fails
loudly if this file ever drifts from it.

Every digest, one or many, takes the same batched path ("SIMD across
chunks", BLAKE3 spec section 5.3), so independent work shares lanes:

- Messages are grouped by length, because each length has its own tree
  shape. Within a group every chunk of every message is one lane,
  message-major, so the group's padded bytes are the lanes' message words
  without a copy, and every nchunks-th lane is a final chunk.
- A chunk's chaining value depends only on its bytes, its counter and its
  flags (the BLAKE3 specification, O'Connor, Aumasson, Neves and
  Wilcox-O'Hearn, 2020), so a chunk equal to the one at the same index of
  the group's previous message (in call order) repeats its chaining
  value. One compare over the group's bytes as uint64 words finds
  them. The chunk stage runs only the other lanes, gathered into one
  copy, and each repeated lane takes the value of the nearest earlier
  lane at its chunk index. So a point-nudge trial's disturbed n=2000 walk
  runs one chunk lane instead of 32; one message alone finds no repeat.
  Parent levels are recomputed for every message.
- The chunk stage advances its chunks together one block at a time. The
  final (possibly partial) chunks, marked by a per-lane mask, run in the
  same 16-block loop with their own block_len and flags and keep the
  chaining value of their last block. A one-chunk message stops before
  that block, which is its root node.
- Each parent level of a group is one compression, and the root output
  blocks of every message in the call are one more.

The chunk stage and each parent level run on one of two kernels with one
output, picked by lane count. The root output blocks, one lane per
64-byte output block of each message, always run on the int kernel. A
key's root is one lane; 524 n=2000 walks, the most that one avalanche
batch of them holds, put 524 lanes there, which took 1.2 ms on ints
against 0.25 ms on numpy, about 1% of the batch's 57 ms of hashing.

- Below _CROSSOVER lanes, the int kernel holds each state and message
  word as one Python int, lane j in bits 64j..64j+31 (SWAR, "SIMD within
  a register"). A round is the spec's: one G function on the four
  columns, then on the four diagonals, each G the same 30 int operations
  at any lane count, with no numpy dispatch. Words are packed once per
  stage: the chunk stage packs the message words of all 16 blocks with
  one transpose and one tobytes, keeps the chaining values packed from
  block to block and unpacks them once at the end; each parent level and
  the root output blocks pack their words once from the level below. One
  32 KB message is 32 chunk lanes, then 16, 8, 4, 2 and 1, so it runs
  here.
- At or above it, the numpy kernel holds the state in one (28, L) array:
  a in four rows, and b, c and d in eight rows each, the second four
  repeating the first. A round is one G over whole (4, L) rows (the
  column step) and one G over b, c and d rotated by 1, 2 and 3 words
  (the diagonal step), which are slices of the doubled rows; one copy
  before the diagonal step and three after it keep both halves current.
  Every operation works in place, and the shift counts are 0-d uint32
  arrays, because numpy converts a Python int operand on every call. The
  message words of all seven rounds are gathered once per compression
  through a schedule computed at import. The chunk stage keeps one state
  buffer for all its blocks.

The int kernel's cost grows with the width of its ints, while the numpy
kernel's is mostly dispatch and barely grows below a few hundred lanes.
_CROSSOVER is where the two measured equal: the int kernel's 7 rounds on
packed words against one numpy compression, a whole parent level and a
whole chunk stage each met between 44 and 64 lanes (in-process CPU time,
best of interleaved repeats, on a 2-core Xeon VM, Python 3.11.7, numpy
2.4.6). The packing is left out of the first comparison because the int
stages pay it once, not once per block.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

_IV = np.array(
    [0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
     0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19],
    dtype=np.uint32,
)
_PERM = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8]
_permute = itemgetter(*_PERM)

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
_IV_INTS = [int(x) for x in _IV]
_PARENT_STATE = [*_IV_INTS, *_IV_INTS[0:4], 0, 0, _BLOCK_LEN, _PARENT]
# The rows of the numpy kernel's state that hold the 16 start words.
_HOME = np.r_[0:8, 12:16, 20:24]
_PARENT_ROWS = np.array(_PARENT_STATE, dtype=np.uint32)[:, None]
_CROSSOVER = 56  # lanes; see the module docstring
# The shifts of a rotation right by r bits, r and 32 - r, as 0-d uint32
# arrays: numpy converts a Python int operand on every call.
_BY16, _BY12, _BY8, _BY7 = ((np.array(r, dtype=np.uint32),
                             np.array(32 - r, dtype=np.uint32))
                            for r in (16, 12, 8, 7))


def _rotr(x, shifts, tmp) -> None:
    """x = x rotated right by shifts[0] bits, in place; tmp is a buffer of
    x's shape."""
    right, left = shifts
    np.right_shift(x, right, tmp)
    np.left_shift(x, left, x)
    x |= tmp


def _g(a, b, c, d, mx, my, tmp) -> None:
    a += b
    a += mx
    d ^= a
    _rotr(d, _BY16, tmp)
    c += d
    b ^= c
    _rotr(b, _BY12, tmp)
    a += b
    a += my
    d ^= a
    _rotr(d, _BY8, tmp)
    c += d
    b ^= c
    _rotr(b, _BY7, tmp)


def _rounds_rows(s, words, tmp) -> None:
    """The numpy kernel's 7 rounds on the (28, L) state s, in place: a in
    rows 0-3, b, c and d doubled in rows 4-11, 12-19 and 20-27. Leaves
    the chaining value in rows 0-7. words: (112, L) in _SCHEDULE order;
    tmp: (4, L)."""
    a, b, c, d = s[0:4], s[4:8], s[12:16], s[20:24]
    upper = s[4:28].reshape(3, 8, -1)
    for r in range(0, 112, 16):
        _g(a, b, c, d, words[r:r + 4], words[r + 4:r + 8], tmp)
        upper[:, 4:8] = upper[:, 0:4]
        _g(a, s[5:9], s[14:18], s[23:27], words[r + 8:r + 12],
           words[r + 12:r + 16], tmp)
        s[4], s[12:14], s[20:23] = s[8], s[16:18], s[24:27]
    a ^= c
    b ^= d


def _ones(lanes: int) -> int:
    """1 in the low bit of each of lanes 64-bit slots: x * _ones(L) is x in
    every lane."""
    return int.from_bytes(b"\1\0\0\0\0\0\0\0" * lanes, "little")


def _pack(words) -> list[int]:
    """Each row of a (R, L) array of 32-bit words as one lane-packed int."""
    width = 8 * words.shape[1]
    blob = words.astype("<u8").tobytes()
    return [int.from_bytes(blob[i:i + width], "little")
            for i in range(0, len(blob), width)]


def _unpack(words, lanes: int):
    """(len(words), lanes) uint32 from lane-packed ints; undoes _pack."""
    blob = b"".join(x.to_bytes(8 * lanes, "little") for x in words)
    return np.frombuffer(blob, dtype="<u8").reshape(-1, lanes).astype(
        np.uint32)


def _g_ints(a, b, c, d, x, y, M):
    """The spec's G on lane-packed ints: a, b, c, d after mixing in the
    message words x and y."""
    a = (a + b + x) & M
    d ^= a
    d = ((d >> 16) | (d << 16)) & M
    c = (c + d) & M
    b ^= c
    b = ((b >> 12) | (b << 20)) & M
    a = (a + b + y) & M
    d ^= a
    d = ((d >> 8) | (d << 24)) & M
    c = (c + d) & M
    b ^= c
    b = ((b >> 7) | (b << 25)) & M
    return a, b, c, d


def _rounds(v, w, M):
    """The 7 rounds of the int kernel on 16 state words v and 16 message
    words w, all lane-packed; returns the 16 state words after them.

    Lane j of a word sits in bits 64j..64j+31, so a sum of three words
    never carries into the next lane and a shift's spill lands in bits
    that the mask M clears. The 56 _g_ints calls cost about 10 us a
    compression over inline steps, about 6% of one 32 KB digest.
    """
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 = v
    for _ in range(7):
        v0, v4, v8, v12 = _g_ints(v0, v4, v8, v12, w[0], w[1], M)
        v1, v5, v9, v13 = _g_ints(v1, v5, v9, v13, w[2], w[3], M)
        v2, v6, v10, v14 = _g_ints(v2, v6, v10, v14, w[4], w[5], M)
        v3, v7, v11, v15 = _g_ints(v3, v7, v11, v15, w[6], w[7], M)
        v0, v5, v10, v15 = _g_ints(v0, v5, v10, v15, w[8], w[9], M)
        v1, v6, v11, v12 = _g_ints(v1, v6, v11, v12, w[10], w[11], M)
        v2, v7, v8, v13 = _g_ints(v2, v7, v8, v13, w[12], w[13], M)
        v3, v4, v9, v14 = _g_ints(v3, v4, v9, v14, w[14], w[15], M)
        w = _permute(w)
    return [v0, v1, v2, v3, v4, v5, v6, v7,
            v8, v9, v10, v11, v12, v13, v14, v15]


def _compress_ints(h, m, counter, block_len, flags):
    """The 16 output words (16, L) of L compressions on the int kernel.

    h: (8, L) or (8, 1) chaining values; m: (16, L) message words;
    counter (uint64), block_len and flags: each a scalar or (L,).
    """
    lanes = m.shape[1]
    words = np.empty((32, lanes), dtype=np.uint32)
    words[0:8] = h
    words[8:12] = _IV[0:4, None]
    counter = np.asarray(counter, dtype=np.uint64)
    words[12] = counter & np.uint64(0xFFFFFFFF)
    words[13] = counter >> np.uint64(32)
    words[14] = block_len
    words[15] = flags
    words[16:32] = m
    words = _pack(words)
    v = _rounds(words[:16], words[16:], _ones(lanes) * 0xFFFFFFFF)
    out = [v[i] ^ v[i + 8] for i in range(8)]
    out += [v[i + 8] ^ words[i] for i in range(8)]
    return _unpack(out, lanes)


def _chunks_rows(m, counter, final, tail: int):
    """The numpy kernel's chunk stage, with _chunks_ints's inputs and
    output. One state buffer serves every block: the chaining value stays
    in its rows 0-7, and each block rewrites the IV, counter, len and flags
    rows."""
    blocks, _, lanes = m.shape
    last = max(0, (tail - 1) // _BLOCK_LEN)
    s = np.empty((28, lanes), dtype=np.uint32)
    s[0:8] = _IV[:, None]
    counter = np.stack([counter & np.uint64(0xFFFFFFFF),
                        counter >> np.uint64(32)])
    tmp = np.empty((4, lanes), dtype=np.uint32)
    for b in range(blocks):
        s[12:16] = _IV[0:4, None]
        s[20:22] = counter
        s[22] = _BLOCK_LEN
        s[23] = ((_CHUNK_START if b == 0 else 0)
                 | (_CHUNK_END if b == 15 else 0))
        if b == last:
            s[22, final] = tail - _BLOCK_LEN * b
            s[23, final] |= _CHUNK_END
        # A contiguous copy first: the schedule gathers from it 7 times.
        _rounds_rows(s, np.ascontiguousarray(m[b])[_SCHEDULE], tmp)
        if b == last:
            kept = s[0:8, final]
    h = s[0:8]
    if blocks > last + 1:
        h[:, final] = kept
    return h


def _chunks_ints(m, counter, final, tail: int):
    """The int kernel's chunk stage: chaining values (8, L) after m's blocks.

    m: (blocks, 16, L) message words; counter: (L,) uint64 chunk counters;
    final: (L,) bool, true for a message's final chunk, whose tail bytes
    end in block (tail - 1) // 64; every other lane is a full chunk. All
    words are packed once, the chaining values stay packed from block to
    block, and all lanes run every block: the final chunks get back the
    chaining value of their last block through one mask splice at the end.
    """
    blocks, _, lanes = m.shape
    last = max(0, (tail - 1) // _BLOCK_LEN)
    ones = _ones(lanes)
    M = ones * 0xFFFFFFFF
    final = int.from_bytes(final.astype("<u8").tobytes(), "little")
    lo, hi, *w = _pack(np.concatenate([
        (counter & np.uint64(0xFFFFFFFF))[None],
        (counter >> np.uint64(32))[None], m.reshape(16 * blocks, lanes)]))
    h = [x * ones for x in _IV_INTS]
    iv = h[0:4]
    for b in range(blocks):
        block_len = _BLOCK_LEN * ones
        flags = ((_CHUNK_START if b == 0 else 0)
                 | (_CHUNK_END if b == 15 else 0)) * ones
        if b == last:
            block_len -= (_BLOCK_LEN * (b + 1) - tail) * final
            flags |= _CHUNK_END * final
        v = _rounds(h + iv + [lo, hi, block_len, flags],
                    w[16 * b:16 * b + 16], M)
        h = [v[i] ^ v[i + 8] for i in range(8)]
        if b == last:
            kept = h
    if blocks > last + 1:
        F = final * 0xFFFFFFFF
        h = [x ^ ((x ^ y) & F) for x, y in zip(h, kept)]
    return _unpack(h, lanes)


def _parent_cvs(m):
    """Chaining values (8, L) of L parent nodes from their message words
    (16, L), the two children's chaining values."""
    lanes = m.shape[1]
    if lanes >= _CROSSOVER:
        s = np.empty((28, lanes), dtype=np.uint32)
        s[_HOME] = _PARENT_ROWS
        _rounds_rows(s, m[_SCHEDULE], np.empty((4, lanes), dtype=np.uint32))
        return s[0:8]
    ones = _ones(lanes)
    v = _rounds([x * ones for x in _PARENT_STATE], _pack(m),
                ones * 0xFFFFFFFF)
    return _unpack([v[i] ^ v[i + 8] for i in range(8)], lanes)


def _fresh_lanes(padded, nchunks: int):
    """(k * nchunks,) bool, false for each chunk of padded's k messages
    that equals the one at its index in the message before; None if none
    does (as for one message), so that every lane is fresh."""
    chunks = padded.view("<u8").reshape(len(padded), nchunks, -1)
    repeats = (chunks[1:] == chunks[:-1]).all(axis=2)
    if not repeats.any():
        return None
    return np.concatenate([np.ones(nchunks, dtype=bool), ~repeats.ravel()])


def _root_nodes(padded, n: int):
    """Root node (h, m, block_len, flags) of each message of one length.

    padded: (k, chunks * 1024) uint8, k messages of n bytes each, zero
    padded. Returns h (8, k), m (16, k), block_len (k,) and flags (k,).
    """
    k, nchunks = padded.shape[0], padded.shape[1] // _CHUNK_LEN
    lanes = nchunks * k
    tail = n - (nchunks - 1) * _CHUNK_LEN
    last_blocks = max(1, -(-tail // _BLOCK_LEN))
    # (lane, block, word) as a view, one lane per chunk, message-major.
    words = padded.view("<u4").reshape(lanes, 16, 16)
    counter = np.tile(np.arange(nchunks, dtype=np.uint64), k)
    final = counter == nchunks - 1
    fresh = _fresh_lanes(padded, nchunks)
    if fresh is not None:
        words, counter, final = words[fresh], counter[fresh], final[fresh]
    # A one-chunk message stops before its last block, its root node.
    blocks = 16 if nchunks > 1 else last_blocks - 1
    stage = _chunks_ints if len(words) < _CROSSOVER else _chunks_rows
    h = stage(words.transpose(1, 2, 0)[:blocks], counter, final, tail)
    if fresh is not None:
        # a repeated lane takes the nearest earlier fresh lane at its chunk
        # index; the first message's lanes are all fresh
        every = np.empty((8, lanes), dtype=np.uint32)
        every[:, fresh] = h
        source = np.where(fresh, np.arange(lanes), 0).reshape(k, nchunks)
        h = every[:, np.maximum.accumulate(source).ravel()]
    if nchunks == 1:
        flags = (_CHUNK_START if blocks == 0 else 0) | _CHUNK_END | _ROOT
        return (h, padded.view("<u4").reshape(k, 16, 16)[:, blocks].T,
                np.full(k, tail - _BLOCK_LEN * blocks, dtype=np.uint32),
                np.full(k, flags, dtype=np.uint32))
    # Pair chain values level by level; an odd one out is promoted
    # unchanged, which gives the reference's left-subtree tree shape.
    cvs = h.reshape(8, k, nchunks)
    while cvs.shape[2] > 2:
        pairs = cvs.shape[2] // 2
        m = np.concatenate([cvs[:, :, 0:2 * pairs:2],
                            cvs[:, :, 1:2 * pairs:2]]).reshape(16, -1)
        cvs = np.concatenate(
            [_parent_cvs(m).reshape(8, k, pairs), cvs[:, :, 2 * pairs:]],
            axis=2)
    m = cvs.transpose(2, 0, 1).reshape(16, k)
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
    out = _compress_ints(
        np.repeat(h, nblocks, axis=1), np.repeat(m, nblocks, axis=1),
        np.tile(np.arange(nblocks, dtype=np.uint64), len(order)),
        np.repeat(block_len, nblocks), np.repeat(flags, nblocks))
    stride = nblocks * _BLOCK_LEN
    blob = out.T.astype("<u4").tobytes()
    digests: list[bytes] = [b""] * len(order)
    for row, i in enumerate(order):
        digests[i] = blob[row * stride:row * stride + out_len]
    return digests
