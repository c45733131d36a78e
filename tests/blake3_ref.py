"""From-scratch scalar BLAKE3 (hash mode, extendable output), used as an
independent oracle for walkhash._blake3.

Written from the BLAKE3 specification (O'Connor, Aumasson, Neves and
Wilcox-O'Hearn, 2020): one chunk at a time and one block at a time, with
the chaining-value stack of the spec's incremental hasher, on plain Python
ints. It shares no code, no lane layout and no tree walk with the package,
so agreement is evidence that both follow the spec. The IV is derived from
its definition (the first 32 fractional bits of the square roots of the
first eight primes, as for SHA-256) instead of copied as a table.
"""

from math import isqrt

_MASK = 0xFFFFFFFF
_IV = [isqrt(p << 64) & _MASK for p in (2, 3, 5, 7, 11, 13, 17, 19)]
_PERMUTATION = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8]

_CHUNK_LEN = 1024
_BLOCK_LEN = 64
_CHUNK_START = 1
_CHUNK_END = 2
_PARENT = 4
_ROOT = 8


def _rotr(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK


def _g(s: list, a: int, b: int, c: int, d: int, x: int, y: int) -> None:
    s[a] = (s[a] + s[b] + x) & _MASK
    s[d] = _rotr(s[d] ^ s[a], 16)
    s[c] = (s[c] + s[d]) & _MASK
    s[b] = _rotr(s[b] ^ s[c], 12)
    s[a] = (s[a] + s[b] + y) & _MASK
    s[d] = _rotr(s[d] ^ s[a], 8)
    s[c] = (s[c] + s[d]) & _MASK
    s[b] = _rotr(s[b] ^ s[c], 7)


def compress(cv: list, block: bytes, counter: int, block_len: int,
             flags: int) -> list:
    """The 16 output words of one compression of a zero-padded block."""
    m = [int.from_bytes(block[4 * i:4 * i + 4], "little") for i in range(16)]
    s = cv + _IV[0:4] + [counter & _MASK, counter >> 32, block_len, flags]
    for _ in range(7):
        _g(s, 0, 4, 8, 12, m[0], m[1])
        _g(s, 1, 5, 9, 13, m[2], m[3])
        _g(s, 2, 6, 10, 14, m[4], m[5])
        _g(s, 3, 7, 11, 15, m[6], m[7])
        _g(s, 0, 5, 10, 15, m[8], m[9])
        _g(s, 1, 6, 11, 12, m[10], m[11])
        _g(s, 2, 7, 8, 13, m[12], m[13])
        _g(s, 3, 4, 9, 14, m[14], m[15])
        m = [m[i] for i in _PERMUTATION]
    return [s[i] ^ s[i + 8] for i in range(8)] + \
        [s[i + 8] ^ cv[i] for i in range(8)]


def _chunk_output(chunk: bytes, counter: int) -> tuple:
    """(cv, block, counter, block_len, flags) of a chunk's last block, after
    compressing every block before it."""
    cv = list(_IV)
    blocks = [chunk[i:i + _BLOCK_LEN]
              for i in range(0, len(chunk), _BLOCK_LEN)] or [b""]
    for i, block in enumerate(blocks[:-1]):
        cv = compress(cv, block, counter, _BLOCK_LEN,
                      _CHUNK_START if i == 0 else 0)[0:8]
    last = blocks[-1]
    flags = (_CHUNK_START if len(blocks) == 1 else 0) | _CHUNK_END
    return cv, last.ljust(_BLOCK_LEN, b"\0"), counter, len(last), flags


def _parent_output(left: list, right: list) -> tuple:
    block = b"".join(w.to_bytes(4, "little") for w in left + right)
    return list(_IV), block, 0, _BLOCK_LEN, _PARENT


def _cv(output: tuple) -> list:
    return compress(*output)[0:8]


def blake3(data: bytes, out_len: int = 32) -> bytes:
    """BLAKE3 hash of data, extended to out_len bytes."""
    chunks = [data[i:i + _CHUNK_LEN]
              for i in range(0, len(data), _CHUNK_LEN)] or [b""]
    stack: list = []
    for index, chunk in enumerate(chunks[:-1]):
        # A chunk is merged only once a later one exists, so the last
        # chunk and every subtree it closes stay for the root below.
        cv = _cv(_chunk_output(chunk, index))
        total = index + 1
        while total % 2 == 0:
            cv = _cv(_parent_output(stack.pop(), cv))
            total //= 2
        stack.append(cv)
    output = _chunk_output(chunks[-1], len(chunks) - 1)
    while stack:
        output = _parent_output(stack.pop(), _cv(output))
    cv, block, _, block_len, flags = output
    out = b""
    counter = 0
    while len(out) < out_len:
        words = compress(cv, block, counter, block_len, flags | _ROOT)
        out += b"".join(w.to_bytes(4, "little") for w in words)
        counter += 1
    return out[:out_len]
