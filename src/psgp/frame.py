"""The one binary frame of psgp's files (signal files, checkpoints), little-endian::

    magic (4 bytes), version (u32), header length (u32), payload length (u64),
    header, payload, crc32 (u32, ``zlib.crc32`` of every byte before it)

Only this module writes or checks these fields. A reader checks, in order and
naming the file: a whole prefix, the format's magic and version (nothing
converts an older version), the length the prefix gives, the crc. So a file
cut short is a TruncatedPayloadError, and any other changed byte is one
FormatError: BadMagicError, VersionMismatchError, or a FormatError for extra
bytes or the crc. ``read`` checks the crc before it returns a byte; a
streamed read (``Frame``, ``fold`` over the payload, ``check``) lets its
format check what it reads before the crc.
"""
from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path

from .errors import BadMagicError, FormatError, TruncatedPayloadError, VersionMismatchError

PREFIX = struct.Struct("<4sIIQ")  # magic, version, header length, payload length
CRC = struct.Struct("<I")


def write(path: Path | str, magic: bytes, version: int, header: bytes, payload) -> None:
    """Write one frame; ``payload`` is any C-contiguous buffer."""
    head = PREFIX.pack(magic, version, len(header), memoryview(payload).nbytes) + header
    with Path(path).open("wb") as fh:
        fh.writelines((head, payload, CRC.pack(zlib.crc32(payload, zlib.crc32(head)))))


class Frame:
    """The frame of the open binary file ``fh`` named ``path``, prefix and length checked:
    its header, its payload's offset and size, and the crc32 of the bytes folded in so far."""

    def __init__(self, fh, path: Path | str, magic: bytes, version: int) -> None:
        prefix = fh.read(PREFIX.size)
        if len(prefix) < PREFIX.size:
            raise TruncatedPayloadError(f"{path}: file shorter than the {PREFIX.size}-byte frame prefix")
        got_magic, got_version, header_len, self.size = PREFIX.unpack(prefix)
        if got_magic != magic:
            raise BadMagicError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
        if got_version != version:
            raise VersionMismatchError(f"{path}: unsupported version {got_version}, expected {version}")
        self.path, self.offset = path, PREFIX.size + header_len
        length, end = fh.seek(0, os.SEEK_END), self.offset + self.size + CRC.size
        if length != end:
            error = TruncatedPayloadError if length < end else FormatError
            raise error(f"{path}: file holds {length} bytes, its frame {end}")
        fh.seek(PREFIX.size)
        self.header = fh.read(header_len)
        fh.seek(end - CRC.size)
        (self.written_crc,) = CRC.unpack(fh.read(CRC.size))
        self.crc = zlib.crc32(self.header, zlib.crc32(prefix))

    def fold(self, block) -> None:
        """Add the payload's next bytes to the crc."""
        self.crc = zlib.crc32(block, self.crc)

    def check(self) -> None:
        """Compare the crcs, once the whole payload is folded in."""
        if self.crc != self.written_crc:
            raise FormatError(f"{self.path}: crc32 {self.crc:#010x}, written as {self.written_crc:#010x}")


def read(path: Path | str, magic: bytes, version: int) -> tuple[bytes, memoryview]:
    """The header and payload of a whole file, its frame checked."""
    data = Path(path).read_bytes()
    frame = Frame(io.BytesIO(data), path, magic, version)
    frame.fold(memoryview(data)[frame.offset:-CRC.size])
    frame.check()
    return frame.header, memoryview(data)[frame.offset:-CRC.size]
