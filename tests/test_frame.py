"""The one binary frame of signal files and checkpoints: each malformation of
the frame, any single flipped bit, and the module that alone checks it."""
import ast
import random
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from psgp.errors import BadMagicError, FormatError, TruncatedPayloadError, VersionMismatchError
from psgp.model import CKPT_VERSION, init_parameters, load_checkpoint, save_checkpoint
from psgp.signalio import FORMAT_VERSION, Modality, Recording, read_signal_file, write_signal_file

from helpers import tiny_config

SRC = Path(__file__).resolve().parents[1] / "src" / "psgp"


def _signal_file(path: Path) -> None:
    rng = np.random.default_rng(0)
    write_signal_file(Recording("S0001", Modality.RESP, 10.0, rng.standard_normal(20).astype(np.float32)), path)


CKPT_CONFIG = tiny_config(precision="f32")


def _checkpoint(path: Path) -> None:
    save_checkpoint(init_parameters(CKPT_CONFIG, seed=11), CKPT_CONFIG, path)


# each format: its writer, its reader, its version and the older versions it refuses
FORMATS = {
    "signal": (_signal_file, read_signal_file, FORMAT_VERSION, (1,)),
    "checkpoint": (_checkpoint, lambda path: load_checkpoint(path, CKPT_CONFIG), CKPT_VERSION, (1, 2, 3)),
}


# each malformation of the frame: the error and a fragment of its message
MALFORMATIONS = {
    "short_header": (TruncatedPayloadError, "shorter than the 20-byte frame prefix"),
    "bad_magic": (BadMagicError, "bad magic b'XXXX'"),
    "bad_version": (VersionMismatchError, "unsupported version"),
    "truncated": (TruncatedPayloadError, "bytes, its frame"),
    "trailing": (FormatError, "bytes, its frame"),
    "changed_byte": (FormatError, ", written as "),
}


@pytest.mark.parametrize("malformation", MALFORMATIONS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_malformed_frame_is_one_error_naming_the_file(tmp_path, fmt, malformation):
    """Both formats refuse each malformation of their frame with the same
    error; a version refused is any older one, or one not yet written."""
    write, read, version, older = FORMATS[fmt]
    path = tmp_path / "file"
    write(path)
    blob = path.read_bytes()
    edits = {
        "short_header": [blob[:2]],
        "bad_magic": [b"XXXX" + blob[4:]],
        "bad_version": [blob[:4] + struct.pack("<I", v) + blob[8:] for v in (*older, version + 1)],
        "truncated": [blob[:-10]],
        "trailing": [blob + b"\x00\x01"],
        "changed_byte": [blob[:-5] + bytes([blob[-5] ^ 0x10]) + blob[-4:]],  # the payload's last byte
    }[malformation]
    for bad in edits:
        path.write_bytes(bad)
        error, fragment = MALFORMATIONS[malformation]
        with pytest.raises(error, match=re.escape(f"{path}: ")) as caught:
            read(path)
        assert type(caught.value) is error and fragment in str(caught.value)
        if malformation == "bad_version":
            assert f"version {struct.unpack_from('<I', bad, 4)[0]}," in str(caught.value)


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_flipped_bit_is_refused(tmp_path, fmt):
    """2,000 seeded single-bit flips of a small file (every bit of the
    signal file, which holds fewer): each is a FormatError naming the file
    (exit 3), raised by the loader; none loads."""
    write, read, _, _ = FORMATS[fmt]
    path = tmp_path / "file"
    write(path)
    blob = path.read_bytes()
    bits = range(8 * len(blob))
    for bit in random.Random(f"flips {fmt}").sample(bits, min(2000, len(bits))):
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << bit % 8
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match=re.escape(f"{path}: ")) as caught:
            read(path)
        assert caught.value.exit_code == 3


# --- the frame lives in one module ---------------------------------------

FRAME_PARTS = {"zlib", "BadMagicError", "VersionMismatchError"}


def frame_parts(tree: ast.Module) -> set[str]:
    """Which of ``zlib`` (imported) and the two frame errors (raised) a module holds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names} & {"zlib"}
        elif isinstance(node, ast.ImportFrom) and node.module == "zlib":
            found.add("zlib")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            found |= {name} & FRAME_PARTS
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_frame_module_checks_a_frame(path):
    """A binary file format added to psgp uses the frame, so ``zlib`` and
    the magic and version errors stay in ``frame.py``."""
    found = frame_parts(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert found == (FRAME_PARTS if path.name == "frame.py" else set()), path.name


def test_the_guard_finds_each_part():
    tree = ast.parse(
        "import os, zlib\nraise BadMagicError('x')\nraise errors.VersionMismatchError\nraise FormatError('y')\n"
    )
    assert frame_parts(tree) == FRAME_PARTS
    assert frame_parts(ast.parse("from zlib import crc32\n")) == {"zlib"}
