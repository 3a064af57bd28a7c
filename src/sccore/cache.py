"""On-disk coefficient cache: versioned binary files with a trailing checksum.

Layout: MAGIC, then a JSON header line {version, family, t, n, width}, then
the payload, then sha256(header + payload).  The payload is the n + 1
coefficients as little-endian unsigned integers of `width` bytes each, the
fewest bytes (at least 1) that hold the largest of them.  `_decode` is the
one reader: it hashes and parses each file once.  A version mismatch, a
malformed header, a checksum failure and a file that cannot be read all
surface as CacheCorrupt; `load_or_compute` recomputes those, and a file
whose header names another request.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path

from .errors import CacheCorrupt

MAGIC = b"SCCOREC1"
VERSION = 1
# the families `compute_family` builds, each by series.<family>_coeffs, and
# whether each takes a t
_TAKES_T = {"p": False, "sc": False, "sc_t": True, "c_t": True, "phat": True, "nsc_t": True}
# the share of a file's coefficients `verify_file` recomputes and compares
SAMPLE_SHARE = 0.01


def compute_family(family: str, t: int | None, n: int) -> tuple[int, ...]:
    """Dispatch to the series builders; the single source of coefficient truth.

    The series is imported here, so a cache hit never loads it.
    """
    from . import series

    if family not in _TAKES_T:
        raise ValueError(f"unknown family {family!r}")
    build = getattr(series, f"{family}_coeffs")
    if not _TAKES_T[family]:
        return build(n)
    if t is None:
        raise ValueError(f"family {family!r} needs t")
    return build(t, n)


def chosen_dir(flag: str | None) -> Path | None:
    """The cache directory: --cache-dir, else $SCCORE_CACHE_DIR, else None."""
    chosen = flag or os.environ.get("SCCORE_CACHE_DIR")
    return Path(chosen) if chosen else None


def cache_path(cache_dir: Path, family: str, t: int | None, n: int) -> Path:
    name = f"{family}_t{t}_n{n}.bin" if t is not None else f"{family}_n{n}.bin"
    return Path(cache_dir) / name


def _encode(family: str, t: int | None, n: int, coeffs: tuple[int, ...]) -> bytes:
    if any(c < 0 for c in coeffs):
        raise ValueError("cache stores non-negative coefficient families only")
    width = (max(coeffs, default=0).bit_length() + 7) // 8 or 1
    header = json.dumps(
        {"version": VERSION, "family": family, "t": t, "n": n, "width": width},
        sort_keys=True,
    ).encode() + b"\n"
    payload = b"".join(c.to_bytes(width, "little") for c in coeffs)
    body = header + payload
    return MAGIC + body + hashlib.sha256(body).digest()


def _decode(blob: bytes) -> tuple[dict, tuple[int, ...]]:
    """(header, coefficients) of a cache file, after its magic, its checksum,
    its header and its payload length pass.  The header must be a JSON
    object of this version with a known family, an int t exactly when the
    family takes one, an int n >= 0 and an int width >= 1 (no bools)."""
    if not blob.startswith(MAGIC):
        raise CacheCorrupt("bad magic")
    body, digest = blob[len(MAGIC):-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CacheCorrupt("checksum mismatch")
    head, _, payload = body.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:  # not UTF-8, or not JSON
        header = None
    if not isinstance(header, dict):
        raise CacheCorrupt("header is not a JSON object")
    if header.get("version") != VERSION:
        raise CacheCorrupt(f"version {header.get('version')} != {VERSION}")
    family, t, n, width = (header.get(key) for key in ("family", "t", "n", "width"))
    if not (isinstance(family, str) and _TAKES_T.get(family) == (t is not None)
            and (t is None or type(t) is int) and type(n) is int and n >= 0
            and type(width) is int and width >= 1):
        raise CacheCorrupt("malformed header")
    if len(payload) != (n + 1) * width:
        raise CacheCorrupt("payload length mismatch")
    return header, tuple(int.from_bytes(payload[i:i + width], "little") for i in range(0, len(payload), width))


def _read(path: Path) -> bytes:
    """The bytes of a cache file; one that cannot be read is corrupt."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CacheCorrupt(f"cannot read: {exc.strerror}") from None


def write_cache(cache_dir: Path, family: str, t: int | None, n: int, coeffs: tuple[int, ...]) -> Path:
    """Atomic write (temp file + rename)."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, family, t, n)
    blob = _encode(family, t, n, coeffs)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_or_compute(cache_dir: Path | None, family: str, t: int | None, n: int) -> tuple[tuple[int, ...], str]:
    """Returns (coeffs, source) with source in {"cache", "computed", "recomputed"}.

    A corrupt cache file, one that cannot be read included, is replaced by a
    fresh computation with a warning source tag, never an error.  A cache
    that cannot be written raises the OSError of the write.
    """
    if cache_dir is None:
        return compute_family(family, t, n), "computed"
    path = cache_path(Path(cache_dir), family, t, n)
    source = "computed"
    if path.exists():
        try:
            header, coeffs = _decode(_read(path))
            if (header["family"], header["t"], header["n"]) == (family, t, n):
                return coeffs, "cache"
        except CacheCorrupt:
            pass
        source = "recomputed"
    coeffs = compute_family(family, t, n)
    write_cache(cache_dir, family, t, n, coeffs)
    return coeffs, source


def verify_file(path: Path) -> tuple[int, list[int]]:
    """(sampled, mismatches) of a cache file: its checksum, then a
    recomputation of a SAMPLE_SHARE sample of its coefficients, drawn with a
    fixed seed so each run samples the same, and the indices that differ."""
    header, coeffs = _decode(_read(Path(path)))
    n = header["n"]
    fresh = compute_family(header["family"], header["t"], n)
    rng = random.Random(0)
    k = max(1, int((n + 1) * SAMPLE_SHARE))
    sample = rng.sample(range(n + 1), min(k, n + 1))
    return len(sample), [i for i in sample if coeffs[i] != fresh[i]]


def purge(cache_dir: Path) -> int:
    """Remove every cache file; returns the number deleted."""
    cache_dir = Path(cache_dir)
    removed = 0
    if cache_dir.is_dir():
        for p in cache_dir.glob("*.bin"):
            p.unlink()
            removed += 1
    return removed
