"""Versioned binary checkpoints for model parameters.

Layout, all little-endian:

    bytes 0-3    magic "LTPC"
    bytes 4-7    format version (uint32)
    bytes 8-15   header length in bytes (uint64)
    header       canonical JSON (sorted keys, no whitespace): the model's
                 dimensions (``ModelParams.structure``), a manifest of
                 (array name, shape) in traversal order, and optional
                 provenance metadata
    payload      float64 arrays concatenated in manifest order

The payload is the model's ``flat`` vector, each LSTM layer as its fused
``W_x``, ``W_h``, ``W_c`` and ``b``. Format 3's structure holds dimensions
only; other versions are refused (format 2 also stored the positional table's
length, the variant flags and the pooling mode, format 1 per-gate LSTM
arrays). Loading first checks the payload length that the manifest implies
against the bytes present, so a header that claims more weights than the file
holds allocates nothing. It then builds the model over one copy of the
payload (``ModelParams.over``) and checks that the model gives back the
stored structure (so a header with a key the model does not have is refused),
that every dimension in that structure is an integer >= 0 (``ops.check_value``,
naming its path, such as ``structure.encoder.n_heads``), and that the manifest
fits it. The type check is what refuses a float or a bool dimension, as
Python's ``==`` holds ``2.0`` and ``true`` equal to ``2`` and ``1``. Every
malformed file, header included, raises ``CheckpointError``. Round-trips are
bit-exact.
"""

import json
import math
import struct

import numpy as np

from .model import ModelParams
from .ops import check_value

MAGIC = b"LTPC"
VERSION = 3


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or wrong-version checkpoint files."""


def _check_dimensions(path: str, node) -> None:
    """Raise ValueError naming the path of a leaf of ``node`` that is neither an
    int >= 0 nor None (a component the model lacks)."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_dimensions(f"{path}.{key}", value)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_dimensions(f"{path}[{i}]", value)
    else:
        check_value(path, node, int | None, {"ge": 0})


def _manifest(model: ModelParams) -> list:
    return [[name, list(arr.shape)] for name, arr in model.named_arrays()]


def save_checkpoint(model: ModelParams, path, metadata: dict | None = None) -> int:
    """Write the checkpoint; returns total bytes written."""
    header = json.dumps(
        {"structure": model.structure(), "manifest": _manifest(model), "metadata": metadata or {}},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    prefix = MAGIC + struct.pack("<IQ", VERSION, len(header)) + header
    payload = model.flat.astype("<f8", copy=False)  # no copy on a little-endian host
    with open(path, "wb") as fh:  # the payload goes out from ``flat``, never as a bytes copy
        fh.write(prefix)
        fh.write(payload.data)
    return len(prefix) + payload.nbytes


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic header)")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    if len(blob) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(blob[16 : 16 + header_len].decode())
        structure, manifest = header["structure"], header["manifest"]
        size = sum(math.prod(shape) for _, shape in manifest)
        extra = len(blob) - 16 - header_len - 8 * size
        if extra < 0:
            raise CheckpointError(f"{path}: truncated payload, {-extra} bytes short of manifest")
        if extra > 0:
            raise CheckpointError(f"{path}: {extra} trailing bytes after the manifest's payload")
        payload = np.frombuffer(blob, "<f8", size, 16 + header_len).astype(np.float64)
        model = ModelParams.over(structure, payload)
        if model.structure() != structure:
            raise CheckpointError(f"{path}: the stored structure contradicts itself")
        _check_dimensions("structure", structure)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc
    if manifest != _manifest(model):
        raise CheckpointError(f"{path}: manifest does not fit the stored structure")
    return model
