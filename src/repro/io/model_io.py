"""The ``state_dict`` key scheme for ``.npz`` archives.

:func:`pack_state` / :func:`unpack_state` map parameter names to archive
keys (``.`` ↔ ``/``, with an optional namespace prefix) so several models
share one archive — the artifact format of :mod:`repro.io.artifact` stores
encoder and classifier side by side.
"""

from __future__ import annotations

from repro.nn.module import Module

__all__ = ["pack_state", "unpack_state"]


def pack_state(model: Module, prefix: str = "") -> dict:
    """Flatten ``model.state_dict()`` into npz-safe keys.

    Parameter names become archive keys; ``/`` replaces ``.`` because npz
    keys may not contain dots.  ``prefix`` namespaces the keys (e.g.
    ``"encoder/"``) so several models can share one archive.
    """
    return {
        prefix + name.replace(".", "/"): value
        for name, value in model.state_dict().items()
    }


def unpack_state(arrays, prefix: str = "") -> dict:
    """Invert :func:`pack_state` over a mapping of npz keys to arrays.

    Only keys under ``prefix`` are considered; the returned dict feeds
    ``Module.load_state_dict`` (which is strict — missing, unexpected or
    mis-shaped parameters raise).
    """
    keys = arrays.files if hasattr(arrays, "files") else arrays.keys()
    return {
        key[len(prefix):].replace("/", "."): arrays[key]
        for key in keys
        if key.startswith(prefix)
    }
