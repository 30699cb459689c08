"""File formats: Matrix Market array matrices, plain vectors, manifests.

A problem manifest is a UTF-8 ``key = value`` file.  Recognized keys:
``A`` (Matrix Market array file), ``b``, ``w``, ``c`` (one decimal per
line), ``tau`` or ``sigma`` (exactly one required), and ``mu`` (optional,
default 0).  Paths are resolved relative to the manifest's directory.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.typing import NDArray

from .model import DenseOperator, LassoProblem


class ManifestError(ValueError):
    """Raised for malformed manifests or data files."""


def write_matrix_market_array(path: str, a: NDArray) -> None:
    a = np.asarray(a, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for col in a.T:  # array format is column-major
            for v in col:
                fh.write(f"{float(v)!r}\n")


def read_matrix_market_array(path: str) -> NDArray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().split()
        if header[:1] != ["%%matrixmarket"] or "array" not in header:
            raise ManifestError(f"{path}: not a Matrix Market array file")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            m, n = (int(t) for t in line.split())
        except ValueError as exc:
            raise ManifestError(f"{path}: bad size line {line!r}") from exc
        data = np.loadtxt(fh, dtype=float, ndmin=1)
    if data.size != m * n:
        raise ManifestError(f"{path}: expected {m * n} entries, found {data.size}")
    return data.reshape((n, m)).T


def write_vector(path: str, v: NDArray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in np.asarray(v, dtype=float):
            fh.write(f"{float(x)!r}\n")


def read_vector(path: str) -> NDArray:
    try:
        return np.loadtxt(path, dtype=float, ndmin=1)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def read_manifest(path: str) -> dict:
    """Parse a manifest into arrays and scalars (no problem construction)."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ManifestError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    unknown = set(entries) - {"A", "b", "w", "c", "tau", "sigma", "mu"}
    if unknown:
        raise ManifestError(f"{path}: unknown keys {sorted(unknown)}")
    for required in ("A", "b"):
        if required not in entries:
            raise ManifestError(f"{path}: missing required key {required!r}")
    if ("tau" in entries) == ("sigma" in entries):
        raise ManifestError(f"{path}: exactly one of tau or sigma is required")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(base, rel)

    out: dict = {
        "A": read_matrix_market_array(resolve(entries["A"])),
        "b": read_vector(resolve(entries["b"])),
        "mu": 0.0,
    }
    m, n = out["A"].shape
    if len(out["b"]) != m:
        raise ManifestError(f"{path}: b has length {len(out['b'])}, expected {m}")
    for key, expect in (("w", n), ("c", n)):
        if key in entries:
            vec = read_vector(resolve(entries[key]))
            if len(vec) != expect:
                raise ManifestError(
                    f"{path}: {key} has length {len(vec)}, expected {expect}"
                )
            out[key] = vec
    for key in ("tau", "sigma", "mu"):
        if key in entries:
            try:
                out[key] = float(entries[key])
            except ValueError as exc:
                raise ManifestError(f"{path}: {key} is not a number") from exc
    if not all(out.get(key, 0.0) >= 0 for key in ("tau", "sigma", "mu")):
        raise ManifestError(f"{path}: tau, sigma, and mu must be nonnegative")
    return out


def problem_from_manifest(path: str) -> tuple[LassoProblem, dict]:
    """The manifest's problem and its parsed dict.

    A sigma manifest fixes no radius, so its problem has tau = 0.
    """
    data = read_manifest(path)
    problem = LassoProblem(op=DenseOperator(data["A"]), b=data["b"],
                           tau=data.get("tau", 0.0), w=data.get("w"),
                           mu=data["mu"], c=data.get("c"))
    return problem, data


def write_manifest(path: str, files: dict[str, str], scalars: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, rel in files.items():
            fh.write(f"{key} = {rel}\n")
        for key, val in scalars.items():
            fh.write(f"{key} = {float(val)!r}\n")
