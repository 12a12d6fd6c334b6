"""Snapshot data sets: n triples (t_i, x_i, y_i) with provenance metadata.

For ``koopman`` kind snapshots, y_i is the state observed a time increment tau
after x_i.  For ``generator`` kind, y_i holds the exact Lie derivative values
of each element of a basis dictionary at x_i (a length-q vector).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .polybasis import CHUNK_ROWS, Poly, evaluate

KOOPMAN = "koopman"
GENERATOR = "generator"


class SnapshotFormatError(ValueError):
    pass


@dataclass(frozen=True)
class SnapshotSet:
    """Immutable collection of snapshots with uniform row dimensions."""

    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    tau: float
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if X.shape[0] != t.shape[0] or Y.shape[0] != t.shape[0]:
            raise SnapshotFormatError("t, X, Y must have the same number of rows")
        if t.shape[0] == 0:
            raise SnapshotFormatError("snapshot set must be nonempty")
        if self.kind not in (KOOPMAN, GENERATOR):
            raise SnapshotFormatError(f"unknown snapshot kind {self.kind!r}")
        if self.kind == KOOPMAN and Y.shape[1] != X.shape[1]:
            raise SnapshotFormatError(
                "koopman snapshots need y with the state dimension")
        if not (self.tau > 0):
            raise SnapshotFormatError("tau must be positive")
        for name, arr in (("t", t), ("X", X), ("Y", Y)):
            if not np.all(np.isfinite(arr)):
                raise SnapshotFormatError(f"non-finite entries in {name}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Y.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnapshotSet):
            return NotImplemented
        return (self.kind == other.kind and self.tau == other.tau
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.X, other.X)
                and np.array_equal(self.Y, other.Y))


def empirical_average(s: SnapshotSet, g: Poly) -> float:
    """Average of g over the snapshot states, (1/n) sum_i g(x_i)."""
    if g.basis.dimension != s.d:
        raise SnapshotFormatError("observable dimension does not match states")
    total = 0.0
    for start in range(0, s.n, CHUNK_ROWS):
        vals = g.coeffs @ evaluate(g.basis, s.X[start:start + CHUNK_ROWS])
        total += float(np.sum(vals))
    return total / s.n


def save_csv(s: SnapshotSet, path: str | Path) -> None:
    """Write the snapshot table plus a JSON metadata sidecar (path + .json)."""
    path = Path(path)
    header = (["t"] + [f"x_{j + 1}" for j in range(s.d)]
              + [f"y_{j + 1}" for j in range(s.q)])
    data = np.column_stack([s.t, s.X, s.Y])
    # 17 significant digits round-trips every IEEE double exactly
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    sidecar = {"tau": s.tau, "kind": s.kind, "d": s.d, "q": s.q, "n": s.n,
               "metadata": s.metadata}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def load_csv(path: str | Path) -> SnapshotSet:
    """Read a snapshot CSV written by save_csv."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise SnapshotFormatError(f"missing metadata sidecar {sidecar_path}")
    meta = json.loads(sidecar_path.read_text())
    d, q = int(meta["d"]), int(meta["q"])
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        expected = (["t"] + [f"x_{j + 1}" for j in range(d)]
                    + [f"y_{j + 1}" for j in range(q)])
        if header != expected:
            raise SnapshotFormatError(
                f"header {header} does not match expected columns {expected}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 1 + d + q:
                raise SnapshotFormatError(
                    f"row {lineno}: expected {1 + d + q} fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise SnapshotFormatError(f"row {lineno}: {exc}") from None
    data = np.array(rows)
    if data.size == 0:
        raise SnapshotFormatError("empty snapshot file")
    return SnapshotSet(
        t=data[:, 0], X=data[:, 1:1 + d], Y=data[:, 1 + d:],
        tau=float(meta["tau"]), kind=meta["kind"],
        metadata=meta.get("metadata", {}))
