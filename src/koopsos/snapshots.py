"""Snapshot data sets: n triples (t_i, x_i, y_i) with provenance metadata.

For ``koopman`` kind snapshots, y_i is the state observed a time increment tau
after x_i.  For ``generator`` kind, y_i holds the exact Lie derivative values
of each element of a basis dictionary at x_i (a length-q vector).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .polybasis import CHUNK_ROWS, Poly, evaluate_chunks

KOOPMAN = "koopman"
GENERATOR = "generator"


class SnapshotFormatError(ValueError):
    pass


class SnapshotSet:
    """Immutable collection of snapshots with uniform row dimensions.

    ``t`` is either the n sample times, an array that is kept as given, or
    one number dt standing for the evenly spaced times t_i = i dt.  Sampled
    sets pass dt, so that X and Y are their only data-sized arrays; reading
    ``s.t`` then builds ``dt * np.arange(n)``, a fresh array on every read.
    n is the number of rows of X.
    """

    __slots__ = ("_t", "X", "Y", "tau", "kind", "metadata")

    def __init__(self, t, X, Y, tau: float, kind: str,
                 metadata: dict | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        n = X.shape[0]
        t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
        if Y.shape[0] != n or (isinstance(t, np.ndarray) and t.shape[0] != n):
            raise SnapshotFormatError("t, X, Y must have the same number of rows")
        if n == 0:
            raise SnapshotFormatError("snapshot set must be nonempty")
        if kind not in (KOOPMAN, GENERATOR):
            raise SnapshotFormatError(f"unknown snapshot kind {kind!r}")
        if kind == KOOPMAN and Y.shape[1] != X.shape[1]:
            raise SnapshotFormatError(
                "koopman snapshots need y with the state dimension")
        if not (tau > 0):
            raise SnapshotFormatError("tau must be positive")
        for name, arr in (("t", t), ("X", X), ("Y", Y)):
            if not np.all(np.isfinite(arr)):
                raise SnapshotFormatError(f"non-finite entries in {name}")
        for name, value in (("_t", t), ("X", X), ("Y", Y), ("tau", tau),
                            ("kind", kind),
                            ("metadata", {} if metadata is None else metadata)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SnapshotSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the set through the constructor, since
        # __setattr__ refuses the slot-by-slot restore they do by default
        return (SnapshotSet, (self._t, self.X, self.Y, self.tau, self.kind,
                              self.metadata))

    @property
    def t(self) -> np.ndarray:
        if isinstance(self._t, float):
            return self._t * np.arange(self.n)
        return self._t

    @property
    def n(self) -> int:
        return self.X.shape[0]

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

    def __repr__(self) -> str:
        return (f"SnapshotSet(kind={self.kind!r}, n={self.n}, d={self.d}, "
                f"q={self.q}, tau={self.tau!r})")


def empirical_average(s: SnapshotSet, g: Poly) -> float:
    """Average of g over the snapshot states, (1/n) sum_i g(x_i)."""
    if g.basis.dimension != s.d:
        raise SnapshotFormatError("observable dimension does not match states")
    total = 0.0
    for _, vals in evaluate_chunks(g.basis, s.X):
        total += float(np.sum(g.coeffs @ vals))
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
    """Read a snapshot CSV written by save_csv.

    The rows are parsed into one float array of the sidecar's n rows; a file
    that holds another number of rows is rejected.  The array grows as rows
    arrive, doubling up to n, so a sidecar whose n is far above the file's
    row count reserves no memory for rows that are not there.
    """
    path = Path(path)
    d, q, n, tau, kind, metadata = _read_sidecar(Path(str(path) + ".json"))
    width = 1 + d + q
    data = np.empty((min(n, CHUNK_ROWS), width))
    rows = 0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        expected = (["t"] + [f"x_{j + 1}" for j in range(d)]
                    + [f"y_{j + 1}" for j in range(q)])
        if header != expected:
            raise SnapshotFormatError(
                f"header {header} does not match expected columns {expected}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise SnapshotFormatError(
                    f"row {lineno}: expected {width} fields, got {len(parts)}")
            try:
                values = [float(v) for v in parts]
            except ValueError as exc:
                raise SnapshotFormatError(f"row {lineno}: {exc}") from None
            if rows < n:
                if rows == data.shape[0]:
                    # data owns its buffer and no view of it is held
                    data.resize((min(2 * rows, n), width), refcheck=False)
                data[rows] = values
            rows += 1
    if rows != n:
        raise SnapshotFormatError(
            f"{path} holds {rows} data rows, its sidecar says n = {n}")
    return SnapshotSet(t=data[:, 0], X=data[:, 1:1 + d], Y=data[:, 1 + d:],
                       tau=tau, kind=kind, metadata=metadata)


def _read_sidecar(path: Path) -> tuple:
    """(d, q, n, tau, kind, metadata) of a save_csv sidecar; a missing or
    malformed one raises SnapshotFormatError naming its path."""
    if not path.exists():
        raise SnapshotFormatError(f"missing metadata sidecar {path}")
    try:
        meta = json.loads(path.read_text())
        d, q, n = int(meta["d"]), int(meta["q"]), int(meta["n"])
        tau, kind = float(meta["tau"]), meta["kind"]
        metadata = meta.get("metadata", {})
    # a JSONDecodeError is a ValueError; a JSON list fails as a TypeError
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"malformed sidecar {path}: {type(exc).__name__}: {exc}") from None
    if n < 0:
        raise SnapshotFormatError(f"sidecar {path}: n = {n} < 0")
    return d, q, n, tau, kind, metadata
