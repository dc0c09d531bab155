"""Core data model: weighted graphs, node signals, feature locations.

A graph is undirected with real edge weights and no self-loops; each edge is
stored exactly once with ``u < v``.  Signals assign a complex value per node
and channel.  Feature locations assign one real coordinate per node and
feature; they play the role of generalized node positions for the derivative
operators built in :mod:`schro_gsp.operators`.

All three containers are immutable: they keep their arrays only through
``errors.frozen_array``, as read-only finite copies, so instances can be
shared freely between operators and cached decompositions.  Signals and
feature locations share one ``(N, C)`` table rule, ``_table``.

This module alone lays out a graph's directed edges in CSR: ``edge_pattern``
orders every ``(u, v)`` then every ``(v, u)`` by one stable argsort of the
keys ``row * n + col``, and ``csr_index`` gives index arrays in the dtype
scipy picks, so scipy wraps them without a scan or a cast.  ``relabel``
renames the nodes by an order.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import (
    ContractError,
    DegenerateSignalError,
    FormatError,
    SchroGspError,
    check_fields,
    exact_array,
    frozen_array,
)

# Channels with L2 mass at or below this cannot be meaningfully normalized.
NORM_FLOOR = 1e-12

# Two-cluster generator geometry (see cluster_graph).
_CLUSTER_SIZE = 30
_CLUSTER_CENTERS = np.array([[-1.0, 0.0], [1.0, 0.0]])
_CLUSTER_STD = 0.5
_CLUSTER_EDGE_RADIUS = 1.5
_CLUSTER_SIGNAL_WIDTH = 0.5
_CLUSTER_MAX_ATTEMPTS = 100

# Documented seed for the reference two-cluster instance: the sampled graph
# is connected on the first attempt, the initial signal's location mean lands
# in [-1.1, -0.9], and the modulation sweep has an interior optimum with a
# ~30% routing improvement.  Pinned after a scan over seeds 0..59.
PINNED_CLUSTER_SEED = 17


def _table(values, dtype, what: str, entries: str) -> np.ndarray:
    """``values`` kept as an ``(N, C)`` table: a 1-D array is one column,
    anything else must be a non-empty 2-D array (``what`` names it) of
    finite entries (``entries`` names them)."""
    shape = np.shape(values)
    if len(shape) == 1:
        shape = (*shape, 1)
    if len(shape) != 2 or 0 in shape:
        raise ContractError(f"{what} must be a non-empty 2-D array")
    return frozen_array(values, dtype, entries).reshape(shape)


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with each edge stored once (``u < v``)."""

    n_nodes: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self):
        check_fields(self)
        if self.n_nodes <= 0:
            raise ContractError("graph needs at least one node")
        # The edge keys here, in ``_oriented_graph`` and in ``edge_pattern``
        # are u * n + v, which fits int64 only for n below 2**31.
        if self.n_nodes >= 2 ** 31:
            raise ContractError(
                f"graph has {self.n_nodes} nodes; at most 2**31 - 1 are supported")
        u = exact_array(self.edge_u, np.int64, "edge endpoints")
        v = exact_array(self.edge_v, np.int64, "edge endpoints")
        w = exact_array(self.edge_w, np.float64, "edge weights")
        if not (u.shape == v.shape == w.shape) or u.ndim != 1:
            raise ContractError("edge arrays must be 1-D and equally long")
        if u.size:
            if u.min() < 0 or max(u.max(), v.max() if v.size else 0) >= self.n_nodes:
                raise ContractError("edge endpoint out of range")
            if np.any(u == v):
                raise ContractError("self-loops are not allowed")
            if np.any(u > v):
                raise ContractError("edges must be stored with u < v")
            # u * n + v names the pair uniquely and stays below 2**62.
            # Strictly increasing keys, as ``_oriented_graph`` stores them,
            # are distinct; otherwise equal neighbours after a sort are
            # duplicates.
            keys = u * self.n_nodes + v
            if not np.all(keys[1:] > keys[:-1]):
                keys.sort()
                if np.any(keys[1:] == keys[:-1]):
                    raise ContractError("duplicate undirected edge")
        # Kept after the checks, so the copies and the keys are not alive
        # at once.
        object.__setattr__(self, "edge_u", frozen_array(u, np.int64, "edge endpoints"))
        object.__setattr__(self, "edge_v", frozen_array(v, np.int64, "edge endpoints"))
        object.__setattr__(self, "edge_w", frozen_array(w, np.float64, "edge weights"))

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "Graph":
        """Build a graph from ``(u, v, weight)`` triples in any orientation."""
        columns = list(zip(*edges)) or [(), (), ()]
        return _oriented_graph(n_nodes, *columns)

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric weighted adjacency matrix (CSR).

        Built by scipy from COO, not on ``edge_pattern``, whose argsort takes
        twice as long on a graph of half a million edges."""
        n = self.n_nodes
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        vals = np.concatenate([self.edge_w, self.edge_w])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def is_connected(self) -> bool:
        n_comp = sparse.csgraph.connected_components(
            self.adjacency, directed=False, return_labels=False
        )
        return int(n_comp) == 1


@dataclass(frozen=True)
class Signal:
    """Complex node signal, shape (n_nodes, n_channels); a 1-D vector is
    one channel."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _table(
            self.values, np.complex128, "signal values", "signal values"))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, j: int) -> np.ndarray:
        """Read-only view of channel ``j`` as a 1-D complex vector."""
        return self.values[:, j]


@dataclass(frozen=True)
class FeatureLocations:
    """Real feature coordinates per node, shape (n_nodes, n_features); a
    1-D column is one feature."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _table(
            self.values, np.float64, "feature values", "feature locations"))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def column(self, k: int) -> np.ndarray:
        if not 0 <= k < self.n_features:
            raise ContractError(
                f"feature index {k} out of range for {self.n_features} features")
        return self.values[:, k]


def bandwidth_order(
    graph: Graph, f: FeatureLocations, g: Signal
) -> tuple[Graph, FeatureLocations, Signal]:
    """Relabel the nodes in reverse Cuthill–McKee order.

    The order keeps neighbours at nearby labels, which narrows the band of
    every edge-supported matrix, so a sparse product reads its operand rows
    from a small window instead of the whole block (Cuthill & McKee, 1969;
    George & Liu, 1981).  New node ``i`` is old node ``order[i]``: edges are
    renamed, and the feature and signal rows are permuted alike.  The order
    is deterministic and takes O(edges) time.
    """
    if f.n_nodes != graph.n_nodes or g.n_nodes != graph.n_nodes:
        raise ContractError("graph, features, and signal disagree on size")
    # Imported here: loading scipy.sparse.csgraph slows every CLI start.
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(graph.adjacency, symmetric_mode=True)
    return (relabel(graph, order), FeatureLocations(f.values[order]),
            Signal(g.values[order]))


def relabel(graph: Graph, order: np.ndarray) -> Graph:
    """The graph whose node ``i`` is node ``order[i]`` of ``graph``."""
    label = np.empty(graph.n_nodes, dtype=np.int64)
    label[order] = np.arange(graph.n_nodes)
    return _oriented_graph(graph.n_nodes, label[graph.edge_u],
                           label[graph.edge_v], graph.edge_w)


def edge_pattern(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``order`` of the directed edges (rows ascending, then columns),
    and the full pattern's ``indices`` and ``indptr``."""
    n = graph.n_nodes
    rows = np.concatenate([graph.edge_u, graph.edge_v])
    cols = np.concatenate([graph.edge_v, graph.edge_u])
    # row * n + col is unique per directed edge and below 2**62.
    order = np.argsort(rows * n + cols, kind="stable")
    return (order, *csr_index(rows, cols[order], n))


def csr_index(rows: np.ndarray, cols: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """``indices`` and ``indptr`` of an ``n``-row CSR matrix whose entries,
    in CSR order, have columns ``cols``; ``rows`` holds their rows in any
    order.  Both are in the dtype scipy picks for this size, int32 unless
    ``n`` or the entry count exceeds its range."""
    idx = np.int32 if max(cols.size, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return cols.astype(idx), indptr


def normalize_channel(g: Signal, j: int) -> Signal:
    """Return a copy of ``g`` with channel ``j`` scaled to unit L2 norm.

    Raises :class:`DegenerateSignalError` when the channel mass is at or
    below ``NORM_FLOOR``.  Idempotent: renormalizing a normalized channel
    changes it only at rounding level.
    """
    if not 0 <= j < g.n_channels:
        raise ContractError(f"channel index {j} out of range")
    mass = float(np.linalg.norm(g.values[:, j]))
    if mass <= NORM_FLOOR:
        raise DegenerateSignalError(
            f"channel {j} has L2 mass {mass:.3e}, at or below the {NORM_FLOOR} floor"
        )
    vals = np.array(g.values, copy=True)
    vals[:, j] /= mass
    return Signal(vals)


# ---------------------------------------------------------------------------
# File formats.
#
# Graph files are line oriented:  a single header "#nodes=N", then one edge
# per line as "u<TAB>v<TAB>weight".  A line whose first non-blank character
# is "#", other than the header, is a comment.  Signals ("channels=J", then
# rows) and feature locations are CSV; complex values are interleaved re/im
# column pairs.  Floats are serialized with repr(), which round-trips
# float64 exactly in at most 17 significant digits.
#
# Each loader parses with ``np.loadtxt`` straight from the open file, after
# the header line.  A graph file that this rejects is read as text and, less
# its whole-line comments, parsed once more.  Only a file that numpy or the
# container's checks still reject reaches the line reader (``_scan``): it
# names the first bad line, and takes the rare valid files numpy does not
# parse (blank lines or comments before the header, whitespace-only lines,
# numbers written like ``1_000``).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Format:
    """A file format, as the numpy parse and the line reader read it.

    ``key`` starts the ``key=N`` header line (None: no header).  ``row(N)``
    makes the line reader's check of one row, from its cells and line to the
    parsed row; ``build(N, rows)`` makes the container from a 2-D ``dtype``
    array or raises a ValueError.  The strings make the error messages, and
    ``empty`` None lets a file have no rows.
    """

    key: str | None
    delimiter: str
    dtype: np.dtype
    comments: bool
    row: Callable
    build: Callable
    count: str = ""
    header: str = ""
    before: str = ""
    empty: str | None = None


def _load(path, fmt: _Format):
    """The container in the file at ``path``.

    A ValueError, a UnicodeDecodeError included, or a warning from one
    reader passes the file on to the next."""
    with open(path, "r", encoding="ascii") as fh:
        with suppress(ValueError, Warning):
            return fmt.build(*_parse(fh, fmt))
        if fmt.comments:
            with suppress(ValueError, Warning):
                fh.seek(0)
                kept = [ln for ln in fh.read().split("\n")
                        if not _is_comment(ln.strip(), fmt)]
                parsed = _parse(iter(kept), fmt)
                del kept  # frees the line strings before the build
                return fmt.build(*parsed)
    return fmt.build(*_scan(path, fmt))


def _parse(lines, fmt: _Format):
    """``(N, rows)`` that numpy parses from ``lines``, header first.

    ``comments=None`` keeps a ``#`` within a row a parse failure, and an
    empty remainder warns; every warning is an error."""
    count = _count(next(lines, "").strip(), fmt) if fmt.key else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(lines, delimiter=fmt.delimiter, comments=None,
                          dtype=fmt.dtype, ndmin=2)
    return count, rows


def _is_comment(line: str, fmt: _Format) -> bool:
    """Whether a stripped line is a whole-line comment of ``fmt``."""
    return fmt.comments and line.startswith("#") and not line.startswith(fmt.key)


def _count(line: str, fmt: _Format) -> int:
    """N of a stripped ``key=N`` header line; FormatError unless positive."""
    if not line.startswith(fmt.key):
        raise FormatError(fmt.before)
    try:
        count = int(line[len(fmt.key):])
    except ValueError:
        raise FormatError(f"bad {fmt.count} {line!r}") from None
    if count <= 0:
        raise FormatError(f"{fmt.count} must be positive")
    return count


def _scan(path, fmt: _Format):
    """``(N, rows)`` of a file read line by line; FormatError at the first bad line.

    The error names the file.  Line numbers count physical lines, split
    where text mode splits them."""
    count, rows = None, []
    check = None if fmt.key else fmt.row(None)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("ascii").strip()
            if not line or _is_comment(line, fmt):
                continue
            if check is None:
                count = _count(line, fmt)
                check = fmt.row(count)
            elif fmt.key and line.startswith(fmt.key):
                raise FormatError(f"repeated {fmt.header} header")
            else:
                rows.append(check(line.split(fmt.delimiter), line))
        except UnicodeDecodeError:
            raise FormatError("non-ASCII byte", lineno, path) from None
        except FormatError as exc:
            raise FormatError(exc.args[0], lineno, path) from None
    if check is None:
        raise FormatError(f"missing {fmt.header} header", path=path)
    if not rows and fmt.empty:
        raise FormatError(fmt.empty, path=path)
    return count, np.array(rows, dtype=fmt.dtype)


def _edge_row(n_nodes: int):
    """The line reader's check of one edge of a graph on ``n_nodes`` nodes."""
    seen: dict[tuple[int, int], float] = {}

    def row(cells: list[str], line: str) -> tuple[int, int, float]:
        if len(cells) != 3:
            raise FormatError(f"expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            u, v, w = int(cells[0]), int(cells[1]), float(cells[2])
        except ValueError:
            raise FormatError(f"unparsable edge {line!r}") from None
        if u == v:
            raise FormatError(f"self-loop at node {u}")
        if not 0 <= u < n_nodes or not 0 <= v < n_nodes:
            raise FormatError(f"edge endpoint out of range in {line!r}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            if seen[a, b] != w:
                raise FormatError(f"edge ({u},{v}) repeats an earlier edge with a "
                                  f"different weight")
            raise FormatError(f"duplicate undirected edge ({u},{v})")
        seen[a, b] = w
        return a, b, w

    return row


def _value_row(width: int | None, unit: str = ""):
    """The line reader's check of one row of ``width`` floats (None: the first row's)."""
    def row(cells: list[str], line: str) -> list[float]:
        nonlocal width
        width = width or len(cells)
        if len(cells) != width:
            raise FormatError(f"expected {width} columns{unit}, got {len(cells)}")
        try:
            return [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"unparsable value in {line!r}") from None

    return row


def _oriented_graph(n_nodes: int, u, v, w) -> Graph:
    """Graph from edges in any orientation, stored ``u < v`` in lexsort order."""
    u = exact_array(u, np.int64, "edge endpoints")
    v = exact_array(v, np.int64, "edge endpoints")
    a, b = np.minimum(u, v), np.maximum(u, v)
    # The stable order of a * n + b is lexsort((b, a)) for in-range
    # endpoints, and much faster on rows that are already sorted.
    order = np.argsort(a * n_nodes + b, kind="stable")
    return Graph(n_nodes, a[order], b[order], np.asarray(w)[order])


def _signal_from_rows(j: int, rows: np.ndarray) -> Signal:
    if rows.shape[1] != 2 * j:
        raise ValueError("column count does not match the channels")
    # Interleaved re/im pairs are exactly the complex128 layout.
    return Signal(rows.view(np.complex128))


_GRAPH = _Format(
    key="#nodes=", delimiter="\t", comments=True, row=_edge_row,
    dtype=np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
    build=lambda n, rows: _oriented_graph(n, *(rows.reshape(-1)[k] for k in "uvw")),
    count="node count", header="#nodes", before="edge listed before #nodes header")
_SIGNAL = _Format(
    key="channels=", delimiter=",", dtype=np.dtype(np.float64), comments=False,
    row=lambda j: _value_row(2 * j, f" for {j} channels"), build=_signal_from_rows,
    count="channel count", header="'channels='", before="missing 'channels=' header",
    empty="signal file has no node rows")
_FEATURES = _Format(
    key=None, delimiter=",", dtype=np.dtype(np.float64), comments=False,
    row=lambda _: _value_row(None), build=lambda _, rows: FeatureLocations(rows),
    empty="feature file has no rows")


def save_graph(graph: Graph, path) -> None:
    lines = [f"#nodes={graph.n_nodes}"]
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        lines.append(f"{u}\t{v}\t{float(w)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    return _load(path, _GRAPH)


def save_signal(g: Signal, path) -> None:
    j = g.n_channels
    lines = [f"channels={j}"]
    for row in g.values:
        cells = []
        for z in row:
            cells.append(repr(float(z.real)))
            cells.append(repr(float(z.imag)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_signal(path) -> Signal:
    return _load(path, _SIGNAL)


def save_features(f: FeatureLocations, path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in f.values]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features(path) -> FeatureLocations:
    return _load(path, _FEATURES)


def load_json(path):
    """The JSON value in the file at ``path``; FormatError if not ASCII JSON."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
            raise FormatError(f"not ASCII JSON: {exc}", path=path) from exc


# ---------------------------------------------------------------------------
# Reference instance generators.
# ---------------------------------------------------------------------------


def cluster_graph(seed: int) -> tuple[Graph, FeatureLocations, Signal]:
    """Two Gaussian point clouds joined into one geometric graph.

    Sixty nodes: thirty around (-1, 0) and thirty around (1, 0), coordinate
    noise std 0.5.  Nodes closer than 1.5 are joined by a unit-weight edge.
    The feature location is the x-coordinate; the initial signal is a
    nonnegative bump concentrated on the left cloud, L2-normalized.
    Resamples (same stream) until the graph is connected, up to
    ``_CLUSTER_MAX_ATTEMPTS``.
    """
    rng = np.random.default_rng(seed)
    n = 2 * _CLUSTER_SIZE
    for _ in range(_CLUSTER_MAX_ATTEMPTS):
        pts = np.repeat(_CLUSTER_CENTERS, _CLUSTER_SIZE, axis=0)
        pts = pts + rng.normal(0.0, _CLUSTER_STD, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        iu, iv = np.triu_indices(n, k=1)
        keep = dist[iu, iv] < _CLUSTER_EDGE_RADIUS
        edges = zip(iu[keep].tolist(), iv[keep].tolist(), [1.0] * int(keep.sum()))
        graph = Graph.from_edges(n, edges)
        if graph.is_connected():
            break
    else:
        raise SchroGspError(
            f"no connected two-cluster sample in {_CLUSTER_MAX_ATTEMPTS} attempts"
        )
    features = FeatureLocations(pts[:, 0])
    d2 = ((pts - _CLUSTER_CENTERS[0]) ** 2).sum(axis=1)
    bump = np.exp(-d2 / (2.0 * _CLUSTER_SIGNAL_WIDTH ** 2))
    signal = normalize_channel(Signal(bump), 0)
    return graph, features, signal


def ring_graph(n_nodes: int) -> tuple[Graph, FeatureLocations]:
    """Cycle graph with unit weights and circular feature coordinates.

    Node ``n`` sits at angle ``-pi + 2*pi*n/N``.  Features are three columns:
    cos(angle) and sin(angle), which vary smoothly across every edge and
    drive evolution, plus the raw angle, kept for windowed diagnostics.
    """
    if n_nodes < 3:
        raise ContractError("a ring needs at least 3 nodes")
    nodes = np.arange(n_nodes)
    angles = -math.pi + 2.0 * math.pi * nodes / n_nodes
    graph = _oriented_graph(n_nodes, nodes, (nodes + 1) % n_nodes, np.ones(n_nodes))
    features = FeatureLocations(
        np.column_stack([np.cos(angles), np.sin(angles), angles])
    )
    return graph, features
