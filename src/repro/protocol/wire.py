"""Wire-level client/server abstractions for every LDP protocol.

The paper's local model is inherently distributed: each user runs a local
randomizer on her own device and ships one short report to a server that only
ever sees the aggregate.  This module makes that boundary explicit:

* :class:`PublicParams` — the serializable public randomness and configuration
  a server publishes before collection starts (hash seeds, bucket counts, ε,
  repetition-assignment policy).  ``to_dict()`` / ``from_dict()`` round-trip
  through plain JSON-safe dictionaries so the parameters can be shipped to
  clients over any transport.
* :class:`ClientEncoder` — a stateless per-user object built from the public
  parameters.  ``encode(value, rng)`` produces one small serializable
  :class:`Report`; ``encode_batch`` is the vectorized path used by
  simulations.
* :class:`ServerAggregator` — incremental ingestion (``absorb`` /
  ``absorb_batch``) into one flat exact count vector, plus a commutative
  and associative ``merge`` so aggregation can be sharded across workers,
  and ``finalize()`` which turns the aggregate into a fitted estimator
  (a :class:`~repro.frequency.base.FrequencyOracle` or a heavy-hitters
  result).

The counts (laid out by the params' :class:`CountLayout`) stay exact
integers until ``finalize()``, so splitting a report stream across K shards
and merging the shard aggregators reproduces single-server aggregation *bit
for bit*.  The same state powers **durable snapshots**: ``snapshot()`` emits
a JSON-safe checkpoint (parameters + report count + ``{"counts": …}``) and
``from_snapshot()`` rebuilds an aggregator that finalizes bit-identically —
the crash-recovery primitive of :mod:`repro.server`.

The legacy one-shot ``FrequencyOracle.collect(values)`` /
``HeavyHitterProtocol.run(values)`` entry points are retained as thin
simulation conveniences implemented exactly as
``encode_batch → absorb_batch → finalize``.
"""

from __future__ import annotations

import abc
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.hashing.kwise import KWiseHash, SignHash
from repro.utils.rng import RandomState, as_generator

__all__ = [
    "Report",
    "ReportBatch",
    "PublicParams",
    "ClientEncoder",
    "ServerAggregator",
    "CountLayout",
    "merge_aggregators",
    "register_protocol",
    "protocol_class",
    "protocol_names",
    "default_buckets",
    "kwise_hash_to_dict",
    "kwise_hash_from_dict",
    "sign_hash_to_dict",
    "sign_hash_from_dict",
    "json_safe",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]

#: identifying tag of an aggregator snapshot payload (see ``ServerAggregator.snapshot``)
SNAPSHOT_FORMAT = "repro-aggregator-snapshot"
#: snapshot payload version; bumped on any breaking change to the state layout
SNAPSHOT_VERSION = 2
#: restorable versions: 1 is the nested per-protocol state (:func:`flatten_state`)
READABLE_VERSIONS = (1, 2)
#: the largest cell magnitude an int32 state holds; past it a state is int64
INT32_MAX = int(np.iinfo(np.int32).max)


def state_dtype(bound: int) -> type:
    """The width of a state whose cells are at most ``bound`` in
    magnitude: int32 while that fits, int64 past it."""
    return np.int32 if bound <= INT32_MAX else np.int64


def cell_bound(counts: np.ndarray) -> int:
    """``max|cell|`` of ``counts``, read in one min/max pass (0 if empty)."""
    if not counts.size:
        return 0
    return max(int(counts.max()), -int(counts.min()))


# --------------------------------------------------------------------------------------
# hash (de)serialization helpers — PublicParams ship hash functions as coefficients
# --------------------------------------------------------------------------------------

def kwise_hash_to_dict(h: KWiseHash) -> Dict[str, object]:
    """JSON-safe description of a k-wise independent hash function."""
    return {"coefficients": [int(c) for c in h.coefficients],
            "prime": int(h.prime),
            "range_size": int(h.range_size)}


def kwise_hash_from_dict(data: Dict[str, object]) -> KWiseHash:
    """Rebuild a :class:`KWiseHash` from :func:`kwise_hash_to_dict` output."""
    return KWiseHash(coefficients=tuple(int(c) for c in data["coefficients"]),
                     prime=int(data["prime"]),
                     range_size=int(data["range_size"]))


def sign_hash_to_dict(s: SignHash) -> Dict[str, object]:
    """JSON-safe description of a ±1-valued hash function."""
    return kwise_hash_to_dict(s.base)


def sign_hash_from_dict(data: Dict[str, object]) -> SignHash:
    """Rebuild a :class:`SignHash` from :func:`sign_hash_to_dict` output."""
    return SignHash(kwise_hash_from_dict(data))


# --------------------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------------------

class Report:
    """One user's wire message: a protocol tag plus a small payload.

    Payload entries are integers or small integer vectors; :meth:`to_dict`
    yields a JSON-safe dictionary, so a report can be shipped over any
    transport and re-hydrated with :meth:`from_dict`.
    """

    __slots__ = ("protocol", "payload")

    def __init__(self, protocol: str, payload: Dict[str, object]) -> None:
        self.protocol = protocol
        self.payload = payload

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for key, value in self.payload.items():
            arr = np.asarray(value)
            if arr.ndim == 0:
                payload[key] = int(arr)
            else:
                payload[key] = [int(v) for v in arr.tolist()]
        return {"protocol": self.protocol, "payload": payload}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Report":
        payload = {key: (np.asarray(value, dtype=np.int64)
                         if isinstance(value, (list, tuple)) else int(value))
                   for key, value in dict(data["payload"]).items()}
        return cls(str(data["protocol"]), payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        keys = ", ".join(sorted(self.payload))
        return f"Report(protocol={self.protocol!r}, fields=[{keys}])"


class ReportBatch:
    """A columnar batch of reports (one row per user).

    Columns are numpy arrays whose first axis indexes users; scalar payload
    fields become 1-D columns and vector fields become 2-D columns.  The
    columnar layout is what makes ``absorb_batch`` ingestion as fast as the
    legacy one-shot simulation while every row remains an honest standalone
    :class:`Report`.  On the wire a batch travels only as a binary
    ``reports`` frame (:mod:`repro.protocol.binary`,
    ``docs/wire-protocol.md`` §8).
    """

    __slots__ = ("protocol", "columns", "_num_reports")

    def __init__(self, protocol: str, columns: Dict[str, np.ndarray]) -> None:
        self.protocol = protocol
        self.columns = {key: np.asarray(value) for key, value in columns.items()}
        sizes = {int(col.shape[0]) for col in self.columns.values()}
        if len(sizes) > 1:
            raise ValueError(f"inconsistent column lengths: {sorted(sizes)}")
        self._num_reports = sizes.pop() if sizes else 0

    # ----- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._num_reports

    def __iter__(self) -> Iterator[Report]:
        for i in range(self._num_reports):
            yield Report(self.protocol,
                         {key: col[i] for key, col in self.columns.items()})

    def to_reports(self) -> List[Report]:
        """Materialize the batch as individual :class:`Report` objects."""
        return list(self)

    # ----- slicing / sharding ------------------------------------------------------

    def select(self, index: Union[slice, Sequence[int],
                                  np.ndarray]) -> "ReportBatch":
        """Row subset (boolean mask, slice, or integer index array)."""
        return ReportBatch(self.protocol,
                           {key: col[index] for key, col in self.columns.items()})

    def split(self, num_shards: int) -> List["ReportBatch"]:
        """Partition the batch into ``num_shards`` contiguous shards."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        indices = np.array_split(np.arange(self._num_reports), num_shards)
        return [self.select(ix) for ix in indices]

    @classmethod
    def concat(cls, batches: Sequence["ReportBatch"],
               consume: bool = False) -> "ReportBatch":
        """Concatenate batches of the same protocol.

        With ``consume=True`` each source column is released as soon as it
        has been copied, so peak memory stays one full batch plus one column
        instead of two full copies (the source batches are left empty).
        """
        if not batches:
            raise ValueError("need at least one batch")
        protocol = batches[0].protocol
        if any(b.protocol != protocol for b in batches):
            raise ValueError("cannot concatenate batches of different protocols")
        if consume:
            columns = {key: np.concatenate([b.columns.pop(key) for b in batches])
                       for key in list(batches[0].columns)}
        else:
            columns = {key: np.concatenate([b.columns[key] for b in batches])
                       for key in batches[0].columns}
        return cls(protocol, columns)

    @classmethod
    def from_reports(cls, reports: Iterable[Report]) -> "ReportBatch":
        """Stack individual reports back into a columnar batch."""
        reports = list(reports)
        if not reports:
            raise ValueError("need at least one report")
        protocol = reports[0].protocol
        if any(r.protocol != protocol for r in reports):
            raise ValueError("cannot stack reports of different protocols")
        columns = {key: np.stack([np.asarray(r.payload[key]) for r in reports])
                   for key in reports[0].payload}
        return cls(protocol, columns)

    # ----- accounting ---------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """In-memory size of the columnar representation."""
        return int(sum(col.nbytes for col in self.columns.values()))


# --------------------------------------------------------------------------------------
# public parameters + registry
# --------------------------------------------------------------------------------------

_PROTOCOL_REGISTRY: Dict[str, Type["PublicParams"]] = {}


def _unpickle_params(data: Dict[str, object]) -> "PublicParams":
    """Pickle hook: rebuild parameters from their ``to_dict()`` payload.

    Importing :mod:`repro.protocol` populates the registry with every
    built-in protocol, so parameter objects can be unpickled in a worker
    process that never imported the concrete protocol module.  (Third-party
    protocols must be importable from their defining module as usual.)
    """
    import repro.protocol  # noqa: F401 — registers the built-in protocols
    return PublicParams.from_dict(data)


def register_protocol(cls: Type["PublicParams"]) -> Type["PublicParams"]:
    """Class decorator registering a :class:`PublicParams` subclass for
    :meth:`PublicParams.from_dict` dispatch and :func:`protocol_class`."""
    if not cls.protocol or cls.protocol == "abstract":
        raise ValueError("protocol classes must define a unique `protocol` name")
    if not cls.short_name:
        raise ValueError("protocol classes must define a `short_name`")
    _PROTOCOL_REGISTRY[cls.protocol] = cls
    return cls


def protocol_names() -> List[str]:
    """The short name of every registered protocol, sorted."""
    import repro.protocol  # noqa: F401 — registers the built-in protocols
    return sorted(cls.short_name for cls in _PROTOCOL_REGISTRY.values())


def protocol_class(name: str) -> Type["PublicParams"]:
    """The registered parameters class whose short name (``"cms"``) or
    wire tag (``"count_mean_sketch"``) is ``name``."""
    import repro.protocol  # noqa: F401 — registers the built-in protocols
    for cls in _PROTOCOL_REGISTRY.values():
        if name in (cls.short_name, cls.protocol):
            return cls
    raise ValueError(f"unknown protocol {name!r}; registered: "
                     f"{', '.join(protocol_names())}")


def default_buckets(num_users: int) -> int:
    """The default hash range of a √n-sized sketch: ⌈√n⌉, at least 16."""
    return max(16, int(math.ceil(math.sqrt(max(int(num_users), 1)))))


class PublicParams(abc.ABC):
    """Serializable public randomness/configuration published by the server.

    Everything a client needs to encode (hash coefficients, bucket counts, ε,
    the repetition-assignment policy) and everything a shard worker needs to
    aggregate lives here.  Two parameter objects that serialize identically
    are interchangeable, which is what makes shard aggregators mergeable.
    """

    #: registry key, the wire tag every frame and snapshot carries
    protocol: str = "abstract"
    #: the name the CLI, the matrix and the chaos runner take
    short_name: str = ""

    # ----- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary describing these parameters."""
        data = {"protocol": self.protocol}
        data.update(self._payload_dict())
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PublicParams":
        """Rebuild parameters from :meth:`to_dict` output.

        Called on the base class this dispatches on ``data["protocol"]``;
        called on a subclass it checks the tag and rebuilds directly.
        """
        name = str(data.get("protocol", ""))
        if cls is PublicParams:
            try:
                target = _PROTOCOL_REGISTRY[name]
            except KeyError:
                raise ValueError(f"unknown protocol {name!r}; registered: "
                                 f"{sorted(_PROTOCOL_REGISTRY)}") from None
            return target.from_dict(data)
        if name != cls.protocol:
            raise ValueError(f"cannot load {name!r} parameters as {cls.protocol!r}")
        return cls._from_payload({k: v for k, v in data.items() if k != "protocol"})

    @abc.abstractmethod
    def _payload_dict(self) -> Dict[str, object]:
        """Subclass hook: JSON-safe payload (everything except the tag)."""

    @classmethod
    @abc.abstractmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "PublicParams":
        """Subclass hook: rebuild from :meth:`_payload_dict` output."""

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PublicParams)
                and other.protocol == self.protocol
                and other.to_dict() == self.to_dict())

    def __hash__(self) -> int:  # pragma: no cover - dict-keyed use is rare
        return hash(self.protocol)

    def __reduce__(self) -> Tuple[Callable[[Dict[str, object]],
                                           "PublicParams"],
                                  Tuple[Dict[str, object]]]:
        """Pickle through the JSON payload: the wire format *is* the state.

        This keeps pickling stable across refactors of derived attributes
        (rebuilt in ``__init__``) and guarantees that a parameter object
        shipped to an engine worker process compares equal (``__eq__`` is
        ``to_dict()`` equality) to the original — the precondition for
        merging the worker's aggregator back into the parent's.
        """
        return (_unpickle_params, (self.to_dict(),))

    # ----- factories -------------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def for_workload(cls, num_users: int, domain_size: int, epsilon: float,
                     rng: RandomState = None) -> "PublicParams":
        """Sample parameters with this protocol's defaults for a run of
        ``num_users`` users over ``domain_size`` at budget ``epsilon``."""

    @abc.abstractmethod
    def make_encoder(self) -> "ClientEncoder":
        """Build the stateless client-side encoder for these parameters."""

    @abc.abstractmethod
    def make_aggregator(self, counts: Optional[np.ndarray] = None,
                        bound: Optional[int] = None) -> "ServerAggregator":
        """Build a server-side aggregator for these parameters: empty, or
        holding ``counts`` (a vector laid out by :attr:`layout`, which it
        takes as its own; ``bound`` is a proven ``max|cell|`` or, if
        ``None``, read from the cells).  :func:`load_child_state` is the
        checked way to build one from a loaded state."""

    # ----- accounting ------------------------------------------------------------

    @property
    @abc.abstractmethod
    def report_bits(self) -> float:
        """Exact wire size of one encoded report, in bits."""

    @property
    @abc.abstractmethod
    def layout(self) -> "CountLayout":
        """The flat cell layout of an aggregator's ``counts`` vector."""


class ClientEncoder(abc.ABC):
    """Stateless per-user encoder built from :class:`PublicParams`.

    Encoders hold no mutable state: the same parameters always build an
    equivalent encoder, and every call draws only from the ``rng`` argument,
    mirroring randomization on the user's own device.
    """

    def __init__(self, params: PublicParams) -> None:
        self.params = params

    @property
    def report_bits(self) -> float:
        """Wire size of one report produced by this encoder, in bits."""
        return self.params.report_bits

    def encode(self, value: int, rng: RandomState = None,
               user_index: Optional[int] = None) -> Report:
        """Encode a single user's value into one wire report.

        ``user_index`` feeds deterministic assignment policies (round-robin or
        hashed repetition/coordinate assignment); when omitted, an anonymous
        index is drawn uniformly from ``rng`` so assignments stay uniform
        across clients that never learned an index.
        """
        gen = as_generator(rng)
        if user_index is None:
            user_index = self._draw_user_index(gen)
        batch = self.encode_batch(np.asarray([value], dtype=np.int64), gen,
                                  first_user_index=int(user_index))
        return next(iter(batch))

    def _draw_user_index(self, gen: np.random.Generator) -> int:
        """Subclass hook: random index for anonymous clients.

        Protocols whose assignment policy is a deterministic function of the
        user index must override this, otherwise every anonymous client would
        collapse into assignment slot 0.
        """
        return 0

    @abc.abstractmethod
    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        """Vectorized encoding of ``values[i]`` for users ``first_user_index + i``."""


class CountLayout:
    """The flat cell layout of an aggregator's state (whose width, int32
    or int64, is the aggregator's: see :class:`ServerAggregator`).

    ``size`` cells, some of them report counts: each ``(name, parent,
    cells)`` of ``groups`` says the counts at ``cells`` sum to the count at
    cell ``parent`` (``-1``: the aggregator's ``num_reports``).  Layouts
    compose by ``+`` and :meth:`blocks` in the leaf order of the version-1
    nested snapshot state, so :func:`flatten_state` maps v1 straight in.
    """

    def __init__(self, size: int,
                 groups: Sequence[Tuple[str, int, np.ndarray]] = ()) -> None:
        self.size = int(size)
        self.groups = tuple(groups)

    @classmethod
    def blocks(cls, copies: int, name: str,
               child: Optional["CountLayout"] = None) -> "CountLayout":
        """``copies`` × [count cell, ``child`` cells]: every report lands in
        one block, so the block counts sum to the parent's count."""
        child = child if child is not None else CountLayout(0)
        stride = child.size + 1
        starts = np.arange(copies, dtype=np.int64) * stride
        groups = [(name, -1, starts)]
        for start in starts.tolist():
            groups.extend((sub, start if parent < 0 else start + 1 + parent,
                           start + 1 + cells)
                          for sub, parent, cells in child.groups)
        return cls(copies * stride, groups)

    def __add__(self, other: "CountLayout") -> "CountLayout":
        shift = self.size
        return CountLayout(self.size + other.size, self.groups + tuple(
            (name, parent if parent < 0 else parent + shift, cells + shift)
            for name, parent, cells in other.groups))

    def count_cells(self, name: str) -> np.ndarray:
        """The report-count cells of the (first) group called ``name`` —
        in a composite, where each child block starts."""
        return next(cells for group, _, cells in self.groups if group == name)

    @property
    def state_size(self) -> int:
        """Scalars retained, report-count cells excluded (the Table 1
        figure: a composite's per-child counts are bookkeeping)."""
        return self.size - sum(cells.size for _, _, cells in self.groups)

    def check_state(self, counts: np.ndarray, num_reports: int) -> None:
        """Reject a loaded state: a negative ``num_reports``, ``counts``
        not shaped ``(size,)``, or report-count cells failing
        :meth:`check_counts`.  ``counts`` may be any vector that indexes
        to exact values (an array, or a still-packed wire column)."""
        if num_reports < 0:
            raise ValueError(f"snapshot num_reports={num_reports} is "
                             f"negative")
        if counts.shape != (self.size,):
            raise ValueError(f"snapshot counts have shape {counts.shape}, "
                             f"expected ({self.size},)")
        self.check_counts(counts, num_reports)

    def check_counts(self, counts: np.ndarray, num_reports: int) -> None:
        """Reject loaded ``counts`` whose report-count cells are negative
        or do not add up to their parent's count."""
        for name, parent, cells in self.groups:
            held = counts[cells]
            expected = num_reports if parent < 0 else int(counts[parent])
            if int(held.sum()) != expected or (held < 0).any():
                raise ValueError(f"snapshot {name} counts hold "
                                 f"{held.tolist()} reports, expected "
                                 f"{expected} in all, none negative")


class ServerAggregator(abc.ABC):
    """Incremental, mergeable server-side aggregation of wire reports.

    The whole state is one integer vector ``counts`` laid out by
    ``params.layout``; a protocol implements only :meth:`_report_cells`
    (validated batch → flat cells and weights) and :meth:`finalize`.
    Integer addition makes ``merge`` commutative and associative *bit for
    bit*: sharding a report stream across K workers and merging their
    aggregators reproduces single-server ingestion exactly.

    ``counts`` is int32 until a proven bound on ``max|cell|`` needs int64.
    ``bound`` starts at 0 (or one min/max pass over loaded cells); an
    absorb adds the batch's largest possible per-cell change and a merge
    adds the operands' bounds.  An absorb or merge that would take it past
    :data:`INT32_MAX` first re-reads the bound from the cells, and promotes
    the state to int64 by one copy only if the cells need it; a merge with
    an int64 operand is int64.  The width is invisible outside: snapshots
    and kind-2 frames narrow by value, and the finalizes pick their decode
    width from the cells, so bytes and answers do not depend on it.
    """

    def __init__(self, params: PublicParams,
                 counts: Optional[np.ndarray] = None,
                 bound: Optional[int] = None) -> None:
        self.params = params
        self.num_reports = 0
        if counts is None:
            counts, bound = np.zeros(params.layout.size, dtype=np.int32), 0
        self.counts = counts
        #: proven upper bound on ``max|cell|``; at most INT32_MAX while
        #: ``counts`` is int32
        self.bound = cell_bound(counts) if bound is None else int(bound)

    # ----- ingestion ----------------------------------------------------------------

    def absorb(self, report: Report) -> "ServerAggregator":
        """Ingest a single report (streaming path).  Returns ``self``."""
        self.absorb_batch(ReportBatch.from_reports([report]))
        return self

    def absorb_batch(self, reports: Union[ReportBatch, Iterable[Report]]
                     ) -> "ServerAggregator":
        """Ingest a batch of reports (columnar fast path).  Returns ``self``.

        Atomic: every column is validated (``ValueError``) before the one
        ``np.add.at`` that mutates ``counts`` (a promotion to int64 before
        it changes the width, not the values).
        """
        if not isinstance(reports, ReportBatch):
            reports = list(reports)
            if not reports:
                return self
            reports = ReportBatch.from_reports(reports)
        if reports.protocol != self.params.protocol:
            raise ValueError(f"cannot absorb {reports.protocol!r} reports into a "
                             f"{self.params.protocol!r} aggregator")
        if len(reports) == 0:
            return self
        cells, weights, change = [], [], 0
        for part_cells, part_weights in self._report_cells(reports.columns):
            if part_cells.shape[1] == 1 and part_weights.shape[1] != 1:
                # every report touches the same cells: add the per-cell sums
                part_weights = part_weights.sum(axis=1, dtype=np.int64,
                                                keepdims=True)
            if part_weights.size:
                # no cell moves by more than the part's weights at their
                # largest: a bound on the part's sum of |weight|
                change += part_weights.size * max(int(part_weights.max()),
                                                  -int(part_weights.min()))
            cells.append(part_cells.ravel())
            weights.append(part_weights.ravel())
        self._reserve(change)
        # one part needs no concatenation copy; 1-D operands, the weights
        # in the counts' dtype, keep np.add.at on its fast path
        dtype = self.counts.dtype
        flat_cells = np.concatenate(cells) if len(cells) > 1 else cells[0]
        flat_weights = (np.concatenate(weights, dtype=dtype)
                        if len(weights) > 1
                        else weights[0].astype(dtype, copy=False))
        np.add.at(self.counts, flat_cells, flat_weights)
        self.num_reports += len(reports)
        return self

    def _reserve(self, change: int) -> None:
        """Raise ``bound`` by ``change``, promoting ``counts`` to int64
        (one copy) if the cells, re-read once, cannot take it at int32."""
        if (self.bound + change > INT32_MAX and self.counts.dtype == np.int32
                and self._tighten() + change > INT32_MAX):
            self.counts = self.counts.astype(np.int64)
        self.bound += change

    def _tighten(self) -> int:
        """Re-read ``bound`` from the cells (one min/max pass)."""
        self.bound = cell_bound(self.counts)
        return self.bound

    def _sum_width(self, dtype: np.dtype, bound: int,
                   tighten: Callable[[], int]) -> Tuple[type, int]:
        """The dtype and bound of ``self.counts`` plus a vector of
        ``dtype`` whose cells are at most ``bound`` (``tighten()`` re-reads
        that from its cells): int64 if either operand is, else int32
        unless the bounds — re-read from the cells once their sum passes
        INT32_MAX — need int64."""
        total = self.bound + bound
        if (total > INT32_MAX and self.counts.dtype == np.int32
                and dtype == np.int32):
            total = self._tighten() + tighten()
        return np.result_type(self.counts, dtype,
                              state_dtype(total)).type, total

    def _widen(self, dtype: type) -> None:
        if self.counts.dtype != dtype:
            self.counts = self.counts.astype(dtype)

    @abc.abstractmethod
    def _report_cells(self, columns: Dict[str, np.ndarray]
                      ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Subclass hook: a non-empty batch's cells, as ``(cells, weights)``
        parts of int arrays of shape ``(c, n)`` — column i is report i's
        flat cell indices and weights — or with ``cells`` one ``(c, 1)``
        column all reports share and ``weights`` ``(c, n)`` or already
        summed to ``(c, 1)``.  Must range-check every column it reads first
        (``ValueError``): an in-bounds index can land in the wrong block."""

    # ----- merging ------------------------------------------------------------------

    def merge(self, other: "ServerAggregator") -> "ServerAggregator":
        """Combine two shard aggregators into a new one (counts are summed).

        The operation is commutative and associative; both operands are left
        untouched.  Aggregators must have been built from equal public
        parameters.
        """
        self._check_mergeable(other)
        dtype, bound = self._sum_width(other.counts.dtype, other.bound,
                                       other._tighten)
        merged = type(self)(self.params,
                            np.add(self.counts, other.counts, dtype=dtype),
                            bound)
        merged.num_reports = self.num_reports + other.num_reports
        return merged

    def merge_in_place(self, other: "ServerAggregator") -> "ServerAggregator":
        """:meth:`merge` into this aggregator's own vector (promoted
        first if the sum needs int64), so no fresh vector is made; ``other``
        is left untouched.  Returns ``self``."""
        self._check_mergeable(other)
        dtype, bound = self._sum_width(other.counts.dtype, other.bound,
                                       other._tighten)
        self._widen(dtype)
        self.counts += other.counts
        self.bound = bound
        self.num_reports += other.num_reports
        return self

    def add_in_place(self, cells: Any, num_reports: int
                     ) -> "ServerAggregator":
        """:meth:`merge_in_place` of a loaded and checked state that was
        never made into an array: ``cells`` (a
        :class:`~repro.protocol.binary.PackedColumn`) gives the width it
        would load at (``dtype``), its ``bound`` and ``add_to(counts)``.
        The sum is promoted to int64 first only if the bounds need it.
        Returns ``self``."""
        bound = cells.bound
        dtype, total = self._sum_width(cells.dtype, bound, lambda: bound)
        self._widen(dtype)
        cells.add_to(self.counts)
        self.bound = total
        self.num_reports += int(num_reports)
        return self

    def _check_mergeable(self, other: "ServerAggregator") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot merge {type(other).__name__} into "
                            f"{type(self).__name__}")
        if other.params != self.params:
            raise ValueError("cannot merge aggregators with different public "
                             "parameters")

    # ----- durable snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe checkpoint of the full aggregator state.

        The payload carries the public parameters (``to_dict``), the report
        count, and the exact integer ``counts``, so a server can write it
        to disk, crash, and rebuild an aggregator that finalizes
        **bit-identically** via :meth:`from_snapshot` — integers survive
        JSON exactly, and no floating-point value is ever part of the state.
        """
        return {"format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "params": self.params.to_dict(),
                "num_reports": int(self.num_reports),
                "state": {"counts": self.counts.tolist()}}

    @staticmethod
    def from_snapshot(data: Dict[str, object]) -> "ServerAggregator":
        """Rebuild an aggregator from :meth:`snapshot` output.

        Dispatches on the embedded parameters' ``protocol`` tag, so any
        registered protocol restores through this one entry point.
        """
        return load_child_state(
            snapshot_params(data, SNAPSHOT_FORMAT, "an aggregator"), data)

    def restore(self, data: Dict[str, object]) -> "ServerAggregator":
        """Load a snapshot into this (freshly built) aggregator in place.

        The snapshot's parameters must equal this aggregator's — restoring
        state produced under different public randomness would silently
        decode garbage.  Returns ``self``.
        """
        if snapshot_params(data, SNAPSHOT_FORMAT,
                           "an aggregator") != self.params:
            raise ValueError("cannot restore a snapshot taken under different "
                             "public parameters")
        return load_child_state(self, data)

    # ----- composite views ----------------------------------------------------------

    def _block(self, aggregator: Type["ServerAggregator"],
               params: PublicParams, at: int) -> "ServerAggregator":
        """Zero-copy child aggregator over the layout block whose count
        cell is ``counts[at]`` (a composite's per-child state, read-only:
        its bound is this aggregator's)."""
        child = aggregator(params,
                           self.counts[at + 1:at + 1 + params.layout.size],
                           self.bound)
        child.num_reports = int(self.counts[at])
        return child

    # ----- finalization -------------------------------------------------------------

    @abc.abstractmethod
    def finalize(self) -> Any:
        """Debias the aggregate into a fitted estimator.

        Frequency-oracle aggregators return a ready-to-query
        :class:`~repro.frequency.base.FrequencyOracle`; heavy-hitters
        aggregators return a :class:`~repro.core.results.HeavyHitterResult`.
        """

    # ----- accounting ---------------------------------------------------------------

    @property
    def state_size(self) -> int:
        """Number of scalars retained (report-count cells excluded)."""
        return self.params.layout.state_size


def merge_aggregators(aggregators: Sequence[ServerAggregator]) -> ServerAggregator:
    """Fold a non-empty sequence of shard aggregators into one."""
    if not aggregators:
        raise ValueError("need at least one aggregator")
    merged = aggregators[0]
    for aggregator in aggregators[1:]:
        merged = merged.merge(aggregator)
    return merged


def snapshot_params(data: Dict[str, object], format: str,
                    kind: str) -> PublicParams:
    """The parameters of a snapshot payload, once its format tag and
    version are checked (``ValueError`` otherwise)."""
    if data.get("format") != format:
        raise ValueError(f"not {kind} snapshot: "
                         f"format={data.get('format')!r}")
    found = int(data.get("version", 0))
    if found not in READABLE_VERSIONS:
        raise ValueError(f"unsupported {kind} snapshot version {found} "
                         f"(expected one of {list(READABLE_VERSIONS)})")
    return PublicParams.from_dict(dict(data["params"]))


def child_state(aggregator: ServerAggregator) -> Dict[str, object]:
    """Parameter-free payload of an aggregator: its report count and its
    live ``counts`` at their width, not a copy.  Pack it (``pack_state``,
    a kind-2 frame) before the aggregator's next absorb."""
    return {"num_reports": int(aggregator.num_reports),
            "state": {"counts": aggregator.counts}}


def load_child_state(target: Union[PublicParams, ServerAggregator],
                     data: Dict[str, object]) -> ServerAggregator:
    """Inverse of :func:`child_state` (or the state half of a snapshot):
    load ``data["state"]`` — ``{"counts": …}`` or a v1 nested payload —
    and its ``num_reports``, rejecting a negative count, a wrong-size
    vector, or report-count cells contradicting it.

    Given parameters, this returns a new aggregator whose ``counts`` are
    the loaded vector from the start, so no empty vector is made; given an
    aggregator, it loads into that one in place (:meth:`restore`).  The
    counts load at the width :func:`integer_state` gives them, and the
    aggregator's bound is their ``max|cell|``."""
    params = target if isinstance(target, PublicParams) else target.params
    count = int(data["num_reports"])
    state = dict(data["state"])
    counts, bound = integer_state(state["counts"] if set(state) == {"counts"}
                                  else flatten_state(state))
    params.layout.check_state(counts, count)
    if isinstance(target, PublicParams):
        aggregator = params.make_aggregator(counts, bound)
    else:
        aggregator = target
        aggregator.counts, aggregator.bound = counts, bound
    aggregator.num_reports = count
    return aggregator


def flatten_state(state: object) -> np.ndarray:
    """The counts of a version-1 nested state payload, in layout order:
    sorted keys, list items in order, each child's ``num_reports`` ahead
    of its state (see :class:`CountLayout`)."""
    if isinstance(state, dict):
        parts = [flatten_state(state[key]) for key in sorted(state)]
    elif isinstance(state, list) and state and isinstance(state[0], dict):
        parts = [flatten_state(item) for item in state]
    else:
        return np.asarray(state).ravel()
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def json_safe(payload: object) -> object:
    """``payload`` with every numpy array turned into (nested) int lists."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: json_safe(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [json_safe(value) for value in payload]
    return payload


def int_column(columns: Dict[str, np.ndarray], name: str, low: int,
               high: int, width: Optional[int] = None) -> np.ndarray:
    """Report column ``name``, rejecting (``ValueError``) a missing or
    non-integer column, entries outside ``low..high-1``, and a shape other
    than ``(n,)`` — or ``(n, width)`` for a bit-vector column, which keeps
    its own dtype (index columns come back as int64 for cell arithmetic)."""
    if name not in columns:
        raise ValueError(f"batch has no {name} column")
    column = np.asarray(columns[name])
    shape = (column.shape[0],) if width is None else (column.shape[0], width)
    if column.shape != shape or column.dtype.kind not in "biu":
        raise ValueError(f"{name} column has shape {column.shape} and dtype "
                         f"{column.dtype}, expected integers of shape {shape}")
    if column.size and (column.min() < low or column.max() >= high):
        raise ValueError(f"{name} column has entries outside "
                         f"{low}..{high - 1}")
    return column if width else column.astype(np.int64, copy=False)


def nest_cells(starts: np.ndarray, blocks: np.ndarray,
               parts: List[Tuple[np.ndarray, np.ndarray]]
               ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A composite's parts for reports routed into child blocks (report i
    into block ``blocks[i]``, whose count cell is ``starts[blocks[i]]``):
    the blocks' report counts, then the child's parts shifted past each
    report's count cell.  Only a single block (one constant shift) may
    hold already-summed child parts."""
    counts = (starts[:, None],
              np.bincount(blocks, minlength=starts.size)[:, None])
    shift = starts[0] + 1 if starts.size == 1 else starts[blocks] + 1
    return [counts] + [(cells + shift, weights) for cells, weights in parts]


def integer_state(values: object) -> Tuple[np.ndarray, int]:
    """Snapshot counters and their ``max|cell|``, rejecting (not
    truncating) ``1.5``-like entries with ``ValueError``.  The counters
    come back int32 when every cell fits it, int64 otherwise; integer
    input already at that width passes through uncopied."""
    state = np.asarray(values)
    if state.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):
            exact = state.astype(np.int64)
        if not np.array_equal(exact, state):
            raise ValueError("snapshot state has a non-integral entry")
        state = exact
    bound = cell_bound(state)
    return state.astype(state_dtype(bound), copy=False), bound
