"""Columnar flow tables: the numpy kernel layer behind the analysis hot path.

The analysis modules (:mod:`repro.core.sessions`, :mod:`repro.core.flows`,
:mod:`repro.core.preferred`, :mod:`repro.core.hotspots`,
:mod:`repro.core.nonpreferred`, :mod:`repro.core.summary`) are written as
record-at-a-time Python over :class:`~repro.trace.records.FlowRecord`
dataclasses — an executable spec of the paper's Section VI methodology.  At
higher ``--scale`` that spec becomes the bottleneck: a cold ``repro study``
spends most of its time iterating flows in the interpreter.

This module adds the columnar alternative those modules switch to:

* :class:`FlowTable` — a flow sequence held as records, as numpy column
  arrays (``src_ip``, ``dst_ip``, ``num_bytes``, ``t_start``, ``t_end``,
  integer-coded ``video_id`` / ``resolution``, and the derived ``hour``),
  or both, each side built lazily from the other; it pickles as columns,
  which makes it the stored and shipped form of a simulated week;
* :class:`SessionIndex` — the gap-*independent* part of session building
  (one lexsort over (client, video, start, end) plus the group-wise
  running-max horizon), shared by every gap value of the Figure 5 sweep;
* small grouped-aggregation helpers (:func:`group_sum_int64`,
  :func:`histogram_from_sizes`) used by the per-hour / per-DC / per-video
  kernels.

The switch is ``REPRO_KERNELS=python|numpy`` (numpy is the default, with a
silent fallback to python when numpy is not importable).  Both backends
produce **identical** results — same session lists, same figure series,
byte-identical digests — so the backend never enters artifact-cache keys,
exactly like the execution backend (``REPRO_EXECUTOR``) before it.

Exactness notes, because parity is a hard requirement:

* Session horizons are computed by cumulative-max over *ranks* of ``t_end``
  (integers), not over offset-shifted floats, so the horizon handed to the
  ``t_start - horizon < gap`` comparison is the exact same double the
  Python loop sees.
* Byte totals are aggregated with int64 ``np.add.reduceat``, never float
  weights, so sums are exact at any scale.
* Kernel outputs are converted back to built-in ``int``/``float``/``str``
  at the boundary (``repr()`` of ``np.float64`` differs from ``float`` on
  numpy >= 2, which would corrupt digests).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import weakref
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.trace.records import FlowRecord

try:  # numpy is an optional dependency of the analysis layer
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Environment variable selecting the kernel backend.
KERNELS_ENV = "REPRO_KERNELS"

#: Valid backend names.
KERNEL_BACKENDS = ("python", "numpy")


def kernels_backend() -> str:
    """The active kernel backend (``"python"`` or ``"numpy"``).

    Reads :data:`KERNELS_ENV` on every call so tests and the CLI can switch
    backends mid-process.  ``numpy`` silently degrades to ``python`` when
    numpy cannot be imported.

    Raises:
        ValueError: For an unrecognised backend name.
    """
    value = os.environ.get(KERNELS_ENV, "numpy").strip().lower() or "numpy"
    if value not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown {KERNELS_ENV}={value!r}; expected one of {KERNEL_BACKENDS}"
        )
    if value == "numpy" and not HAVE_NUMPY:
        return "python"
    return value


def use_numpy() -> bool:
    """Whether the numpy kernels are active."""
    return kernels_backend() == "numpy"


class _Columns:
    """The materialised column arrays of a :class:`FlowTable`.

    Pickles as its stored arrays only (``hour`` is re-derived on load), so
    a shipped or cached table costs a few buffer copies, not one object
    graph per flow.
    """

    __slots__ = (
        "src_ip",
        "dst_ip",
        "num_bytes",
        "t_start",
        "t_end",
        "hour",
        "video_ids",
        "video_code",
        "resolutions",
        "resolution_code",
    )

    #: The arrays a pickle carries, in constructor order.
    _STORED = (
        "src_ip",
        "dst_ip",
        "num_bytes",
        "t_start",
        "t_end",
        "video_ids",
        "video_code",
        "resolutions",
        "resolution_code",
    )

    def __init__(self, records: Sequence[FlowRecord]):
        n = len(records)
        self.src_ip = np.fromiter((r.src_ip for r in records), np.int64, count=n)
        self.dst_ip = np.fromiter((r.dst_ip for r in records), np.int64, count=n)
        self.num_bytes = np.fromiter((r.num_bytes for r in records), np.int64, count=n)
        self.t_start = np.fromiter((r.t_start for r in records), np.float64, count=n)
        self.t_end = np.fromiter((r.t_end for r in records), np.float64, count=n)
        # int(t // 3600.0): the float is already floored, so astype's
        # truncation equals FlowRecord.hour exactly.
        self.hour = (self.t_start // 3600.0).astype(np.int64)
        if n:
            # np.unique sorts lexicographically, matching Python's string
            # order, so code order == sorted(video_id) order.
            self.video_ids, self.video_code = np.unique(
                np.asarray([r.video_id for r in records]), return_inverse=True
            )
            self.resolutions, self.resolution_code = np.unique(
                np.asarray([r.resolution for r in records]), return_inverse=True
            )
        else:
            self.video_ids = np.empty(0, dtype="U1")
            self.video_code = np.empty(0, dtype=np.int64)
            self.resolutions = np.empty(0, dtype="U1")
            self.resolution_code = np.empty(0, dtype=np.int64)
        self.video_code = self.video_code.astype(np.int64, copy=False)
        self.resolution_code = self.resolution_code.astype(np.int64, copy=False)

    @classmethod
    def from_arrays(cls, *arrays) -> "_Columns":
        """Columns from the :attr:`_STORED` arrays, in that order."""
        cols = cls.__new__(cls)
        for name, arr in zip(cls._STORED, arrays):
            setattr(cols, name, arr)
        cols.hour = (cols.t_start // 3600.0).astype(np.int64)
        return cols

    def __reduce__(self):
        return (_Columns.from_arrays, tuple(getattr(self, name) for name in self._STORED))

    def take(self, mask) -> "_Columns":
        """The rows where ``mask`` is true, as columns of their own.

        The string tables are compacted to the values the kept rows use,
        so the result equals a fresh build over the kept records.
        """
        cols = _Columns.__new__(_Columns)
        for name in ("src_ip", "dst_ip", "num_bytes", "t_start", "t_end", "hour"):
            setattr(cols, name, getattr(self, name)[mask])
        for table, code in (("video_ids", "video_code"), ("resolutions", "resolution_code")):
            used, kept = np.unique(getattr(self, code)[mask], return_inverse=True)
            setattr(cols, table, getattr(self, table)[used])
            setattr(cols, code, kept.astype(np.int64, copy=False))
        return cols


def records_from_columns(cols: _Columns, lo: int = 0, hi: Optional[int] = None) -> List[FlowRecord]:
    """Build :class:`FlowRecord` objects from column arrays.

    Every record goes through the validating constructor.  Every column
    round-trips exactly -- int64/float64 preserve the original Python
    values bit for bit and the unique string arrays return built-in
    ``str`` -- so the rebuilt records compare equal to (and digest
    identically to) the originals.
    """
    video_ids = cols.video_ids.tolist()
    resolutions = cols.resolutions.tolist()
    return list(
        itertools.starmap(
            FlowRecord,
            zip(
                cols.src_ip[lo:hi].tolist(),
                cols.dst_ip[lo:hi].tolist(),
                cols.num_bytes[lo:hi].tolist(),
                cols.t_start[lo:hi].tolist(),
                cols.t_end[lo:hi].tolist(),
                [video_ids[c] for c in cols.video_code[lo:hi].tolist()],
                [resolutions[c] for c in cols.resolution_code[lo:hi].tolist()],
            ),
        )
    )


class SessionIndex:
    """The gap-independent skeleton of session building.

    Section VI-A groups flows by (client, video) and breaks a group into
    sessions wherever ``t_start - horizon >= T``, with ``horizon`` the
    group-wide running max of ``t_end``.  Everything except the final
    comparison is independent of T, so one index serves the whole Figure 5
    sweep ``T in {1, 5, 10, 60, 300}``.

    Attributes:
        order: Indices sorting the table by (client, video, t_start, t_end),
            stable — the exact order the Python spec visits flows in.
        new_group: Boolean per sorted row: first row of a (client, video)
            group.
        t_start: ``t_start`` in sorted order.
        t_end: ``t_end`` in sorted order.
        horizon_prev: Per sorted row, the running max of ``t_end`` over the
            *earlier* rows of the same group (undefined on group heads,
            which always start a session).
    """

    __slots__ = ("order", "new_group", "t_start", "t_end", "horizon_prev")

    def __init__(self, cols: _Columns):
        n = len(cols.t_start)
        if n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.new_group = np.empty(0, dtype=bool)
            self.t_start = np.empty(0, dtype=np.float64)
            self.t_end = np.empty(0, dtype=np.float64)
            self.horizon_prev = np.empty(0, dtype=np.float64)
            return
        order = np.lexsort((cols.t_end, cols.t_start, cols.video_code, cols.src_ip))
        src = cols.src_ip[order]
        vid = cols.video_code[order]
        ts = cols.t_start[order]
        te = cols.t_end[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = (src[1:] != src[:-1]) | (vid[1:] != vid[:-1])
        # Exact group-wise running max of t_end: rank the values (ints),
        # cumulative-max the ranks with a per-group int64 offset, then map
        # back.  No float arithmetic touches the horizon, so it is
        # bit-identical to the Python loop's max() chain.
        grp = np.cumsum(new_group) - 1
        uniq_te, te_rank = np.unique(te, return_inverse=True)
        base = grp.astype(np.int64) * np.int64(len(uniq_te))
        cummax_rank = np.maximum.accumulate(te_rank.astype(np.int64) + base) - base
        horizon_prev = np.empty(n, dtype=np.float64)
        horizon_prev[0] = -np.inf
        horizon_prev[1:] = uniq_te[cummax_rank[:-1]]
        self.order = order
        self.new_group = new_group
        self.t_start = ts
        self.t_end = te
        self.horizon_prev = horizon_prev

    def session_starts(self, gap_s: float) -> "np.ndarray":
        """Boolean per sorted row: the row opens a new session at gap T."""
        starts = self.new_group.copy()
        cont = ~self.new_group
        starts[cont] = (self.t_start[cont] - self.horizon_prev[cont]) >= gap_s
        return starts

    def session_sizes(self, gap_s: float) -> "np.ndarray":
        """Flows per session at gap T, in session order."""
        starts = self.session_starts(gap_s)
        if not len(starts):
            return np.empty(0, dtype=np.int64)
        return np.bincount(np.cumsum(starts) - 1)


class FlowTable:
    """A flow-record sequence with a columnar form.

    A table starts from records (a flow log, a live simulation) or from
    columns (an unpickled artifact, a filtered parent, a shared-memory
    segment) and derives the other side lazily, the first time something
    asks: the numpy columns when a kernel reads them, the
    :class:`FlowRecord` objects -- through the validating constructor --
    when something iterates the table.  Either way a ``FlowTable`` is a
    ``Sequence[FlowRecord]``, so the pure-Python spec runs over it
    unchanged.  Pickling ships the columns and, once computed, the
    :meth:`content_digest`.

    Attributes:
        digest: The carried :meth:`content_digest`, ``None`` until it is
            computed (or loaded from where it was stored).
        on_digest: Called once with the digest when this table computes
            it (the artifact cache stores it next to the week); not
            pickled.
    """

    __slots__ = (
        "_records",
        "_cols",
        "_session_index",
        "_dst_unique",
        "_dst_code",
        "digest",
        "on_digest",
        "__weakref__",
    )

    def __init__(
        self,
        records: Union[Sequence[FlowRecord], Iterable[FlowRecord], None] = None,
        columns: Optional[_Columns] = None,
        digest: Optional[str] = None,
    ):
        if records is None and columns is None:
            raise TypeError("a FlowTable needs records or columns")
        if records is not None and not isinstance(records, list):
            records = list(records)
        self._records: Optional[List[FlowRecord]] = records
        self._cols: Optional[_Columns] = columns
        self._session_index: Optional[SessionIndex] = None
        self._dst_unique = None
        self._dst_code = None
        self.digest = digest
        self.on_digest: Optional[Callable[[str], None]] = None
        _register_table(self)

    def __reduce__(self):
        if not HAVE_NUMPY:  # pragma: no cover - CI image always has numpy
            return (FlowTable, (self._records, None, self.digest))
        return (FlowTable, (None, self.columns(), self.digest))

    def content_digest(self) -> str:
        """SHA-256 over the canonical flow-log lines of the records.

        Computed once and carried with the table, pickles included; a
        table built from other flows (a filter, a rebinding) starts
        without one.
        """
        if self.digest is None:
            from repro.trace.logio import format_record

            digest = hashlib.sha256()
            for record in self.records:
                digest.update(format_record(record).encode("ascii"))
                digest.update(b"\n")
            self.digest = digest.hexdigest()
            if self.on_digest is not None:
                self.on_digest(self.digest)
        return self.digest

    # ------------------------------------------------ sequence protocol

    @property
    def records(self) -> List[FlowRecord]:
        """The flow records, built from the columns on first use."""
        if self._records is None:
            self._records = self._materialise()
        return self._records

    def _materialise(self) -> List[FlowRecord]:
        return records_from_columns(self._cols)

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._cols.t_start)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowTable):
            return self is other or self.records == other.records
        if isinstance(other, (list, tuple)):
            return self.records == list(other)
        return NotImplemented

    __hash__ = object.__hash__

    # ------------------------------------------------------- columns

    def columns(self) -> _Columns:
        """The column arrays (built from the records on first use).

        Raises:
            RuntimeError: If numpy is unavailable.
        """
        if not HAVE_NUMPY:  # pragma: no cover - CI image always has numpy
            raise RuntimeError("numpy is not available; use the python kernels")
        if self._cols is None:
            self._cols = _Columns(self._records)
        return self._cols

    def session_index(self) -> SessionIndex:
        """The cached gap-independent session skeleton."""
        if self._session_index is None:
            self._session_index = SessionIndex(self.columns())
        return self._session_index

    def dst_codes(self):
        """``(unique_dst_ips, per-flow code)`` — server-identity coding."""
        if self._dst_unique is None:
            self._dst_unique, code = np.unique(
                self.columns().dst_ip, return_inverse=True
            )
            self._dst_code = code.astype(np.int64, copy=False)
        return self._dst_unique, self._dst_code

    def where_dst(self, keep_dst: Iterable[int]) -> "FlowTable":
        """A new table of the flows whose server address is in ``keep_dst``.

        Under the numpy kernels this is a boolean mask over this table's
        columns; kept records that already exist are shared, not rebuilt.
        """
        keep = set(keep_dst)
        if not use_numpy():
            return FlowTable([r for r in self.records if r.dst_ip in keep])
        cols = self.columns()
        mask = np.isin(cols.dst_ip, np.fromiter(keep, np.int64, count=len(keep)))
        records = None
        if self._records is not None:
            records = [self._records[i] for i in np.flatnonzero(mask).tolist()]
        return FlowTable(records, columns=cols.take(mask))

    # ---------------------------------------------------- memory accounting

    def nbytes(self) -> int:
        """Bytes of columnar memory this table has materialised so far.

        Counts only what actually exists — an un-materialised table
        reports 0, and shared-memory attached tables report the mapped
        column sizes — so ``repro cache stats`` shows resident columnar
        memory, not a hypothetical.  The record objects themselves are
        not counted (they are interpreter objects, not column storage).
        """
        total = 0
        cols = self._cols
        if cols is not None:
            for name in _Columns.__slots__:
                arr = getattr(cols, name, None)
                if arr is not None:
                    total += int(arr.nbytes)
        if self._dst_unique is not None:
            total += int(self._dst_unique.nbytes) + int(self._dst_code.nbytes)
        idx = self._session_index
        if idx is not None:
            for name in SessionIndex.__slots__:
                arr = getattr(idx, name, None)
                if arr is not None:
                    total += int(arr.nbytes)
        return total


#: Every live FlowTable in this process, for resident-memory accounting.
_TABLES: "weakref.WeakSet[FlowTable]" = weakref.WeakSet()


def _register_table(table: FlowTable) -> None:
    _TABLES.add(table)


def resident_columnar() -> Dict[str, int]:
    """Resident columnar memory across all live tables in this process.

    Returns:
        ``{"tables": live table count, "resident_bytes": sum of nbytes()}``.
        Backs the ``columnar:`` line of ``repro cache stats``.
    """
    tables = list(_TABLES)
    return {
        "tables": len(tables),
        "resident_bytes": sum(t.nbytes() for t in tables),
    }


def active_table(records: Union[Sequence[FlowRecord], FlowTable]) -> Optional[FlowTable]:
    """The :class:`FlowTable` to run numpy kernels over, or ``None``.

    Returns ``None`` when the python backend is active — callers then take
    their record-at-a-time path.  When the numpy backend is active, an
    existing table passes through (reusing its cached columns); a plain
    record sequence gets a throwaway table.
    """
    if not use_numpy():
        return None
    if isinstance(records, FlowTable):
        return records
    return FlowTable(records)


def as_records(records: Union[Sequence[FlowRecord], FlowTable]) -> Sequence[FlowRecord]:
    """The underlying record sequence (identity for plain sequences)."""
    if isinstance(records, FlowTable):
        return records.records
    return records


# ---------------------------------------------------------------- helpers


def group_sum_int64(codes, values, num_groups: int):
    """Exact int64 per-group sums (``bincount`` with integer weights).

    ``np.bincount(..., weights=...)`` accumulates in float64 and loses
    exactness past 2**53; this helper sorts by group and uses
    ``np.add.reduceat`` on int64 so byte totals stay exact at any scale.
    When a sum could pass the int64 range it adds Python ints instead
    (an object array), so it never wraps where the record loop would not.
    """
    out = np.zeros(num_groups, dtype=np.int64)
    if len(values) == 0:
        return out
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_values = values[order].astype(np.int64, copy=False)
    largest = max(int(sorted_values.max()), -int(sorted_values.min()))
    if largest * len(sorted_values) > np.iinfo(np.int64).max:
        sorted_values = sorted_values.astype(object)
        out = out.astype(object)
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    )
    out[sorted_codes[boundaries]] = np.add.reduceat(sorted_values, boundaries)
    return out


def histogram_from_sizes(sizes) -> Dict[str, float]:
    """The Figure 5/6 bucket histogram from an array of session sizes.

    Returns the same ``{"1"..."9", ">9"} -> fraction`` mapping (same key
    order, same built-in floats) as the record-at-a-time path.

    Raises:
        ValueError: With no sessions.
    """
    total = int(len(sizes))
    if total == 0:
        raise ValueError("no sessions")
    counts = np.bincount(np.minimum(sizes, 10), minlength=11)
    out = {str(i): int(counts[i]) / total for i in range(1, 10)}
    out[">9"] = int(counts[10]) / total
    return out
