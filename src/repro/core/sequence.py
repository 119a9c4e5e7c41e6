"""Sequence databases with scan accounting.

The paper's cost model is *number of passes over a disk-resident
sequence database*.  Every backend implements one scan contract,
:class:`CountedScanDatabase`, which counts every full pass, so mining
algorithms can be compared on the paper's own metric (Figure 14(b),
Figure 15(a)) without real disks.

* :class:`SequenceDatabase` keeps the sequences in memory (as numpy
  ``int32`` arrays) — convenient for tests and small experiments.
* :class:`FileSequenceDatabase` stores one encoded sequence per line in
  a text file and re-parses the file on every scan — a faithful
  simulation of disk residency where only one block of rows is in
  memory at a time.
* :class:`repro.io.PackedSequenceStore` and
  :class:`repro.io.SegmentedSequenceStore` (in :mod:`repro.io`) keep the
  symbols in memory-mapped ``int32`` buffers and deliver zero-copy row
  views — the disk-resident backends whose scan layer is fast enough
  that match arithmetic, not decoding, dominates a pass.

A backend supplies only its metadata and an uncounted block primitive;
the base class owns scanning, scan counting, I/O accounting and
sampling.  Scans come in two granularities.
:meth:`~CountedScanDatabase.scan` yields one ``(id, sequence)`` pair at
a time; :meth:`~CountedScanDatabase.scan_chunks` yields
:class:`SequenceChunk` blocks of up to ``chunk_rows`` rows so vectorized
consumers can amortise per-row overhead.  Both count exactly one pass
when first iterated.

Sampling follows Algorithm 4.1 (lines 12-16): a single sequential pass
selects each sequence ``i`` with probability ``(n - j) / (N - i)`` given
``j`` already chosen, which yields a uniform random sample of exactly
``n`` sequences — the classical sequential sampling scheme the paper
cites from Vitter.  :class:`SequentialSampler` is that selector; the
Phase-1 pass (:func:`repro.core.match.symbol_matches_and_sample`) feeds
it the same rows in the same order, so both draw the same sample.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from time import perf_counter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SamplingError, SequenceDatabaseError
from .alphabet import Alphabet

SequenceLike = Union[Sequence[int], np.ndarray]

#: Default number of rows per block yielded by ``scan_chunks``.  Matches
#: the vectorized engine's default chunk size so the two layers tile the
#: database identically.
DEFAULT_SCAN_CHUNK_ROWS = 256


class SequenceChunk:
    """One block of rows from a chunked database scan.

    ``rows`` are numpy ``int32`` arrays — zero-copy views into the
    backing buffer when the backend supports it (the packed store) and
    freshly parsed arrays otherwise.  ``ids`` aligns with ``rows``.
    """

    __slots__ = ("ids", "rows")

    def __init__(self, ids: Sequence[int], rows: Sequence[np.ndarray]):
        self.ids = ids
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        """Payload bytes delivered by this chunk (symbol data only)."""
        return int(sum(row.nbytes for row in self.rows))

    def __repr__(self) -> str:
        return f"SequenceChunk(rows={len(self.rows)}, nbytes={self.nbytes})"


def _check_chunk_rows(chunk_rows: int) -> None:
    if chunk_rows < 1:
        raise SequenceDatabaseError(
            f"chunk_rows must be >= 1, got {chunk_rows}"
        )


def _sampling_rng(
    rng: Optional[np.random.Generator], seed: Optional[int]
) -> np.random.Generator:
    """Resolve the sampling RNG from an explicit generator or a seed."""
    if rng is not None and seed is not None:
        raise SamplingError(
            "pass either rng or seed, not both: an explicit generator "
            "already fixes the random stream"
        )
    if seed is not None:
        return np.random.default_rng(seed)
    return rng or np.random.default_rng()


def as_sequence_array(sequence: SequenceLike) -> np.ndarray:
    """Coerce a symbol-index sequence to a 1-D ``int32`` numpy array."""
    array = np.asarray(sequence, dtype=np.int32)
    if array.ndim != 1:
        raise SequenceDatabaseError(
            f"a sequence must be one-dimensional, got shape {array.shape}"
        )
    if array.size == 0:
        raise SequenceDatabaseError("empty sequences are not allowed")
    if np.any(array < 0):
        raise SequenceDatabaseError(
            "sequences contain symbol indices, which must be >= 0"
        )
    return array


def require_integers(values: Iterable[object], what: str) -> None:
    """Reject a float or a bool among *values* (a row of symbols, or
    ids) by name: numpy would truncate ``1.5`` to 1 and ``True`` to 1
    silently.  Raises :class:`ValueError`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ):
            raise ValueError(
                f"{what} holds {value!r} ({type(value).__name__}); "
                "symbols and ids must be integers"
            )


class SequentialSampler:
    """Sequential uniform sampling of *n* of *total* rows (Algorithm 4.1,
    lines 12-16), fed one row at a time in scan order.

    While the sample is short, each offered row costs exactly one draw
    and is kept with probability ``(n - chosen) / (total - seen)``; once
    it is full no draw is made.  ``n >= total`` is clamped to the whole
    database, selected without consuming the random stream (no draw
    could fail).  ``n < 1`` is rejected.  Kept rows are copied, so the
    sample outlives any mapping the rows were views into.
    """

    def __init__(self, n: int, total: int, rng: np.random.Generator):
        if n < 1:
            raise SamplingError(
                f"cannot sample {n} sequences from a database of {total}"
            )
        self._n = min(n, total)
        self._total = total
        self._rng = rng
        self._seen = 0
        self.ids: List[int] = []
        self.rows: List[np.ndarray] = []

    @property
    def full(self) -> bool:
        """True once *n* rows are kept: later offers draw nothing."""
        return len(self.rows) == self._n

    def offer(self, sid: int, row: np.ndarray) -> None:
        """Consider the next row in scan order."""
        needed = self._n - len(self.rows)
        if needed and (
            self._n == self._total
            or self._rng.random() < needed / (self._total - self._seen)
        ):
            self.ids.append(sid)
            self.rows.append(np.array(row, copy=True))
        self._seen += 1

    def database(self) -> "SequenceDatabase":
        """The kept rows as an in-memory database, in scan order."""
        return SequenceDatabase(self.rows, ids=self.ids)


class CountedScanDatabase(ABC):
    """The scan contract every sequence backend honours.

    A backend supplies its metadata (``__len__``, :attr:`ids`,
    :meth:`sequence`, :meth:`total_symbols`, :meth:`max_symbol`) and
    :meth:`_blocks`, an uncounted stream of row blocks.  This class
    turns that into counted passes: every :meth:`scan`,
    :meth:`scan_chunks` and :meth:`sample` adds one to
    :attr:`scan_count`.

    Backends that read storage also account their traffic in the
    lifetime attributes :attr:`io_bytes_read` (payload bytes delivered),
    :attr:`io_chunks` (blocks delivered by :meth:`scan_chunks`) and
    :attr:`io_chunk_seconds` (time spent inside the scan layer,
    excluding consumer time); the obs layer snapshots them into per-run
    reports.  The in-memory database reads no storage and leaves them
    at zero.

    After :meth:`close`, every scan, sample and row access raises
    :class:`SequenceDatabaseError`; catalog metadata stays readable.
    """

    #: False for a backend whose passes read no storage.
    _reads_storage = True
    _closed = False
    #: Backing file or directory; ``None`` for an in-memory backend.
    path: Optional[str] = None

    def __init__(self) -> None:
        self._scan_count = 0
        self.io_bytes_read = 0
        self.io_chunks = 0
        self.io_chunk_seconds = 0.0

    # -- what a backend supplies ------------------------------------------------

    @abstractmethod
    def _blocks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[SequenceChunk, int]]:
        """Yield ``(chunk, payload_bytes)`` over all rows in scan order,
        at most ``chunk_rows`` rows per chunk.  Uncounted."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of sequences (catalog metadata, not a scan)."""

    @property
    @abstractmethod
    def ids(self) -> Tuple[int, ...]:
        """Sequence ids in scan order."""

    @abstractmethod
    def sequence(self, sequence_id: int) -> np.ndarray:
        """Fetch one sequence by id (not counted as a scan)."""

    @abstractmethod
    def total_symbols(self) -> int:
        """Total number of symbol occurrences across all sequences."""

    @abstractmethod
    def max_symbol(self) -> int:
        """Largest symbol index present (useful to size matrices)."""

    # -- scan accounting --------------------------------------------------------

    @property
    def scan_count(self) -> int:
        """Number of full passes made over the database so far."""
        return self._scan_count

    def reset_scan_count(self) -> None:
        """Zero the pass counter (e.g. between benchmark repetitions)."""
        self._scan_count = 0

    def _begin_pass(self) -> None:
        self._require_open()
        self._scan_count += 1

    def scan(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(sequence_id, sequence)`` pairs; counts as one pass."""
        self._begin_pass()
        charge = self._reads_storage
        for chunk, _nbytes in self._blocks(DEFAULT_SCAN_CHUNK_ROWS):
            for sid, row in zip(chunk.ids, chunk.rows):
                if charge:
                    self.io_bytes_read += row.nbytes
                yield sid, row

    def scan_chunks(
        self, chunk_rows: int = DEFAULT_SCAN_CHUNK_ROWS
    ) -> Iterator[SequenceChunk]:
        """Yield :class:`SequenceChunk` blocks of rows; counts as one pass.

        The concatenation of ``chunk.rows`` across all chunks equals the
        :meth:`scan` row stream, in order.  Time spent while the
        consumer holds a yielded chunk is *not* charged to
        :attr:`io_chunk_seconds`.
        """
        _check_chunk_rows(chunk_rows)
        self._begin_pass()
        if not self._reads_storage:
            for chunk, _nbytes in self._blocks(chunk_rows):
                yield chunk
            return
        started = perf_counter()
        for chunk, nbytes in self._blocks(chunk_rows):
            self.io_chunks += 1
            self.io_bytes_read += nbytes
            self.io_chunk_seconds += perf_counter() - started
            yield chunk
            started = perf_counter()

    # -- derived --------------------------------------------------------------

    def average_length(self) -> float:
        """The paper's ``l̄_S``: mean sequence length."""
        return self.total_symbols() / len(self)

    def sample(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "SequenceDatabase":
        """Draw a uniform sample of *n* sequences in one sequential pass.

        Implements Algorithm 4.1 lines 12-16 through
        :class:`SequentialSampler`; the pass is counted via
        :attr:`scan_count` because the paper folds sampling into the
        Phase-1 scan.  The sample is an in-memory database of copied
        rows, as the sample is what Phase 2 mines, repeatedly.

        ``n >= len(self)`` is clamped to the database size without
        consuming the random stream; ``n < 1`` is rejected.  An explicit
        *seed* makes the draw deterministic: every backend scans the
        same rows in the same order, so the same seed selects the same
        sequence ids from the same content on any backend.  *rng* and
        *seed* are mutually exclusive.
        """
        sampler = SequentialSampler(n, len(self), _sampling_rng(rng, seed))
        for sid, row in self.scan():
            if sampler.full:
                break
            sampler.offer(sid, row)
        return sampler.database()

    def to_database(self) -> "SequenceDatabase":
        """Materialise the database in memory (counts one pass): the
        sample of every row, which makes no random draw."""
        return self.sample(len(self))

    def save_text(self, path: Union[str, os.PathLike]) -> None:
        """Stream the database into the one-sequence-per-line text
        format (counts one pass)."""
        self._require_open()
        _write_text(path, self.scan())

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Release the backing storage.  Idempotent."""
        if not self._closed:
            self._closed = True
            self._release()

    def _release(self) -> None:
        """Drop what :meth:`close` releases; nothing by default."""

    def __enter__(self):
        self._require_open()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise SequenceDatabaseError(
                f"{type(self).__name__} {self.path or '<memory>'} is closed"
            )


#: The scan contract, under the name the miners annotate with.
AnySequenceDatabase = CountedScanDatabase


class SequenceDatabase(CountedScanDatabase):
    """An in-memory database of symbol-index sequences.

    Parameters
    ----------
    sequences:
        Iterable of integer sequences (lists, tuples or numpy arrays).
    ids:
        Optional sequence ids; defaults to ``0 .. N-1``.

    Every pass increments :attr:`scan_count`; no I/O is charged.
    """

    _reads_storage = False

    def __init__(
        self,
        sequences: Iterable[SequenceLike],
        ids: Optional[Sequence[int]] = None,
    ):
        super().__init__()
        self._sequences: List[np.ndarray] = [
            as_sequence_array(s) for s in sequences
        ]
        if not self._sequences:
            raise SequenceDatabaseError("a database needs at least one sequence")
        if ids is None:
            self._ids = list(range(len(self._sequences)))
        else:
            self._ids = [int(i) for i in ids]
            if len(self._ids) != len(self._sequences):
                raise SequenceDatabaseError(
                    f"{len(self._ids)} ids for {len(self._sequences)} sequences"
                )
            if len(set(self._ids)) != len(self._ids):
                raise SequenceDatabaseError("sequence ids must be unique")
        # Catalog metadata, computed once: recomputing total_symbols /
        # max_symbol per call was O(N) and showed up in tight loops.
        self._total_symbols = int(sum(len(s) for s in self._sequences))
        self._max_symbol = int(max(int(s.max()) for s in self._sequences))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_strings(
        cls, rows: Iterable[Iterable[str]], alphabet: Alphabet
    ) -> "SequenceDatabase":
        """Encode rows of symbol names through *alphabet*.

        >>> ab = Alphabet.numbered(3)
        >>> db = SequenceDatabase.from_strings([["d1", "d2"], ["d3"]], ab)
        >>> len(db)
        2
        """
        return cls(alphabet.encode(row) for row in rows)

    # -- the scan contract ----------------------------------------------------

    def _blocks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[SequenceChunk, int]]:
        for start in range(0, len(self._sequences), chunk_rows):
            stop = start + chunk_rows
            yield SequenceChunk(
                self._ids[start:stop], self._sequences[start:stop]
            ), 0

    def __len__(self) -> int:
        return len(self._sequences)

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(self._ids)

    def sequence(self, sequence_id: int) -> np.ndarray:
        """Fetch one sequence by id (not counted as a scan)."""
        self._require_open()
        try:
            index = self._ids.index(sequence_id)
        except ValueError:
            raise SequenceDatabaseError(
                f"no sequence with id {sequence_id}"
            ) from None
        return self._sequences[index]

    def total_symbols(self) -> int:
        return self._total_symbols

    def max_symbol(self) -> int:
        return self._max_symbol

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the database in the one-sequence-per-line text format
        (not counted as a scan)."""
        _write_text(path, zip(self._ids, self._sequences))

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "SequenceDatabase":
        """Read a database written by :meth:`save` fully into memory."""
        ids: List[int] = []
        rows: List[np.ndarray] = []
        for sid, seq in _read_sequence_file(path):
            ids.append(sid)
            rows.append(seq)
        if not rows:
            raise SequenceDatabaseError(f"{path} contains no sequences")
        return cls(rows, ids=ids)

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(N={len(self)}, "
            f"avg_len={self.average_length():.1f}, scans={self._scan_count})"
        )


class FileSequenceDatabase(CountedScanDatabase):
    """A disk-resident database: one encoded sequence per line of a file.

    The file format matches :meth:`SequenceDatabase.save`:
    ``<id> TAB <space-separated symbol indices>``.  Every scan re-parses
    the file from the start; only the current block of rows is held in
    memory, simulating the paper's disk-resident assumption.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        super().__init__()
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            raise SequenceDatabaseError(f"no such sequence file: {self.path}")
        # One up-front pass (not counted) to learn N and validate format,
        # mirroring how a real system would hold catalog metadata.  The
        # same pass caches total/max symbol so metadata stays O(1).
        length = 0
        total = 0
        max_symbol = -1
        ids: List[int] = []
        for sid, seq in _read_sequence_file(self.path):
            length += 1
            total += seq.size
            ids.append(sid)
            top = int(seq.max())
            if top > max_symbol:
                max_symbol = top
        self._length = length
        if self._length == 0:
            raise SequenceDatabaseError(f"{self.path} contains no sequences")
        self._ids = ids
        self._total_symbols = total
        self._max_symbol = max_symbol

    def _blocks(
        self, chunk_rows: int
    ) -> Iterator[Tuple[SequenceChunk, int]]:
        ids: List[int] = []
        rows: List[np.ndarray] = []
        for sid, seq in _read_sequence_file(self.path):
            ids.append(sid)
            rows.append(seq)
            if len(rows) >= chunk_rows:
                chunk = SequenceChunk(ids, rows)
                yield chunk, chunk.nbytes
                ids, rows = [], []
        if rows:
            chunk = SequenceChunk(ids, rows)
            yield chunk, chunk.nbytes

    def __len__(self) -> int:
        return self._length

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(self._ids)

    def sequence(self, sequence_id: int) -> np.ndarray:
        """Fetch one sequence by id: a read of the file up to its line
        (not counted as a scan)."""
        self._require_open()
        for sid, seq in _read_sequence_file(self.path):
            if sid == sequence_id:
                return seq
        raise SequenceDatabaseError(f"no sequence with id {sequence_id}")

    def total_symbols(self) -> int:
        """Total number of symbol occurrences (cached at construction)."""
        return self._total_symbols

    def max_symbol(self) -> int:
        """Largest symbol index present (cached at construction)."""
        return self._max_symbol

    def __repr__(self) -> str:
        return (
            f"FileSequenceDatabase({self.path!r}, N={self._length}, "
            f"scans={self._scan_count})"
        )


def _write_text(
    path: Union[str, os.PathLike], rows: Iterable[Tuple[int, np.ndarray]]
) -> None:
    """The one writer of the ``<id> TAB <symbols>`` text format."""
    with open(path, "w", encoding="ascii") as handle:
        for sid, seq in rows:
            symbols = " ".join(map(str, seq.tolist()))
            handle.write(f"{sid}\t{symbols}\n")


def _read_sequence_file(
    path: Union[str, os.PathLike]
) -> Iterator[Tuple[int, np.ndarray]]:
    with open(path, "r", encoding="ascii") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                sid_text, _, body = line.partition("\t")
                sid = int(sid_text)
                seq = np.array(body.split(), dtype=np.int32)
            except ValueError as exc:
                raise SequenceDatabaseError(
                    f"{path}:{line_no}: malformed sequence line"
                ) from exc
            if seq.size == 0:
                raise SequenceDatabaseError(
                    f"{path}:{line_no}: empty sequence"
                )
            # A '-' is the only way a parsed symbol can be negative, so
            # the string test keeps the common case free of array work.
            if "-" in body and int(seq.min()) < 0:
                raise SequenceDatabaseError(
                    f"{path}:{line_no}: negative symbol index "
                    f"{int(seq.min())} (symbol indices must be >= 0)"
                )
            yield sid, seq
