"""The compiled walk kernel: ``_walk.c`` built on first use, called via ctypes.

``MemoryHierarchy.access_batch`` hands an LRU/FIFO hierarchy to this
module on its first call (see the promotion rule there). Whatever state
the Python walk built so far moves into int64 arrays owned here, and
from then on every access — batched or single — runs through the C
transliteration of ``MemoryHierarchy.access``. The hierarchy's
``cores``, ``l3`` and ``directory`` are swapped for the read-only views
below, so counters, ``export_metrics`` and ``miss_summary`` read the
same numbers the scalar walk would have produced.

Only the standard library is needed. A latency column comes back as an
``array('d')``, or, when numpy is installed, as a zero-copy float64
ndarray over it, so the engine can take its sums order-free.

The kernel is compiled with the system C compiler (``$CC``, default
``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/repro/``, keyed by a hash of
the source, the compiler and the flags; the write is atomic, so
concurrent processes may race to build it. Without a compiler, or when
the build fails, :func:`load` records why and the hierarchy keeps the
pure-Python walk.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
import weakref
from array import array
from pathlib import Path
from typing import Dict, Optional, Tuple

from .coherence import CoherenceStats

SOURCE = Path(__file__).with_name("_walk.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

#: Core masks in the C directory and prefetched set are 64-bit words.
MAX_CORES = 64

_P = ctypes.c_void_p
_I64 = ctypes.c_int64

#: (library, path) once built, or (None, reason); None until first load.
_loaded: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro"


def _build() -> Tuple[Optional[ctypes.CDLL], str]:
    try:
        cc = shlex.split(os.environ.get("CC") or "cc") or ["cc"]
        source = SOURCE.read_bytes()
        key = hashlib.sha256(
            source + "\0".join(cc + list(CFLAGS)).encode()
        ).hexdigest()[:16]
        path = _cache_dir() / f"walk-{key}.so"
    except (OSError, RuntimeError, ValueError) as exc:
        # An unparsable $CC, an unreadable source, or no home directory.
        return None, f"cannot prepare the build: {exc}"
    if not path.exists():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
            os.close(fd)
            try:
                proc = subprocess.run(
                    [*cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                    capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    detail = proc.stderr.strip().splitlines()
                    return None, (
                        f"{' '.join(cc)} exited with status {proc.returncode}"
                        + (f": {detail[0]}" if detail else "")
                    )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            return None, f"cannot build with {' '.join(cc)}: {exc}"
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"cannot load {path}: {exc}"
    lib.walk_new.argtypes = [_P] * 6
    lib.walk_new.restype = _P
    lib.walk_free.argtypes = [_P]
    lib.walk_free.restype = None
    lib.walk.argtypes = [_P, _I64, _P, _P, _P, _P, _P]
    lib.walk.restype = ctypes.c_int
    lib.walk_one.argtypes = [_P, _I64, _I64, _I64, ctypes.c_int]
    lib.walk_one.restype = ctypes.c_double
    lib.walk_log_len.argtypes = [_P]
    lib.walk_log_len.restype = _I64
    lib.walk_log.argtypes = [_P]
    lib.walk_log.restype = ctypes.POINTER(_I64)
    for name, args in (("walk_load_directory", [_P, _I64, _P]),
                       ("walk_load_prefetched", [_P, _I64, _P]),
                       ("walk_load_streams", [_P, _I64, _I64, _P])):
        getattr(lib, name).argtypes = args
        getattr(lib, name).restype = ctypes.c_int
    return lib, str(path)


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built on first use; None when unavailable."""
    global _loaded
    if _loaded is None:
        _loaded = _build()
    return _loaded[0]


def status() -> Dict[str, str]:
    """``{"status": "compiled", "detail": path}`` or ``{"status":
    "unavailable", "detail": reason}`` (builds the kernel if needed)."""
    load()
    lib, detail = _loaded
    return {"status": "compiled" if lib is not None else "unavailable",
            "detail": detail}


def describe() -> str:
    """One line saying which walk batched runs take, and why;
    ``repro stats`` prints it as a comment at the top."""
    state = status()
    if state["status"] == "compiled":
        return f"walk kernel: compiled ({state['detail']})"
    return (f"walk kernel: unavailable ({state['detail']}) — Python batch "
            f"walk")


def attach(hierarchy) -> Optional["KernelWalk"]:
    """Move an LRU/FIFO hierarchy, with the state its Python walk has
    built so far, onto the kernel; or return None (random replacement,
    too many cores, a line or page number outside int64, or no kernel)."""
    if (
        hierarchy.config.replacement == "random"
        or hierarchy.num_cores > MAX_CORES
    ):
        return None
    lib = load()
    if lib is None:
        return None
    try:
        return KernelWalk(lib, hierarchy)
    except OverflowError:
        return None


def _int64s(values) -> array:
    """``values`` as an int64 column; an ``array('q')`` is used as is."""
    if type(values) is array and values.typecode == "q":
        return values
    return array("q", values)


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


class KernelWalk:
    """One hierarchy's cache state (int64 arrays) and its C handle."""

    def __init__(self, lib: ctypes.CDLL, hierarchy) -> None:
        config = hierarchy.config
        cores = hierarchy.cores
        tlb = config.tlb
        rows = []
        sizes = [0, 0, 0]  # tags, fill, counters

        def level(num_sets: int, ways: int) -> None:
            rows.append((sizes[0], sizes[1], sizes[2], num_sets, ways))
            sizes[0] += num_sets * ways
            sizes[1] += num_sets
            sizes[2] += 3

        # Core c's L1, L2, TLB1, TLB2 are rows 4c..4c+3; the L3 is last.
        for core in cores:
            level(core.l1.num_sets, core.l1.ways)
            level(core.l2.num_sets, core.l2.ways)
            if core.dtlb is not None:
                level(core.dtlb.l1.num_sets, core.dtlb.l1.ways)
                level(core.dtlb.l2.num_sets, core.dtlb.l2.ways)
            else:  # placeholders keep the four-rows-per-core layout
                level(1, 1)
                level(1, 1)
        level(hierarchy.l3.num_sets, hierarchy.l3.ways)
        pf_off = sizes[2]
        glob_off = pf_off + 2 * len(cores)
        prefetcher = cores[0].prefetcher
        directory = hierarchy.directory
        geom = array("q", [
            len(cores), hierarchy._line_bits,
            cores[0].dtlb._page_bits if tlb is not None else 0,
            directory is not None, tlb is not None, prefetcher.degree,
            prefetcher.threshold, prefetcher.table_size,
            config.replacement == "lru", pf_off, glob_off,
        ])
        lat = array("d", [
            config.l1.latency, config.l2.latency, config.l3.latency,
            config.dram_latency,
            directory.c2c_latency if directory is not None else 0.0,
            directory.upgrade_latency if directory is not None else 0.0,
            tlb.l2_latency if tlb is not None else 0.0,
            tlb.walk_latency if tlb is not None else 0.0,
        ])
        # The C side keeps pointers into these three: never resized.
        self.tags = array("q", (0,)) * sizes[0]
        self.fill = array("q", (0,)) * sizes[1]
        self.counters = array("q", (0,)) * (glob_off + 5)
        self.rows = rows
        levels = array("q", (v for row in rows for v in row))
        handle = lib.walk_new(
            _address(geom), _address(lat), _address(levels),
            _address(self.tags), _address(self.fill),
            _address(self.counters),
        )
        if not handle:
            raise MemoryError("cache walk: cannot allocate kernel state")
        self._handle = handle
        self._lib = lib
        self._walk = lib.walk
        self._walk_one = lib.walk_one
        self._core_ids = range(len(cores))
        self._glob = glob_off
        weakref.finalize(self, lib.walk_free, handle)
        self._line_invalidations: Dict[int, int] = {}
        self._folded = 0
        try:  # numpy only hands the latency column out as an ndarray
            from numpy import frombuffer
        except ImportError:
            frombuffer = None
        self._frombuffer = frombuffer
        self._import_state(hierarchy, pf_off)

        self._tlb = tlb is not None
        self._pf_off = pf_off
        self._directory = directory

    def views(self):
        """``(cores, l3, directory)`` for the hierarchy, read through this
        walk's arrays.  The walk keeps no reference to them: a cycle
        through it would hold its arrays (megabytes on the 4-core
        machine) until the cyclic GC next ran."""
        cores = [_CoreView(self, c, self._tlb, 4 * c, self._pf_off + 2 * c)
                 for c in self._core_ids]
        directory = (_DirectoryView(self, self._directory)
                     if self._directory is not None else None)
        return cores, _LevelView(self, len(self.rows) - 1), directory

    def _import_state(self, hierarchy, pf_off: int) -> None:
        """Copy the Python walk's state (all empty for a fresh hierarchy)
        into the arrays and C tables; OverflowError if a line or page
        number does not fit int64."""
        lib, handle, counters = self._lib, self._handle, self.counters
        for c, core in enumerate(hierarchy.cores):
            self._import_level(4 * c, core.l1)
            self._import_level(4 * c + 1, core.l2)
            if core.dtlb is not None:
                self._import_level(4 * c + 2, core.dtlb.l1)
                self._import_level(4 * c + 3, core.dtlb.l2)
            counters[pf_off + 2 * c] = core.prefetcher.issued
            counters[pf_off + 2 * c + 1] = core.prefetch_useful
            streams = _int64s(
                v for item in core.prefetcher._table.items() for v in item
            )
            if lib.walk_load_streams(handle, c, len(streams) // 2,
                                     _address(streams)):
                raise MemoryError("cache walk: cannot import stream table")
        self._import_level(len(self.rows) - 1, hierarchy.l3)
        counters[self._glob] = hierarchy._dram_accesses

        masks: Dict[int, int] = {}
        for c, core in enumerate(hierarchy.cores):
            for line in core.prefetched:
                masks[line] = masks.get(line, 0) | 1 << c
        rows = _int64s(v for item in masks.items() for v in item)
        if lib.walk_load_prefetched(handle, len(masks), _address(rows)):
            raise MemoryError("cache walk: cannot import prefetched set")

        directory = hierarchy.directory
        if directory is None:
            return
        state_bit = {"M": 0, "E": 1, "S": 2}
        rows = array("q")
        for line, holders in directory._lines.items():
            row = [line, 0, 0, 0]
            for core_id, state in holders.items():
                row[1 + state_bit[state]] |= 1 << core_id
            rows.extend(row)
        if lib.walk_load_directory(handle, len(rows) // 4, _address(rows)):
            raise MemoryError("cache walk: cannot import directory")
        stats = directory.stats
        counters[self._glob + 1:self._glob + 5] = array("q", [
            stats.invalidations, stats.writebacks, stats.cache_to_cache,
            stats.upgrades,
        ])
        self._line_invalidations = dict(stats.line_invalidations)

    def _import_level(self, row: int, level) -> None:
        """Copy one cache or TLB level's sets (recency order) and counters."""
        tag_off, fill_off, ctr_off, num_sets, ways = self.rows[row]
        tags, fill = self.tags, self.fill
        for s, resident in enumerate(level._sets):
            if resident:
                base = tag_off + s * ways
                tags[base:base + len(resident)] = _int64s(resident)
                fill[fill_off + s] = len(resident)
        self.counters[ctr_off:ctr_off + 3] = array("q", [
            level.hits, level.misses, getattr(level, "evictions", 0),
        ])

    # -- walking -------------------------------------------------------------

    def walk(self, addresses, sizes, is_write=None, thread=None):
        """Latency column of a column of accesses: ``array('d')``, or a
        float64 ndarray over it when numpy is installed."""
        n = len(addresses)
        out = array("d", (0.0,)) * n
        address = _int64s(addresses)
        size = _int64s(sizes)
        write = None if is_write is None else _int64s(is_write)
        threads = None if thread is None else _int64s(thread)
        if self._walk(
            self._handle, n, _address(address), _address(size),
            None if write is None else _address(write),
            None if threads is None else _address(threads),
            _address(out),
        ):
            raise MemoryError("cache walk: kernel tables cannot grow")
        if self._frombuffer is not None:
            return self._frombuffer(out)
        return out

    def access(self, core_id: int, address: int, size: int,
               is_write: bool) -> float:
        """One access, exactly ``MemoryHierarchy.access``."""
        core = self._core_ids[core_id]  # IndexError like cores[core_id]
        latency = self._walk_one(self._handle, core, address, size,
                                 1 if is_write else 0)
        if latency != latency:
            raise MemoryError("cache walk: kernel tables cannot grow")
        return latency

    # -- counters --------------------------------------------------------------

    def counter(self, index: int) -> int:
        return self.counters[index]

    @property
    def dram_accesses(self) -> int:
        return self.counter(self._glob)

    def line_invalidations(self) -> Dict[int, int]:
        """``{line: count}`` in first-invalidation order, folded from the
        kernel's ordered log."""
        total = self._lib.walk_log_len(self._handle)
        if total > self._folded:
            counts = self._line_invalidations
            log = self._lib.walk_log(self._handle)
            for line in log[self._folded:total]:
                counts[line] = counts.get(line, 0) + 1
            self._folded = total
        return self._line_invalidations


class _LevelView:
    """Read-only counters and residency of one kernel-backed level."""

    def __init__(self, walk: KernelWalk, row: int) -> None:
        self._tag_off, self._fill_off, self._ctr, num_sets, self._ways = (
            walk.rows[row]
        )
        self._mask = num_sets - 1
        self._num_sets = num_sets
        self._walk = walk

    @property
    def hits(self) -> int:
        return self._walk.counters[self._ctr]

    @property
    def misses(self) -> int:
        return self._walk.counters[self._ctr + 1]

    @property
    def evictions(self) -> int:
        return self._walk.counters[self._ctr + 2]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def contains(self, line: int) -> bool:
        s = line & self._mask
        base = self._tag_off + s * self._ways
        return line in self._walk.tags[
            base:base + self._walk.fill[self._fill_off + s]
        ]

    def resident_lines(self) -> int:
        return sum(self._walk.fill[
            self._fill_off:self._fill_off + self._num_sets
        ])


class _TLBView:
    """``DataTLB`` counters of a kernel-backed core."""

    def __init__(self, walk: KernelWalk, row: int) -> None:
        self._l1 = _LevelView(walk, row)
        self._l2 = _LevelView(walk, row + 1)

    @property
    def l1_misses(self) -> int:
        return self._l1.misses

    @property
    def walks(self) -> int:
        return self._l2.misses


class _PrefetcherView:
    """``StreamPrefetcher.issued`` of a kernel-backed core."""

    def __init__(self, walk: KernelWalk, slot: int) -> None:
        self._walk = walk
        self._slot = slot

    @property
    def issued(self) -> int:
        return self._walk.counter(self._slot)


class _CoreView:
    """A kernel-backed core: the ``_Core`` attributes readers use."""

    def __init__(self, walk: KernelWalk, core_id: int, tlb: bool, row: int,
                 pf_slot: int) -> None:
        self.id = core_id
        self.l1 = _LevelView(walk, row)
        self.l2 = _LevelView(walk, row + 1)
        self.dtlb = _TLBView(walk, row + 2) if tlb else None
        self.prefetcher = _PrefetcherView(walk, pf_slot)
        self._walk = walk
        self._useful = pf_slot + 1

    @property
    def prefetch_useful(self) -> int:
        return self._walk.counter(self._useful)


class _DirectoryView:
    """``MESIDirectory`` latencies and statistics of a kernel machine."""

    def __init__(self, walk: KernelWalk, source) -> None:
        self.c2c_latency = source.c2c_latency
        self.upgrade_latency = source.upgrade_latency
        self._walk = walk

    @property
    def stats(self) -> CoherenceStats:
        walk, base = self._walk, self._walk._glob
        return CoherenceStats(
            invalidations=walk.counter(base + 1),
            writebacks=walk.counter(base + 2),
            cache_to_cache=walk.counter(base + 3),
            upgrades=walk.counter(base + 4),
            line_invalidations=walk.line_invalidations(),
        )
