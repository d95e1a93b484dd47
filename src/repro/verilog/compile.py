"""One-call compiler frontend — the Icarus Verilog substitute.

``compile_source`` runs lex -> parse -> elaborate and returns a
:class:`CompileResult` carrying the pass/fail verdict, diagnostics, the AST
and the elaborated design.  The datagen pipeline treats ``result.ok`` like
the exit status of ``iverilog`` and ``result.failure_summary()`` like its
stderr.

Compilation is pure, so results are memoized in a process-local
:class:`CompileCache` keyed by a content hash of the source text: the same
golden source used to be recompiled by the corpus generator, Stage 1, the
SVA insertion path, the bug-mutant syntax check and the semantic
re-verification in eval.  Cached :class:`CompileResult` objects are shared
— treat them as immutable.  Hit/miss counters are exported through
:mod:`repro.engine.metrics` so worker-pool runs can aggregate them into
``DatasetBundle.stats``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.engine import metrics
from repro.store.base import NS_COMPILE
from repro.store.disk import DiskStore
from repro.verilog import ast
from repro.verilog.elaborator import Design, elaborate
from repro.verilog.errors import Diagnostic, VerilogError
from repro.verilog.parser import parse_source


class CompileResult:
    """Outcome of compiling one source string.

    ``content_key`` is the SHA-256 content hash of the source — the same
    key the :class:`CompileCache` files the result under.  Downstream
    caches (notably the compiled-simulation program cache in
    :mod:`repro.sim.compiled`, which keys on the shared ``design``
    instance this result carries) use it to report which content a cached
    artifact belongs to.  Class-level default keeps results unpickled
    from older disk stores working.
    """

    content_key: Optional[str] = None

    def __init__(self, source_text: str):
        self.source_text = source_text
        self.ok = False
        self.source: Optional[ast.Source] = None
        self.design: Optional[Design] = None
        self.diagnostics: List[Diagnostic] = []
        self.content_key = CompileCache.key(source_text)

    @property
    def module(self) -> Optional[ast.Module]:
        if self.source and self.source.modules:
            return self.source.modules[0]
        return None

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error()]

    def failure_summary(self) -> str:
        """Compiler-style multi-line error report (empty when ok)."""
        return "\n".join(repr(d) for d in self.errors())

    def __repr__(self) -> str:  # pragma: no cover
        status = "ok" if self.ok else f"{len(self.errors())} error(s)"
        return f"CompileResult({status})"


class CompileCache:
    """Content-hash LRU memoization of :func:`compile_source`.

    Thread-safe; failures are cached too (a source that does not compile
    never will).  Counters are monotonic so deltas between snapshots are
    meaningful.

    An optional ``store`` (any :class:`repro.store.ArtifactStore`) is the
    persistent backing tier: a memory miss consults it before compiling,
    and every fresh compile is written through, so compile artifacts
    survive across runs and are shared by process-pool workers pointed at
    the same store directory.  ``store_hits`` counts refills from it; the
    invariant ``hits + store_hits + misses == lookups`` holds, and when a
    store is attached its own hit/miss deltas equal ``store_hits`` plus
    ``misses`` (every memory miss consults the store exactly once).
    """

    def __init__(self, max_entries: int = 4096, store=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0
        self._entries: "OrderedDict[str, CompileResult]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(source_text: str) -> str:
        return hashlib.sha256(source_text.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

    def _insert_locked(self, key: str, result: CompileResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compile(self, source_text: str) -> CompileResult:
        key = self.key(source_text)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
        if self.store is not None:
            stored = self.store.get(NS_COMPILE, key)
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                    self._insert_locked(key, stored)
                return stored
        with self._lock:
            self.misses += 1
        result = _compile_uncached(source_text)
        with self._lock:
            self._insert_locked(key, result)
        if self.store is not None:
            self.store.put(NS_COMPILE, key, result)
        return result

    def clear(self) -> None:
        """Drop the in-memory tier (the backing store keeps its entries)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "store_hits": self.store_hits}

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without compiling (either tier)."""
        total = self.hits + self.store_hits + self.misses
        return (self.hits + self.store_hits) / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CompileCache({len(self._entries)}/{self.max_entries} "
                f"entries, {self.hits} hits, {self.misses} misses)")


_DEFAULT_CACHE = CompileCache()
_CACHE_ENABLED = True
_STORE_PATH = ""  # "" = no persistent tier
_STORE_MAX_BYTES: Optional[int] = None


def default_compile_cache() -> CompileCache:
    return _DEFAULT_CACHE


def configure_compile_cache(enabled: Optional[bool] = None,
                            max_entries: Optional[int] = None,
                            store_path: Optional[str] = None,
                            store_max_bytes: Optional[int] = None):
    """Reconfigure the process-wide cache; returns the previous settings.

    Also used as a worker-pool initializer so subprocesses inherit the
    pipeline's cache knobs — which is why every argument is a plain
    picklable value.  ``store_path`` attaches a :class:`DiskStore` at
    that directory as the cache's persistent tier (each process opens
    its own handle; atomic blob writes make sharing safe); pass ``""``
    to detach, ``None`` to leave the store settings unchanged.
    ``store_max_bytes`` follows the same shape: ``None`` leaves the
    budget unchanged and ``0`` resets it to the store default — so the
    returned settings tuple always restores exactly.
    """
    global _DEFAULT_CACHE, _CACHE_ENABLED, _STORE_PATH, _STORE_MAX_BYTES
    previous = (_CACHE_ENABLED, _DEFAULT_CACHE.max_entries, _STORE_PATH,
                _STORE_MAX_BYTES or 0)
    if enabled is not None:
        _CACHE_ENABLED = bool(enabled)
    new_path = _STORE_PATH if store_path is None else str(store_path)
    new_bytes = (_STORE_MAX_BYTES if store_max_bytes is None
                 else (store_max_bytes or None))
    new_entries = (_DEFAULT_CACHE.max_entries if max_entries is None
                   else max_entries)
    if (new_entries, new_path, new_bytes) != (
            _DEFAULT_CACHE.max_entries, _STORE_PATH, _STORE_MAX_BYTES):
        store = None
        if new_path:
            kwargs = {} if new_bytes is None else {"max_bytes": new_bytes}
            store = DiskStore(new_path, **kwargs)
        _STORE_PATH, _STORE_MAX_BYTES = new_path, new_bytes
        _DEFAULT_CACHE = CompileCache(max_entries=new_entries, store=store)
    return previous


def compile_cache_counters() -> Dict[str, int]:
    """Metrics provider: current process-local cache counters."""
    return _DEFAULT_CACHE.counters()


metrics.register_provider("compile_cache", compile_cache_counters)


def _compile_uncached(source_text: str) -> CompileResult:
    try:
        return _parse_and_elaborate(source_text)
    except RecursionError:
        # The recursive-descent parser and the elaborator recurse once
        # per nesting level; a design nested deeper than the interpreter
        # stack is a compile error of that design alone, never an
        # exception that fails whatever else shares its batch.
        result = CompileResult(source_text)
        result.diagnostics.append(Diagnostic(
            Diagnostic.ERROR, "design nests too deeply to compile", 1))
        return result


def _parse_and_elaborate(source_text: str) -> CompileResult:
    result = CompileResult(source_text)
    try:
        result.source = parse_source(source_text)
    except VerilogError as exc:
        result.diagnostics.append(Diagnostic(Diagnostic.ERROR, exc.message, exc.line))
        return result
    if len(result.source.modules) != 1:
        result.diagnostics.append(Diagnostic(
            Diagnostic.ERROR,
            f"expected exactly one module, found {len(result.source.modules)}",
            result.source.modules[0].line if result.source.modules else 1))
        # Still try to elaborate the first module for diagnostics.
    module = result.source.modules[0]
    design = elaborate(module, strict=False)
    result.design = design
    result.diagnostics.extend(design.diagnostics)
    result.ok = not any(d.is_error() for d in result.diagnostics)
    return result


def compile_source(source_text: str, use_cache: bool = True) -> CompileResult:
    """Compile Verilog source text.

    Never raises for source-level problems; syntax and semantic failures are
    reported through ``result.ok`` / ``result.diagnostics`` so the pipeline
    can harvest failing samples for the Verilog-PT dataset exactly as the
    paper keeps non-compiling code for pretraining.

    Results are memoized in the process-wide :class:`CompileCache` unless
    ``use_cache=False`` or the cache is globally disabled; cached results
    are shared objects and must not be mutated.
    """
    if use_cache and _CACHE_ENABLED:
        return _DEFAULT_CACHE.get_or_compile(source_text)
    return _compile_uncached(source_text)
