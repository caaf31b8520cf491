"""Per-layer tracing from outside the library.

The tracer replaces selected functions of the ``spherotree`` modules with
thin wrappers, in every module that binds them, so that calls made through
``from .thorn import canonical_code`` and the like are seen too.  Nothing
under ``src/`` changes.  Each wrapper opens a span on a stack; when it
closes, its duration minus the time its child spans covered is added to the
span's self time.  Spans are aggregated by name in memory (calls, self
seconds) rather than stored one by
one: some of them run hundreds of thousands of times per round.

Recording happens only while ``Tracer.active`` is true, which the driver
sets around each timed operation, so output checks done afterwards add no
counts.  Hooks that a later version of the library no longer has are
skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType

def _text_in(args, result) -> int:
    return len(args[0])


def _text_out(args, result) -> int:
    return len(result)


def _pieces(args, result) -> int:
    return len(result.pieces)


def _size(args, result) -> int:
    return len(result)


def _bithorn_vertices(args, result) -> int:
    return result.vertex_count


# (module, attribute, span name, count): when ``count`` is (counter, measure),
# ``measure(args, result)`` is added to ``counter`` after each traced call.
_PARSE = ("textio.bytes_in", _text_in)
_FORMAT = ("textio.bytes_out", _text_out)
_PIECES = ("element.pieces_out", _pieces)

SPANS = (
    ("cli", "main", "cli.main", None),
    ("textio", "parse_element", "textio.parse", _PARSE),
    ("textio", "parse_class_table", "textio.parse", _PARSE),
    ("textio", "parse_spherical_spec", "textio.parse", _PARSE),
    ("textio", "parse_tensor_spec", "textio.parse", _PARSE),
    ("textio", "parse_clopen", "textio.parse", _PARSE),
    ("textio", "parse_subthorn", "textio.parse", _PARSE),
    ("textio", "format_element", "textio.format", _FORMAT),
    ("textio", "format_transition_counts", "textio.format", _FORMAT),
    ("textio", "format_gram_report", "textio.format", _FORMAT),
    ("textio", "bithorn_dot", "textio.format", _FORMAT),
    ("textio", "subthorn_dot", "textio.format", _FORMAT),
    ("element", "compose", "element.compose", _PIECES),
    ("element", "invert", "element.invert", _PIECES),
    ("element", "power", "element.power", _PIECES),
    ("element", "equals", "element.equals", None),
    ("bithorn", "minimal_bithorn", "bithorn.minimal_bithorn", ("bithorn.vertices", _bithorn_vertices)),
    ("bithorn", "coset_code", "bithorn.coset_code", None),
    ("thorn", "enumerate_embeddings", "thorn.enumerate_embeddings", ("thorn.embeddings", _size)),
    ("thorn", "canonical_code", "thorn.canonical_code", None),
    ("thorn", "reduce_subthorn", "thorn.reduce_subthorn", None),
    ("thorn", "subthorn_from_balls", "thorn.subthorn_from_balls", None),
    ("thorn", "enumerate_class_codes", "thorn.enumerate_class_codes", ("thorn.class_codes", _size)),
    ("orbitstats", "theta", "orbitstats.theta", None),
    ("orbitstats", "moved_sets", "orbitstats.moved_sets", ("orbitstats.moved_sets_found", _size)),
    ("spherical", "phi_nessonov", "spherical.phi", None),
    ("spherical", "symmetric_eigenvalues", "spherical.jacobi", None),
    ("spherical", "gram_psd_check", "spherical.gram", None),
)

# Static methods are patched on their class: (module, class, attribute, span).
CLASS_SPANS = (("tree", "ClopenSet", "from_balls", "tree.from_balls"),)

# lru caches read through cache_info(): metric prefix -> (module, attribute).
CACHES = {
    "thorn.code_cache": ("thorn", "_code_of_abstract"),
    "tree.children": ("tree", "children"),
    "tree.neighbors": ("tree", "neighbors"),
    "orbitstats.moved_sets_cache": ("orbitstats", "moved_sets"),
}

MODULES = ("tree", "element", "thorn", "bithorn", "orbitstats", "spherical", "textio", "cli")


class Tracer:
    """Span and counter aggregation for one process."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._caches: dict[str, object] = {}
        self._tree_caches: list[object] = []

    # -- installation ---------------------------------------------------

    def install(self, package: ModuleType) -> None:
        mods = {name: getattr(package, name, None) for name in MODULES}
        # read the caches before their functions are replaced by wrappers
        for prefix, (mod_name, attr) in CACHES.items():
            fn = getattr(mods[mod_name], attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.missing.append(f"{mod_name}.{attr}.cache_info")
                continue
            self._caches[prefix] = fn
        replacements: dict[int, object] = {}
        for mod_name, attr, span, count in SPANS:
            original = getattr(mods[mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            replacements[id(original)] = self._wrap(original, span, count)
        for mod in mods.values():
            if mod is None:
                continue
            for name, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        for mod_name, cls_name, attr, span in CLASS_SPANS:
            cls = getattr(mods[mod_name], cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if not isinstance(raw, staticmethod):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, staticmethod(self._wrap(raw.__func__, span, None)))
        tree = mods["tree"]
        self._tree_caches = [
            value for value in vars(tree).values()
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == tree.__name__
        ]

    def _wrap(self, fn, span: str, count):
        calls, self_time, counters = self.calls, self.self_time, self.counters
        stack = self._stack
        clock = time.perf_counter
        calls.setdefault(span, 0)
        self_time.setdefault(span, 0.0)
        counter, measure = count or (None, None)
        if counter is not None:
            counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[span] += 1
                self_time[span] += duration - frame[0]
            if counter is not None:
                counters[counter] += measure(args, result)
            return result

        return wrapper

    # -- cache figures ----------------------------------------------------

    def cache_figures(self) -> dict[str, dict[str, int]]:
        """hits, misses and current size of every traced cache, right now."""
        figures = {}
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            figures[prefix] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        figures["tree.caches"] = {
            "hits": 0,
            "misses": 0,
            "size": sum(fn.cache_info().currsize for fn in self._tree_caches),
        }
        return figures
