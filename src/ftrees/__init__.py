"""Thompson's group F inside the Cuntz-algebra word calculus.

Exact element arithmetic and normal forms, the coset action on diagonal
projections, the trace characterization of the orbit of 1 with a
constructive realizer, finite-level models of the tree compactification,
and linear-independence certificates for the permutation representation.

`omega`, `boundary` and `representation` run on first use, so that a
command runs and, without bytecode, compiles only the modules it needs.
Each sits in `sys.modules` from the start as a stub, a module whose code
runs on its first attribute lookup under one lock, after which it is a
plain module.  The stubs are there, and not only a PEP 562 `__getattr__`
with imports in the CLI's commands, because the benchmark's tracer reads
every layer from `sys.modules`, also in CI's traced runs; with a tracer
that imports each layer itself, this could become plain PEP 562.
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

from . import dyadic, elements, generators, words

# the package's names, by the module that defines them
_NAMES = {
    "boundary": "PairTruncation TreeTruncation act_truncated embed is_realizable "
                "non_isolation_witness stabilizes window_requirement",
    "dyadic": "Dyadic",
    "elements": "GroupElement NotInF NotUnitary Side TargetNotARefinement Term abelianization "
                "height in_commutator_subgroup inverse is_cyclic_order_preserving "
                "is_order_preserving multiply multiply_terms parity_split reduce refine "
                "validate_unitary",
    "generators": "NormalFormWord equals from_normal_form gen_x generator_ball "
                  "parse_normal_form to_normal_form",
    "omega": "ONE ZERO DiagonalProjection InternalSearchExhausted NotInOmega2 act complement "
             "coset_invariant d_tau h2_member join meet omega2_member orbit orbit_levels "
             "realize trace",
    "representation": "FormalVector IndependenceCertificate SearchExhausted apply "
                      "independence_certificate separating_point",
    "words": "CompleteCode Ordering common_refinement is_prefix kraft_sum lex_compare",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)

_LOCK = RLock()  # one lock for all stubs: a stub's code may run another's
_PENDING: dict = {}  # stub -> its spec, until its code has run


def _bind(module: ModuleType) -> None:
    """Bind the package's names from `module`."""
    names = _NAMES[module.__name__.rpartition(".")[2]].split()
    globals().update((name, getattr(module, name)) for name in names)


class _Stub(ModuleType):
    """A module whose code runs on its first attribute lookup."""

    def __getattribute__(self, name: str):
        with _LOCK:  # another thread's lookup waits here until the code has run
            spec = _PENDING.pop(self, None)
            if spec is not None:
                try:
                    spec.loader.exec_module(self)
                except BaseException:  # as a failed import: the next lookup runs it again
                    _PENDING[self] = spec
                    raise
                _bind(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, name)


def _stub(name: str) -> ModuleType:
    spec = find_spec(f"{__name__}.{name}")
    module = module_from_spec(spec)
    module.__class__ = _Stub
    sys.modules[spec.name] = module
    _PENDING[module] = spec
    return module


def __getattr__(name: str):
    """A name of a module whose code has not run yet: looking it up runs it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


for _module in (dyadic, elements, generators, words):
    _bind(_module)
omega, boundary, representation = map(_stub, ("omega", "boundary", "representation"))
del _module
