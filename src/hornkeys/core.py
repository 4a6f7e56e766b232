"""Pure Horn CNFs and the forward-chaining primitives built on them.

A pure Horn clause is an implication ``body -> head`` with a set-valued body
and a single head variable.  The forward-chaining closure of a seed set S is
the least superset of S such that every clause whose body it contains also
contributes its head; a set whose closure is the whole universe is a key.

All operations are pure functions of immutable values and can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from ._kernel import Engine
from .errors import ContractError, InputError, _brief, _check_count, _is_int, _not_an_int

__all__ = [
    "VariableUniverse",
    "HornClause",
    "HornCNF",
    "horn_cnf",
    "forward_closure",
    "is_implicate",
    "is_key",
    "minimize_key",
    "equivalent",
    "lint",
]


@dataclass(frozen=True)
class VariableUniverse:
    """A set of ``n`` variables indexed 0..n-1, optionally carrying labels."""

    n: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        _check_count(self.n, "universe size")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.n:
                raise InputError(f"expected {self.n} labels, got {len(labels)}")
            try:
                "".join(labels)  # one pass in C over a gadget's thousands of labels
            except TypeError:
                bad = next(s for s in labels if not isinstance(s, str))
                raise InputError(f"labels must be strings, got {bad!r}") from None
            if len(set(labels)) != len(labels):
                raise InputError("labels must be pairwise distinct")

    def name(self, v: int) -> str:
        """Label of ``v`` when labels exist, else its 1-based id as text."""
        if self.labels is not None:
            return self.labels[v]
        return str(v + 1)

    def index(self, label: str) -> int:
        if self.labels is None:
            raise InputError("universe carries no labels")
        try:
            return self._ids_by_label[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown variable label {label!r}") from None

    @cached_property
    def _ids_by_label(self) -> dict[str, int]:
        # Built on the first lookup; not a field, so equality and hashing ignore it.
        return {label: v for v, label in enumerate(self.labels)}

    def full_set(self) -> frozenset[int]:
        return frozenset(range(self.n))


def _is_index(v, n: int) -> bool:
    """The vertex-id rule: an int, not a bool, in 0..n-1."""
    return _is_int(v) and 0 <= v < n


def _index(v, n: int, what: str) -> int:
    """``v`` if it is an index of 0..n-1, else an InputError naming ``what``."""
    if _is_index(v, n):
        return v
    if not _is_int(v):
        raise _not_an_int(v, what)
    if n == 0:
        raise InputError(f"{what} {v} out of range: there are no ids")
    raise InputError(f"{what} {v} out of range 0..{n - 1}")


def _not_a_varset(s, what: str, e: TypeError) -> Exception:
    """The error for a set ``s`` that ``frozenset(s)`` refused; plain ids never get here."""
    try:
        if iter(s) is s:  # a one-shot iterator, spent by the failed frozenset
            return InputError(f"{what} must be an int, got an unhashable value")
    except TypeError:
        return InputError(f"{what} set must be an iterable of ids, got {s!r}")
    for v in s:
        try:
            hash(v)
        except TypeError:
            return _not_an_int(v, what)
    return e


def _as_varset(s: Iterable[int], n: int, what: str = "variable index") -> frozenset[int]:
    try:
        out = frozenset(s)
    except TypeError as e:
        raise _not_a_varset(s, what, e) from None
    # Hot loops test for a plain int in range inline and leave the rest to _index.
    for v in out:
        if type(v) is not int or not 0 <= v < n:
            _index(v, n, what)
    return out


@dataclass(frozen=True, slots=True)
class HornClause:
    """One implication ``body -> head``; a head inside the body is rejected."""

    body: frozenset[int]
    head: int

    def __post_init__(self):
        try:
            body = frozenset(self.body)
        except TypeError as e:
            raise _not_a_varset(self.body, "body variable", e) from None
        try:
            tautology = self.head in body
        except TypeError:
            raise _not_an_int(self.head, "head") from None
        object.__setattr__(self, "body", body)
        if tautology:
            raise InputError(
                f"clause head {self.head} occurs in its own body (tautology)"
            )

    @classmethod
    def _trusted(cls, body: frozenset[int], head: int) -> HornClause:
        """The clause ``body -> head`` from a frozenset body and a head that
        the caller has already checked, without checking them again."""
        c = _new(cls)
        _set_body(c, body)
        _set_head(c, head)
        return c


_new = object.__new__
# A frozen dataclass's __setattr__ refuses every write; the slots' own setters do not.
_set_body = HornClause.body.__set__
_set_head = HornClause.head.__set__


class HornCNF:
    """An ordered list of pure Horn clauses over a fixed variable universe.

    Clause order is preserved exactly as given; it determines the
    deterministic tie-breaking of key enumeration.  Duplicate clauses are
    permitted (see :func:`lint`).
    """

    def __init__(self, universe: VariableUniverse, clauses: Iterable[HornClause]):
        self.universe = universe
        clauses = tuple(clauses)
        n = universe.n
        for i, c in enumerate(clauses):
            if not isinstance(c, HornClause):
                raise InputError(f"clause {i} is not a HornClause")
            head = c.head
            if type(head) is not int or not 0 <= head < n:
                _index(head, n, f"clause {i}: head")
            for v in c.body:
                if type(v) is not int or not 0 <= v < n:
                    _index(v, n, f"clause {i}: body variable")
        self.clauses = clauses
        self._engine = None

    @classmethod
    def _trusted(cls, universe: VariableUniverse, clauses: tuple[HornClause, ...]) -> HornCNF:
        """A CNF of clauses the library has built and checked against
        ``universe`` itself, without checking them again."""
        cnf = _new(cls)
        cnf.universe = universe
        cnf.clauses = clauses
        cnf._engine = None
        return cnf

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def m(self) -> int:
        return len(self.clauses)

    def engine(self) -> Engine:
        """Shared closure engine for this CNF (built lazily, then cached).

        It holds the CNF's one clause index and no other state, so every
        caller, enumeration runs included, uses this one engine.
        """
        if self._engine is None:
            self._engine = self.fresh_engine()
        return self._engine

    def fresh_engine(self) -> Engine:
        """A new engine with an index built afresh from the clauses."""
        # Body order changes no result, so the frozensets go in unsorted.
        bodies = [c.body for c in self.clauses]
        heads = [c.head for c in self.clauses]
        return Engine(self.universe.n, bodies, heads)

    def __eq__(self, other):
        if not isinstance(other, HornCNF):
            return NotImplemented
        return self.universe == other.universe and self.clauses == other.clauses

    def __hash__(self):
        return hash((self.universe, self.clauses))

    def __repr__(self):
        return f"HornCNF(n={self.n}, m={self.m})"


def horn_cnf(n, implications, labels=None) -> HornCNF:
    """Build a CNF from ``(body_iterable, head)`` pairs; convenience helper."""
    universe = VariableUniverse(n, labels)
    return HornCNF(
        universe, [HornClause(body, head) for body, head in implications]
    )


def forward_closure(cnf: HornCNF, s: Iterable[int]) -> frozenset[int]:
    """Least superset of ``s`` closed under firing every clause it contains."""
    seed = _as_varset(s, cnf.n)
    return frozenset(cnf.engine().closure(seed))


def is_implicate(cnf: HornCNF, body: Iterable[int], head: int) -> bool:
    """True iff ``body -> head`` follows from the CNF (heads in the body do)."""
    body = _as_varset(body, cnf.n)
    return _index(head, cnf.n, "head index") in cnf.engine().closure(body)


def is_key(cnf: HornCNF, k: Iterable[int]) -> bool:
    """True iff the closure of ``k`` is the whole universe."""
    seed = _as_varset(k, cnf.n)
    return len(cnf.engine().closure(seed)) == cnf.n


def minimize_key(cnf: HornCNF, s: Iterable[int]) -> frozenset[int]:
    """Shrink the key ``s`` to a minimal key by greedy ascending-order drops."""
    seed = _as_varset(s, cnf.n)
    closed = frozenset(cnf.engine().closure(seed))
    if len(closed) != cnf.n:
        raise ContractError(_not_a_key(seed, closed, cnf.n), witness=closed)
    return frozenset(cnf.engine().minimize(seed))


def _not_a_key(seed: frozenset[int], closed: frozenset[int], n: int, render=int) -> str:
    """Why ``seed``, whose closure is ``closed``, is no key: each list names at
    most five ids, each as ``render`` shows it."""
    missing = (render(v) for v in range(n) if v not in closed)
    return (
        f"set {_brief(map(render, sorted(seed)), len(seed))} is not a key; "
        f"its closure misses {_brief(missing, n - len(closed))}"
    )


def equivalent(cnf1: HornCNF, cnf2: HornCNF) -> bool:
    """True iff every clause of each CNF is an implicate of the other."""
    if cnf1.n != cnf2.n:
        raise InputError(
            f"universe mismatch: {cnf1.n} vs {cnf2.n} variables"
        )
    for a, b in ((cnf1, cnf2), (cnf2, cnf1)):
        for c in b.clauses:
            if not is_implicate(a, c.body, c.head):
                return False
    return True


def lint(cnf: HornCNF) -> list[str]:
    """Warnings for suspicious but legal input, currently duplicate clauses."""
    seen = {}
    warnings = []
    for i, c in enumerate(cnf.clauses):
        key = (c.body, c.head)
        if key in seen:
            warnings.append(f"clause {i + 1} duplicates clause {seen[key] + 1}")
        else:
            seen[key] = i
    return warnings
