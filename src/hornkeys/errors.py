"""Exception types and resource-guard defaults.

Guard defaults can be overridden globally through environment variables
(checked once per call, so tests may monkeypatch os.environ):

    HORNKEYS_SUBSET_BUDGET   max number of subsets a brute-force scan may visit
    HORNKEYS_DUAL_CAP        max intermediate family size during dualization
    HORNKEYS_BF_MAX_VARS     max ground-set size for 2^n oracle scans
"""

import os
from itertools import islice

__all__ = ["InputError", "ContractError", "ResourceGuardError"]


class InputError(ValueError):
    """Malformed input: bad indices, non-antichain edges, parse errors."""


class ContractError(ValueError):
    """A documented precondition was violated; carries a witness when one exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceGuardError(RuntimeError):
    """A size guard tripped before the computation finished."""


DEFAULT_SUBSET_BUDGET = 1 << 22
DEFAULT_DUAL_CAP = 10**6
DEFAULT_BF_MAX_VARS = 16
# The largest threshold that tss_to_horn expands into clauses.
DEFAULT_MAX_THRESHOLD = 3


def _is_int(v) -> bool:
    """The int rule of every count, size and id argument: an int, not a bool."""
    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)


def _not_an_int(v, what: str) -> InputError:
    return InputError(f"{what} must be an int, got {v!r}")


def _check_count(count, what: str) -> None:
    """Refuse a count that is not a nonnegative int (a bool is no int)."""
    if not _is_int(count):
        raise _not_an_int(count, what)
    if count < 0:
        raise InputError(f"{what} must be nonnegative, got {count}")


def _brief(ids, count: int) -> str:
    """The ``count`` ids that the iterable ``ids`` yields in order, as a list
    of the first five plus how many more; only those five are drawn."""
    shown = [str(v) for v in islice(ids, 5)]
    more = f" and {count - len(shown)} more" if count > len(shown) else ""
    return f"[{', '.join(shown)}]{more}"


def _guard(override, name, default):
    """``override`` when given, else the environment variable ``name``, else ``default``."""
    if override is not None:
        if not _is_int(override):
            raise _not_an_int(override, f"guard override for {name}")
        return override
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}")


def subset_budget(override=None):
    return _guard(override, "HORNKEYS_SUBSET_BUDGET", DEFAULT_SUBSET_BUDGET)


def dual_cap(override=None):
    return _guard(override, "HORNKEYS_DUAL_CAP", DEFAULT_DUAL_CAP)


def bf_max_vars(override=None):
    return _guard(override, "HORNKEYS_BF_MAX_VARS", DEFAULT_BF_MAX_VARS)
