"""Nondecreasing positive weight sequences with tail shifts.

A weight sequence ``lam_1 <= lam_2 <= ...`` of positive reals divides increments
in the weighted-variation functionals of :mod:`lamvar.variation`.  Every family
shipped here has a divergent reciprocal sum, which is the classical admissibility
condition; it follows from the family's form and is not checked numerically.  A
shift ``m`` turns a sequence into its tail: ``term(n) == base_term(n + m)``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping

from .errors import DomainError, InvalidInputError, ResourceError, _check_number, _check_positive_int

#: Most reciprocals, shift included, a partial sum may add (a few seconds).
PREFIX_BUDGET = 1 << 22

_FAMILIES = ("constant", "linear", "power", "nlog", "explicit")


class LambdaSequence:
    """A positive nondecreasing weight sequence with an index shift.

    Instances are immutable.
    """

    __slots__ = ("_family", "_params", "_shift")

    def __init__(self, family: str, params: Mapping[str, Any], shift: int = 0):
        if family not in _FAMILIES:
            raise InvalidInputError(
                f"unknown family {family!r}; expected one of {_FAMILIES}", field="family"
            )
        if isinstance(shift, bool) or not isinstance(shift, int) or shift < 0:
            raise InvalidInputError("must be a nonnegative integer", field="shift")
        self._family = family
        self._params = self._canonical_params(family, params)
        self._shift = shift

    # -- construction -----------------------------------------------------

    @staticmethod
    def _canonical_params(family: str, params: Mapping[str, Any]) -> Dict[str, Any]:
        if not isinstance(params, Mapping):
            raise InvalidInputError("expected an object", field="params")
        if family == "constant":
            c = _check_number(params.get("c", 1.0), "params.c")
            if c <= 0:
                raise InvalidInputError("must be positive", field="params.c")
            return {"c": c}
        if family == "linear":
            a = _check_number(params.get("a", 1.0), "params.a")
            b = _check_number(params.get("b", 0.0), "params.b")
            if a < 0:
                raise InvalidInputError("slope must be nonnegative", field="params.a")
            if a + b <= 0:
                raise InvalidInputError(
                    "first term a+b must be positive", field="params.b"
                )
            return {"a": a, "b": b}
        if family == "power":
            if "p" not in params:
                raise InvalidInputError("missing exponent", field="params.p")
            p = _check_number(params["p"], "params.p")
            if not 0 < p <= 1:
                raise InvalidInputError("exponent must lie in (0, 1]", field="params.p")
            return {"p": p}
        if family == "nlog":
            return {}
        # explicit: a finite positive nondecreasing prefix plus a linear tail rule
        prefix = params.get("prefix")
        if not isinstance(prefix, (list, tuple)) or not prefix:
            raise InvalidInputError("expected a nonempty array", field="params.prefix")
        values = []
        for i, entry in enumerate(prefix):
            v = _check_number(entry, f"params.prefix[{i}]")
            if v <= 0:
                raise InvalidInputError("must be positive", field=f"params.prefix[{i}]")
            if values and v < values[-1]:
                raise InvalidInputError(
                    "prefix must be nondecreasing", field=f"params.prefix[{i}]"
                )
            values.append(v)
        tail = params.get("tail")
        if not isinstance(tail, Mapping):
            raise InvalidInputError("expected an object {a, b}", field="params.tail")
        a = _check_number(tail.get("a", 0.0), "params.tail.a")
        b = _check_number(tail.get("b", values[-1]), "params.tail.b")
        if a < 0:
            raise InvalidInputError("tail slope must be nonnegative", field="params.tail.a")
        first_tail = a * (len(values) + 1) + b
        if first_tail < values[-1]:
            raise InvalidInputError(
                "tail must continue the prefix nondecreasingly", field="params.tail"
            )
        return {"prefix": tuple(values), "tail": {"a": a, "b": b}}

    @classmethod
    def constant(cls, c: float = 1.0) -> "LambdaSequence":
        return cls("constant", {"c": c})

    @classmethod
    def linear(cls, a: float = 1.0, b: float = 0.0) -> "LambdaSequence":
        return cls("linear", {"a": a, "b": b})

    @classmethod
    def power(cls, p: float) -> "LambdaSequence":
        return cls("power", {"p": p})

    @classmethod
    def nlog(cls) -> "LambdaSequence":
        return cls("nlog", {})

    @classmethod
    def explicit(cls, prefix, tail_a: float = 0.0, tail_b: float | None = None) -> "LambdaSequence":
        tail: Dict[str, Any] = {"a": tail_a}
        if tail_b is not None:
            tail["b"] = tail_b
        return cls("explicit", {"prefix": list(prefix), "tail": tail})

    # -- basic queries ----------------------------------------------------

    @property
    def family(self) -> str:
        return self._family

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def proper(self) -> bool:
        """True when term(n) -> infinity."""
        if self._family == "constant":
            return False
        if self._family == "linear":
            return self._params["a"] > 0
        if self._family == "explicit":
            return self._params["tail"]["a"] > 0
        return True

    def term(self, n: int) -> float:
        """The n-th weight, 1-based.  n = 0 is outside the domain."""
        if isinstance(n, bool) or not isinstance(n, int):
            raise DomainError(f"index must be an integer, got {n!r}")
        if n < 1:
            raise DomainError(f"index must be >= 1, got {n}")
        return self._base_term(n + self._shift)

    def _base_term(self, k: int) -> float:
        """The k-th weight of the unshifted sequence.  A term that overflows
        is refused, since its reciprocal would be 0, and so is an index too
        large for a float, which every family but constant converts."""
        fam = self._family
        p = self._params
        if fam == "constant":
            return p["c"]
        try:
            if fam == "linear":
                term = p["a"] * k + p["b"]
            elif fam == "power":
                return float(k) ** p["p"]
            elif fam == "nlog":
                term = k * math.log(k + 1)
            elif k <= len(p["prefix"]):
                return p["prefix"][k - 1]
            else:
                term = p["tail"]["a"] * k + p["tail"]["b"]
        except OverflowError:
            raise InvalidInputError(
                "base term index (index plus shift) is too large for a float", field="lambda"
            ) from None
        if term == math.inf:
            raise InvalidInputError(f"base term {k} (index plus shift) overflows to inf", field="lambda")
        return term

    def tail(self, m: int) -> "LambdaSequence":
        """The sequence with its first m terms dropped.  Tails compose additively."""
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise DomainError(f"tail shift must be a nonnegative integer, got {m!r}")
        return LambdaSequence(self._family, self._raw_params(), self._shift + m)

    def _raw_params(self) -> Dict[str, Any]:
        params = dict(self._params)
        if self._family == "explicit":
            params = {"prefix": list(params["prefix"]), "tail": dict(params["tail"])}
        return params

    # -- reciprocal sums --------------------------------------------------

    def reciprocal_sum(self, count: int) -> float:
        """Sum of 1/term(i) for i = 1..count, added left to right.  A sum that
        overflows, or is 0 because every weight overflows, is refused."""
        if isinstance(count, bool) or not isinstance(count, int):
            raise DomainError(f"count must be an integer, got {count!r}")
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count}")
        if count + self._shift > PREFIX_BUDGET:
            raise ResourceError(
                f"prefix of {count} terms (shift {self._shift}) exceeds the "
                f"budget of {PREFIX_BUDGET} weights"
            )
        total = 0.0
        for k in range(self._shift + 1, self._shift + count + 1):
            total += 1.0 / self._base_term(k)
        if not 0.0 < total < math.inf:
            raise InvalidInputError(
                f"the sum of 1/term(i) for i = 1..{count} is {total!r}, not finite and positive",
                field="lambda",
            )
        return total

    def shao_sablin_ratio(self, n: int) -> float:
        """Partial-sum ratio (sum_{i<=2n} 1/lam_i) / (sum_{i<=n} 1/lam_i)."""
        n = _check_positive_int(n, "n")
        top = self.reciprocal_sum(2 * n)
        bottom = self.reciprocal_sum(n)
        return top / bottom

    # -- serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {"family": self._family, "params": self._raw_params(), "shift": self._shift}

    @classmethod
    def from_json(cls, obj: Any) -> "LambdaSequence":
        if not isinstance(obj, Mapping):
            raise InvalidInputError(
                "weight-sequence description must be a JSON object", field="lambda"
            )
        family = obj.get("family")
        if not isinstance(family, str):
            raise InvalidInputError("missing or non-string family", field="family")
        params = obj.get("params", {})
        shift = obj.get("shift", 0)
        return cls(family, params, shift)

    def __repr__(self) -> str:
        return f"LambdaSequence({self.to_json()!r})"
