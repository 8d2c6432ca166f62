"""Complex scalars carried either exactly (Gaussian integers) or as doubles.

A Scalar(a, b) is exact iff both a and b are Python ints; any other part,
a float or a numpy number, makes it a float scalar, whose parts are read by
_real, which refuses a bool: so every Scalar holds Python ints and floats.
The exact representation a+bi supports addition, multiplication and
squared magnitude without rounding, which is what lets the dimension-8
certificates run at zero tolerance.  + and * follow Python's own int/float
promotion, so any arithmetic mixing an exact scalar with a float one
silently degrades to float.

This module imports no numpy, so it also holds what the CLI reads before
numpy loads: the default tolerance and its rule (_check_tol), c1_search's
default budget, the closed-form bounds, the permutation check and every
rule of a line-set document (_line_set_entries), so that a malformed
line-set or fiducial file is refused before numpy loads.  It also holds
_Record, the base of every value class of the package (Scalar here,
GramReport, the groups, the specs): a frozen record with no generated
code, so that no module imports dataclasses, and with it inspect, ast and
dis.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator

DEFAULT_TOL = 1e-9

#: the largest Construction-1 search space c1_search (and `mublines search`)
#: runs unless the budget is raised
_C1_BUDGET = 200_000


class _Record:
    """A frozen value record: what the package used of a frozen dataclass,
    with no code generated for each class.

    A subclass names its fields in _FIELDS, which are also its __slots__;
    it may give the trailing fields defaults in _DEFAULTS, compare only the
    fields in _COMPARE (all of them by default), and check or normalize a
    new record in a _check method, which sets a field by object.__setattr__.
    A subclass may also hold a derived slot, in __slots__ but not in
    _FIELDS, which its _check sets and _COMPARE may name.
    A record is built by position or by keyword.  It equals a record of the
    same class whose compared fields are equal (NotImplemented for another
    class), hashes as those fields, refuses assignment and deletion with
    AttributeError, has the repr Name(field=value, ...), and reduces to its
    class and fields, so that copy and pickle rebuild it through __init__.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _DEFAULTS: tuple = ()
    _check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._COMPARE = cls.__dict__.get("_COMPARE", cls._FIELDS)
        # == and hash read the compared fields, and a construction sets the
        # slots, through these, with no code made per class
        cls._key = operator.attrgetter(*cls._COMPARE)  # a bare value for one field
        cls._SETTERS = tuple(getattr(cls, name).__set__ for name in cls._FIELDS)

    def __init__(self, *args, **kwargs):
        setters = self._SETTERS
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0  # an index, not zip: 10-20 % cheaper a record in CPython 3.11
        for setter in setters:
            setter(self, args[i])
            i += 1
        if self._check is not None:
            self._check()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or with too few or too
        many values, in _FIELDS order; TypeError unless it gives each field
        once, or leaves it to its default."""
        fields = self._FIELDS
        given = dict(zip(fields, args))
        values = {**dict(zip(fields[::-1], self._DEFAULTS[::-1])), **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs.keys() or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}; got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        return tuple(map(values.__getitem__, fields))

    def __eq__(self, other):
        if other is self:  # as a tuple of fields equals itself, NaN fields too
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._FIELDS)


class Scalar(_Record):
    __slots__ = ("re", "im", "exact")
    _FIELDS = ("re", "im")
    _COMPARE = ("re", "im", "exact")  # so 1 and 1.0 are unequal

    def _check(self):
        re, im = self.re, self.im
        exact = type(re) is int and type(im) is int
        if not (exact or type(re) is float and type(im) is float):
            object.__setattr__(self, "re", _real(re))
            object.__setattr__(self, "im", _real(im))
        _set_exact(self, exact)

    @staticmethod
    def gauss(a: int, b: int = 0) -> "Scalar":
        """Exact Gaussian integer a + bi, whose parts are integers by _ints:
        ValueError otherwise, never a truncation."""
        a, b = _ints((a, b), "Gaussian integer parts")
        return Scalar(a, b)

    @staticmethod
    def from_complex(z: complex) -> "Scalar":
        return Scalar(float(z.real), float(z.imag))

    @staticmethod
    def coerce(value) -> "Scalar":
        """value as a Scalar by _integral's type rule: an integer (a numpy
        one too) exact, any other complex number float, 2.0 and 2+1j
        included; TypeError for a bool or any other value."""
        if isinstance(value, Scalar):
            return value
        if type(value) is int:
            return Scalar(value, 0)
        if isinstance(value, bool) or not isinstance(value, numbers.Complex):
            raise TypeError(f"cannot interpret {value!r} as a Scalar")
        if isinstance(value, numbers.Integral):
            return Scalar(int(value), 0)
        return Scalar.from_complex(complex(value))

    def __add__(self, other: "Scalar") -> "Scalar":
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = Scalar.coerce(other)
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return Scalar(re, im)

    def abs2(self):
        """Squared magnitude; an int on the exact path."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return str(self.to_complex())


#: the setter of Scalar's derived slot, as _Record sets a field; about 0.1 us
#: a Scalar cheaper than object.__setattr__
_set_exact = Scalar.exact.__set__


def _integral(x) -> bool:
    """The one rule for an integer read from input: an integer (a numpy one
    included) or an integral float.  A bool, a string or any other value is
    not one."""
    return (isinstance(x, numbers.Integral) and not isinstance(x, bool)) or (
        isinstance(x, float) and x.is_integer())


def _real(x) -> int | float:
    """The one rule for a real constant a record or a provenance holds: a
    Python int or float as it is, any other real number (a numpy one) as
    the Python float it equals, so that JSON can write it; TypeError for a
    bool (Python's or numpy's) or any other value."""
    if type(x) in (int, float):
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"cannot read {x!r} as a real number")
    return float(x)


def _ints(values, what: str, types: set | None = None) -> list[int]:
    """values as ints if every one is integral by _integral; ValueError
    naming what otherwise, never a truncation.  types, if given, is the set
    of the types of values, a list, which the caller has read already.  The
    types are read once: Python ints pass as they are, a list of ints and
    floats checks its floats alone, and only other types (numpy integers,
    bools, strings) take _integral's abc check one by one."""
    if types is None:
        values = list(values)
        types = set(map(type, values))
    if types <= {int}:  # a bool's type is bool, not int
        return values
    if types <= {int, float}:  # inf and NaN are not integers, 1e300 is one
        ok = all(x.is_integer() for x in values if type(x) is float)
    else:
        ok = all(map(_integral, values))
    if not ok:
        raise ValueError(f"non-integer entry in {what}")
    return list(map(int, values))


#: the units of the Gaussian integers; the only phases that keep a line set
#: on the exact arithmetic path
GAUSSIAN_UNITS = (Scalar.gauss(1, 0), Scalar.gauss(0, 1),
                  Scalar.gauss(-1, 0), Scalar.gauss(0, -1))


def _indices(values) -> list[int] | None:
    """values as ints if every one can index an array: an integer by _ints
    and no float, which numpy refuses as an index even when integral; None
    otherwise (a bool, a string, 1.0, 1.5)."""
    values = list(values)
    if any(isinstance(x, float) for x in values):
        return None
    try:
        return _ints(values, "indices")
    except ValueError:
        return None


def _columns(perm, d: int) -> list[int]:
    """The 0-based columns pi(1) - 1, ..., pi(d) - 1 of a permutation of 1..d,
    whose entries are _indices."""
    images = _indices(perm)
    if images is None or sorted(images) != list(range(1, d + 1)):
        raise ValueError(f"perm must be a permutation of 1..{d}")
    return [p - 1 for p in images]


class DimensionMismatch(ValueError):
    pass


def _table_entries(rows) -> list | None:
    """The numbers of a table, a list of rows of [re, im] pairs, in order;
    None if rows is not one."""
    if type(rows) not in (list, tuple) or not set(map(type, rows)) <= {list, tuple}:
        return None
    pairs = list(itertools.chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list, tuple} or not set(map(len, pairs)) <= {2}:
        return None
    return list(itertools.chain.from_iterable(pairs))


def _line_set_entries(data) -> tuple[int, bool, list]:
    """(dim, exact, entries) of a line-set document read from JSON, exact for
    a gaussian-int set and entries the numbers of its table in order: Python
    ints in an exact set, floats otherwise.  The rules, checked in this order:
    the document is a JSON object with a dim and a vectors member; dim is an
    integer by _ints (2.0 reads as 2; 2.7, "2" and true do not) and not
    negative; field is "gaussian-int" or "complex-f64" (absent reads as
    complex-f64); provenance, if given, is a JSON object; vectors is a table
    of dim [re, im] pairs per row (DimensionMismatch otherwise); and its
    entries are JSON numbers: integers in a gaussian-int set, within float64
    range in a complex-f64 one.  A broken rule raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("line-set document must be a JSON object")
    if not ("dim" in data and "vectors" in data):
        raise ValueError("line-set document must have dim and vectors")
    (dim,) = _ints([data["dim"]], "line-set dim")
    if dim < 0:
        raise ValueError(f"line-set dim must be >= 0, got {dim}")
    field = data.get("field", "complex-f64")
    if field not in ("gaussian-int", "complex-f64"):
        raise ValueError(f"line-set field must be gaussian-int or complex-f64, got {field!r}")
    if not isinstance(data.get("provenance", {}), dict):
        raise ValueError("line-set provenance must be a JSON object")
    rows = data["vectors"]
    flat = _table_entries(rows)
    if flat is None or not set(map(len, rows)) <= {dim}:
        raise DimensionMismatch(f"vectors must be lists of {dim} [re, im] pairs")
    types = set(map(type, flat))
    if not types <= {int, float}:
        raise ValueError("line-set entries must be JSON numbers")
    if field == "gaussian-int":
        return dim, True, _ints(flat, "gaussian-int line set", types)
    if int in types:
        try:
            flat = list(map(float, flat))
        except OverflowError as exc:
            raise ValueError(f"complex-f64 line set has an entry beyond float64: {exc}")
    return dim, False, flat


def _gauss_if_integral(z: complex) -> Scalar:
    """Exact z when both its parts are integral, a float scalar otherwise
    (NaN and infinities included, which the Gram check then rejects)."""
    if _integral(z.real) and _integral(z.imag):
        return Scalar.gauss(z.real, z.imag)
    return Scalar.from_complex(z)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % q for q in range(3, int(math.isqrt(p)) + 1, 2))


def root_of_unity(numerator: int, denominator: int) -> Scalar:
    """e^(2*pi*i*numerator/denominator), exact when its order, the reduced
    denominator, divides 4: so e^0 = 1 is always exact."""
    common = math.gcd(numerator, denominator)
    order = denominator // common
    numerator = numerator // common % order
    if 4 % order == 0:
        return GAUSSIAN_UNITS[numerator * (4 // order)]
    return Scalar.from_complex(cmath.exp(2j * cmath.pi * numerator / order))


def _check_tol(tol: float) -> None:
    """The one rule for a tolerance: a real number (a numpy one included)
    that is not a bool, finite and >= 0, ValueError otherwise; an infinite
    tol would call every float set equiangular, and True would read as 1."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
        raise ValueError(f"tol: must be a finite number >= 0, got {tol}")


def _check_dimension(d: int) -> None:
    """The one rule for a dimension d of C^d here: d >= 2."""
    if d < 2:
        raise ValueError("dimension must be >= 2")


def max_angle(d: int) -> float:
    """The forced common angle 1/sqrt(d+1) of a d^2-line equiangular set."""
    _check_dimension(d)
    return 1.0 / math.sqrt(d + 1)


def mub_bound(d: int) -> int:
    """Upper bound d+1 on the number of MUBs in C^d."""
    _check_dimension(d)
    return d + 1


def special_bound_f(d: float) -> float:
    """Bound f(d) = d(2d+1)(2*sqrt(d)+d)^2 / (d^2+4d+2*sqrt(d)) on the number
    of lines in C^(2d) pairwise at angle 1/(1+sqrt(d)), for one number d."""
    d = float(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    s = math.sqrt(d)
    return d * (2 * d + 1) * (2 * s + d) ** 2 / (d * d + 4 * d + 2 * s)
