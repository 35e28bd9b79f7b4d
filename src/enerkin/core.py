"""Domain types and energy bookkeeping for the reaction system.

A molecule type carries a fixed internal energy; a particle carries a
nonnegative kinetic energy on top of it.  Binary collisions and unary type
changes redistribute kinetic energy so that the total (internal + kinetic)
energy of the system is conserved exactly, up to floating point; the one
rule for that, ``available_kinetic_energy``, lives here and every module
that moves energy between types calls it.  Events themselves are applied by
the simulator's engine (``simulate.execute_event`` for a single event).

Type ids are 1-based throughout the public surface.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "KineticsError",
    "ValidationError",
    "UnknownTypeError",
    "InfeasibleReactionError",
    "KernelSupportError",
    "SimulationError",
    "SolverBlowupError",
    "TypeTable",
    "ParticleSystem",
    "total_energy",
    "available_kinetic_energy",
]


class KineticsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KineticsError):
    """A configuration object or input failed validation; ``field``, when
    given, names the attribute at fault."""

    def __init__(self, message: str, *, field: str = None):
        super().__init__(message)
        self.field = field


class UnknownTypeError(KineticsError):
    """A particle references a type id outside 1..V."""


class InfeasibleReactionError(KineticsError):
    """A reaction outcome violates the energy feasibility constraint."""


class KernelSupportError(KineticsError):
    """A kernel was conditioned on a total energy carrying no mass; ``field``,
    when set, names the kernel at fault."""

    field = None


class SimulationError(KineticsError):
    """A fault raised inside the event loop, annotated with event context."""

    def __init__(self, message: str, *, time: float = None, indices=None):
        context = []
        if time is not None:
            context.append(f"t={time:.6g}")
        if indices is not None:
            context.append(f"particles={indices}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.time = time
        self.indices = indices


class SolverBlowupError(KineticsError):
    """The time stepper produced a negative or non-finite state, or its step underflowed."""

    def __init__(self, message: str, *, step: int, time: float):
        super().__init__(f"{message} at step {step}, t={time:.6g}")
        self.step = step
        self.time = time


class _Record:
    """Base of the package's record classes: plain classes with a written-out
    ``__init__`` whose ``_fields`` name their attributes in its order.

    A record shows as ``Name(field=value, ...)`` and equals only a record of
    its own class with equal fields.  A mutable record is unhashable.
    """

    _fields: tuple = ()
    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class _FrozenRecord(_Record):
    """A record that refuses attribute assignment and hashes by its fields; its
    ``__init__`` sets them through ``vars(self)``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class TypeTable(_FrozenRecord):
    """The V molecule types with their internal energies (ids 1..V)."""

    _fields = ("internal_energies", "labels")

    def __init__(self, internal_energies: np.ndarray, labels: tuple[str, ...] | None = None):
        arr = np.atleast_1d(np.asarray(internal_energies, dtype=float)).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("a type table needs at least one type")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValidationError("internal energies must be finite and >= 0")
        arr.setflags(write=False)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != arr.size:
                raise ValidationError(
                    f"{len(labels)} labels for {arr.size} types"
                )
        vars(self).update(internal_energies=arr, labels=labels)

    @property
    def count(self) -> int:
        return int(self.internal_energies.size)

    def internal_energy(self, type_id):
        """Internal energy of a 1-based type id (scalar or array)."""
        ids = np.asarray(type_id)
        self.check_ids(ids)
        return self.internal_energies[ids - 1]

    def check_ids(self, type_ids) -> None:
        ids = np.atleast_1d(np.asarray(type_ids))
        bad = (ids < 1) | (ids > self.count)
        if np.any(bad):
            where = int(np.argmax(bad))
            raise UnknownTypeError(
                f"type id {ids[where]} at index {where} outside 1..{self.count}"
            )


class ParticleSystem(_Record):
    """State of the M-particle chain: parallel type/energy arrays and a clock.

    Particles form an unordered multiset; indices exist for bookkeeping only
    and no observable output may depend on their order.
    """

    _fields = ("type_ids", "kinetic_energies", "time")

    def __init__(self, type_ids: np.ndarray, kinetic_energies: np.ndarray, time: float = 0.0):
        tids = np.atleast_1d(np.asarray(type_ids, dtype=np.int64)).copy()
        kin = np.atleast_1d(np.asarray(kinetic_energies, dtype=float)).copy()
        if tids.shape != kin.shape or tids.ndim != 1:
            raise ValidationError("type ids and energies must be matching 1-d arrays")
        if np.any(tids < 1):
            raise ValidationError("type ids are 1-based")
        if np.any(kin < 0) or not np.all(np.isfinite(kin)):
            raise ValidationError("kinetic energies must be finite and >= 0")
        self.type_ids = tids
        self.kinetic_energies = kin
        self.time = time

    @classmethod
    def from_particles(cls, particles: Iterable[tuple], time: float = 0.0):
        """The system of the given (type id, kinetic energy) pairs."""
        pairs = list(particles)
        return cls(
            type_ids=np.array([v for v, _ in pairs], dtype=np.int64),
            kinetic_energies=np.array([t for _, t in pairs], dtype=float),
            time=time,
        )

    @property
    def size(self) -> int:
        return int(self.type_ids.size)

    def type_counts(self, n_types: int) -> np.ndarray:
        """Occupation numbers per type, indexed 0..V-1 for types 1..V."""
        return np.bincount(self.type_ids, minlength=n_types + 1)[1:]

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(
            self.type_ids.copy(), self.kinetic_energies.copy(), self.time
        )

    def multiset_equal(self, other: "ParticleSystem", tol: float = 0.0) -> bool:
        """Equality as unordered multisets of (type, energy) pairs."""
        if self.size != other.size:
            return False
        a = np.lexsort((self.kinetic_energies, self.type_ids))
        b = np.lexsort((other.kinetic_energies, other.type_ids))
        if not np.array_equal(self.type_ids[a], other.type_ids[b]):
            return False
        return np.allclose(
            self.kinetic_energies[a], other.kinetic_energies[b], rtol=0.0, atol=tol
        )


def total_energy(system: ParticleSystem, types: TypeTable) -> float:
    """Sum of internal plus kinetic energy over all particles."""
    types.check_ids(system.type_ids)
    internal = types.internal_energies[system.type_ids - 1]
    return float(np.sum(internal) + np.sum(system.kinetic_energies))


def available_kinetic_energy(kinetic, inputs, outputs, types: TypeTable):
    """Kinetic energy left when particles of types ``inputs`` become ``outputs``.

    ``kinetic`` is the kinetic energy the inputs carry in all (a scalar or an
    array); the result is kinetic + (sum I_in - sum I_out), negative when the
    change is infeasible.  This is the one energy-bookkeeping rule of every
    collision and type conversion, and it conserves sum (I + T).  The
    internal-energy difference is taken first, so a type-preserving change
    adds an exact 0.  Type ids are not checked here: they are validated where
    they enter (type table, network, particle system, ``execute_event``).
    """
    ie = types.internal_energies
    return kinetic + (sum(ie[v - 1] for v in inputs) - sum(ie[v - 1] for v in outputs))
