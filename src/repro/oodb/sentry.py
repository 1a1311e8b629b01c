"""The sentry mechanism: transparent low-level event detection.

Open OODB detects primitive events with *in-line wrappers*: a language
preprocessor rewrites each extendible class before compilation so that every
method body signals invocation and return, while type declarations, calls,
inheritance, and pointer conversions remain exactly those of the unmonitored
class (paper, Section 6.2).

The Python analog is the :func:`sentried` class decorator, which rewrites
the class's methods at class-creation time — before any instance exists —
and leaves the class's public interface untouched:

* declarations are identical (``@sentried`` is the only difference),
* calls are identical (``river.update_water_level(3)`` either way),
* ``isinstance``, inheritance, ``super()``, properties and descriptors all
  behave as for the unmonitored class.

Overhead categories (paper, Section 6.2) map directly:

* *unmonitored*: class not decorated — zero overhead;
* *useless overhead*: decorated, but no receiver subscribed — one
  emptiness test per call;
* *potentially useful*: decorated with receivers registered for other
  methods of the class;
* *useful overhead*: a receiver consumes the notification.

State changes (``__setattr__``) are also trapped, giving the integrated
system the value-change detection that the paper's layered attempts could
not get from closed OODBMSs (Section 4, "changes of state could not be
detected as events").
"""

from __future__ import annotations

import enum
import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Type


_MISSING = object()

#: Serialises every replacement of a point's receivers.  Delivery never
#: takes it: a wrapper reads them once and iterates over what it read.
_swap_lock = threading.Lock()


class _ScopeStack(threading.local):
    """Per-thread stack of *bound* scoped registries.  The sentry
    structures themselves (receiver points) live on the classes and are
    emitted once per program, like the paper's preprocessor output;
    scoping decides at delivery time which engine's receivers a
    notification reaches."""

    def __init__(self) -> None:
        self.stack: list["SentryRegistry"] = []


_scope = _ScopeStack()


class Binding:
    """One client's scope on the calling thread, for a ``with`` body.

    Entering makes ``context`` the innermost transaction context of
    ``manager`` on this thread, and a scoped ``registry`` the innermost
    sentry scope; exit unbinds them.
    ``lock``, when given, is held from entry to exit: a session serves
    one thread at a time.  Re-entrant: when every part is innermost on
    this thread already (and this thread holds the lock), entering does
    nothing, so a session call made inside the session's own
    transaction costs one check.  A session keeps one binding for life
    (``_frames`` is only touched under its lock); lock-free bindings are
    built per ``with``.
    """

    __slots__ = ("manager", "context", "registry", "lock", "_owner",
                 "_frames")

    def __init__(self, manager: Any = None, context: Any = None,
                 registry: Any = None, lock: Any = None) -> None:
        self.manager = manager
        self.context = context
        self.registry = registry \
            if registry is not None and registry.scoped else None
        self.lock = lock
        self._owner: Optional[int] = None
        #: per entry, whether it bound anything (and must unbind it).
        self._frames: list[bool] = []

    def bound_here(self) -> bool:
        """True iff every part is innermost on the calling thread."""
        if self.lock is not None and \
                self._owner != threading.get_ident():
            return False
        registry = self.registry
        if registry is not None:
            stack = _scope.stack
            if not stack or stack[-1] is not registry:
                return False
        manager = self.manager
        return manager is None or \
            manager.current_context() is self.context

    def __enter__(self) -> "Binding":
        if self.bound_here():
            self._frames.append(False)
            return self
        if self.lock is not None:
            self.lock.acquire()
            self._owner = threading.get_ident()
        if self.manager is not None:
            self.manager.push_context(self.context)
        if self.registry is not None:
            _scope.stack.append(self.registry)
        self._frames.append(True)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        frames = self._frames
        if not frames.pop():
            return
        try:
            if self.registry is not None:
                _scope.stack.pop()
            if self.manager is not None:
                self.manager.pop_context(self.context)
        finally:
            if self.lock is not None:
                if True not in frames:
                    self._owner = None
                self.lock.release()


class Moment(enum.Enum):
    """When, relative to the method body, a notification is delivered."""

    BEFORE = "before"
    AFTER = "after"


@dataclass
class MethodNotification:
    """Delivered to method receivers around every monitored invocation."""

    moment: Moment
    instance: Any
    cls: Type
    method: str
    args: tuple
    kwargs: dict[str, Any]
    result: Any = None
    exception: Optional[BaseException] = None


@dataclass
class StateNotification:
    """Delivered to state receivers on every monitored attribute write."""

    instance: Any
    cls: Type
    attribute: str
    old_value: Any
    new_value: Any
    had_old_value: bool


@dataclass
class CreateNotification:
    """Delivered when a monitored class finishes constructing an instance."""

    instance: Any
    cls: Type
    args: tuple
    kwargs: dict[str, Any]


class _Point:
    """The receivers of one monitored point: a method, the attribute
    writes of a class, or its constructions.

    ``receivers`` is ``()`` while nobody listens, so the useless-overhead
    path is one test, and otherwise a ``(before, after)`` pair of
    receiver tuples (state and creation points fill ``after`` only).
    Subscriptions replace the pair whole under ``_swap_lock``; wrappers
    read it once without a lock, filter nothing and copy nothing, so a
    delivery in progress finishes over the receivers it started with.
    """

    __slots__ = ("receivers",)

    def __init__(self) -> None:
        self.receivers: tuple = ()


class Subscription:
    """Cancellable registration of one receiver at one point."""

    def __init__(self, point: _Point, moment: Moment, deliver: Callable):
        self._point = point
        self._index = int(moment is Moment.AFTER)
        self._deliver = deliver
        self.active = False
        self._swap(True)

    def cancel(self) -> None:
        self._swap(False)

    def _swap(self, active: bool) -> None:
        with _swap_lock:
            if self.active is active:
                return
            self.active = active
            pair = list(self._point.receivers or ((), ()))
            receivers = pair[self._index]
            pair[self._index] = (
                receivers + (self._deliver,) if active else
                tuple(r for r in receivers if r is not self._deliver))
            self._point.receivers = tuple(pair) if any(pair) else ()


class SentryRegistry:
    """Registry connecting sentried classes to receivers.

    The decorator stores one receiver point per method (plus one for
    attribute writes and one for constructions) on the class; the
    registry resolves *watch* requests (possibly on subclasses) to the
    defining class's point and installs one adapter per subscription.

    Two flavours exist:

    * the module-level default :data:`registry` is **unscoped**: its
      receivers fire for every monitored call in the process (the
      historical behaviour, kept for direct ``watch_*`` users);
    * an engine-owned registry is **scoped** (``scoped=True``): its
      receivers only fire while the owning engine is *bound* to the
      delivering thread (see :meth:`bound`), or while no engine at all is
      bound.  Two engines in one process therefore no longer observe each
      other's sessions, even for classes both of them monitor.
    """

    def __init__(self, scoped: bool = False, name: str = "") -> None:
        self.scoped = scoped
        self.name = name
        self.notifications_delivered = 0

    # -- engine scoping -------------------------------------------------------

    def bound(self) -> "Binding":
        """Bind this registry to the calling thread for a ``with`` body.

        While a scoped registry is bound, only *its* receivers (and those
        of unscoped registries) observe monitored calls made by the
        thread.  Unscoped registries bind nothing.
        """
        return Binding(registry=self)

    def _subscribe(self, point: _Point, moment: Moment, receiver: Callable,
                   watched: Type, owner: Type,
                   attribute: Optional[str] = None) -> Subscription:
        """Install ``receiver`` at ``point`` behind this subscription's one
        adapter.  It checks, in order, this registry's scope, the watched
        subclass and the watched attribute, then counts the delivery —
        once, here, by the registry whose receiver gets it."""
        registry = self
        scoped = self.scoped
        subclass = None if watched is owner else watched

        def deliver(note: Any) -> None:
            if scoped:
                stack = _scope.stack
                if stack and stack[-1] is not registry:
                    return
            if subclass is not None and \
                    not isinstance(note.instance, subclass):
                return
            if attribute is not None and note.attribute != attribute:
                return
            registry.notifications_delivered += 1
            receiver(note)

        return Subscription(point, moment, deliver)

    # -- watching -------------------------------------------------------------

    def watch_method(self, cls: Type, method: str,
                     receiver: Callable[[MethodNotification], None],
                     moment: Moment = Moment.AFTER) -> Subscription:
        """Subscribe ``receiver`` to invocations of ``cls.method``.

        ``cls`` may be a subclass of the class defining the method; the
        receiver then only fires for instances of ``cls``.
        """
        owner = _defining_class(cls, method)
        points = owner.__dict__["__sentry_method_receivers__"]
        if method not in points:
            raise TypeError(
                f"{owner.__name__}.{method} is not monitored by a sentry"
            )
        return self._subscribe(points[method], moment, receiver, cls, owner)

    def watch_state(self, cls: Type, attribute: Optional[str],
                    receiver: Callable[[StateNotification], None]) -> Subscription:
        """Subscribe to attribute writes on instances of ``cls``.

        ``attribute=None`` receives writes to every attribute.
        """
        owner = _state_owner(cls)
        return self._subscribe(owner.__dict__["__sentry_state_receivers__"],
                               Moment.AFTER, receiver, cls, owner, attribute)

    def watch_create(self, cls: Type,
                     receiver: Callable[[CreateNotification], None]) -> Subscription:
        owner = _state_owner(cls)
        return self._subscribe(owner.__dict__["__sentry_create_receivers__"],
                               Moment.AFTER, receiver, cls, owner)


#: The legacy default registry: unscoped, shared by everything that does not
#: bring its own (mirrors the preprocessor emitting one set of sentry
#: structures per program).  Engines construct their own *scoped* registry,
#: so databases no longer observe each other's sessions through it.
registry = SentryRegistry(name="process-default")


def _defining_class(cls: Type, method: str) -> Type:
    for klass in cls.__mro__:
        if "__sentry_method_receivers__" in klass.__dict__ and \
                method in klass.__dict__["__sentry_method_receivers__"]:
            return klass
    raise TypeError(
        f"{cls.__name__}.{method}: no sentried class in the MRO defines it"
    )


def _state_owner(cls: Type) -> Type:
    for klass in cls.__mro__:
        if "__sentry_state_receivers__" in klass.__dict__:
            return klass
    raise TypeError(f"{cls.__name__} is not a sentried class")


def is_sentried(cls: Type) -> bool:
    """True if ``cls`` (or an ancestor) was processed by :func:`sentried`."""
    # The MRO's own dicts, not hasattr(): on a class without the
    # attribute (every builtin a rule binds) hasattr() raises and drops an
    # AttributeError, which costs twice the walk.
    for klass in cls.__mro__:
        if "__sentry_method_receivers__" in klass.__dict__:
            return True
    return False


class _TypeFlags(dict):
    """type -> :func:`is_sentried`, filled on the first ask of each type.

    A hot path reads ``sentried_types[type(value)]`` and pays a dict
    lookup, not an MRO walk.  Only :func:`sentried` can change an answer,
    and it clears the map; so does reaching ``CAPACITY`` types, which
    bounds what the map keeps alive.
    """

    CAPACITY = 4096

    def __missing__(self, cls: Type) -> bool:
        if len(self) >= self.CAPACITY:
            self.clear()
        flag = self[cls] = is_sentried(cls)
        return flag


sentried_types = _TypeFlags()


def sentried(cls: Optional[Type] = None, *,
             track_state: bool = True,
             methods: Optional[list[str]] = None) -> Any:
    """Class decorator installing in-line wrapper sentries.

    Args:
        track_state: also trap ``__setattr__`` (state-change events and
            transactional undo both depend on this; disable only for
            write-hot classes whose state changes need not be observable).
        methods: explicit list of method names to monitor; default is every
            public callable defined directly on the class.

    The decorated class is the *same* class object with its methods rebound,
    so type identity, ``isinstance`` and subclassing are unaffected.
    """
    if cls is None:
        return functools.partial(sentried, track_state=track_state,
                                 methods=methods)

    method_receivers: dict[str, _Point] = {}
    cls.__sentry_method_receivers__ = method_receivers
    sentried_types.clear()  # cls and its subclasses are sentried now
    cls.__sentry_state_receivers__ = _Point()
    cls.__sentry_create_receivers__ = _Point()

    if methods is None:
        names = [
            name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")
            and not isinstance(value, (staticmethod, classmethod, type))
        ]
    else:
        names = list(methods)

    for name in names:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            raise TypeError(f"{cls.__name__}.{name} is not a wrappable method")
        point = method_receivers[name] = _Point()
        setattr(cls, name, _wrap_method(cls, name, original, point))

    _wrap_init(cls)
    if track_state:
        _wrap_setattr(cls)
    return cls


def _wrap_method(cls: Type, name: str, original: Callable,
                 point: _Point) -> Callable:
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        receivers = point.receivers
        if not receivers:
            # 'Useless overhead' path: sentry present, nothing listening.
            return original(self, *args, **kwargs)
        before, after = receivers
        if before:
            note = MethodNotification(Moment.BEFORE, self, cls, name,
                                      args, kwargs)
            for receive in before:
                receive(note)
        try:
            result = original(self, *args, **kwargs)
        except BaseException as exc:
            if after:
                note = MethodNotification(Moment.AFTER, self, cls, name,
                                          args, kwargs, exception=exc)
                for receive in after:
                    receive(note)
            raise
        if after:
            note = MethodNotification(Moment.AFTER, self, cls, name,
                                      args, kwargs, result=result)
            for receive in after:
                receive(note)
        return result

    wrapper.__sentry_wrapped__ = original
    return wrapper


def _wrap_init(cls: Type) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        original(self, *args, **kwargs)
        # Only the most-derived sentried class's wrapper announces, once;
        # the announcement is delivered to every ancestor's receivers so
        # that watching a base class covers subclass creations.
        if _state_owner(type(self)) is not cls:
            return
        note = None
        for klass in type(self).__mro__:
            point = klass.__dict__.get("__sentry_create_receivers__")
            receivers = point.receivers if point is not None else ()
            if receivers:
                if note is None:
                    note = CreateNotification(self, type(self), args, kwargs)
                for receive in receivers[1]:
                    receive(note)

    cls.__init__ = wrapper


class Surrogate:
    """The *surrogate object* sentry mechanism (paper, Section 6.2).

    "A surrogate object stands in for some other object ..., intercepts
    all messages directed at the actual object, and performs any
    necessary actions before forwarding the original message to the
    actual object for execution."

    The paper also records the mechanism's flaw, which this implementation
    faithfully retains: "since in C++ [and Python] the state of an object
    can be manipulated without using a member function, it is possible to
    affect the object without activating the sentry" — reading or writing
    ``surrogate.attr`` forwards to the target *silently*, so behavioural
    extensions hang only on method calls.  The in-line wrapper
    (:func:`sentried`) is the prime mechanism; surrogates remain available
    "for special purposes" — e.g. monitoring single instances of classes
    that cannot be decorated.
    """

    __slots__ = ("_surrogate_target", "_surrogate_receiver")

    def __init__(self, target: Any,
                 receiver: Callable[[MethodNotification], None]):
        object.__setattr__(self, "_surrogate_target", target)
        object.__setattr__(self, "_surrogate_receiver", receiver)

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_surrogate_target")
        value = getattr(target, name)
        if not callable(value) or name.startswith("_"):
            return value  # the documented hole: state access is silent
        receiver = object.__getattribute__(self, "_surrogate_receiver")

        def intercepted(*args, **kwargs):
            result = value(*args, **kwargs)
            receiver(MethodNotification(
                Moment.AFTER, target, type(target), name, args, kwargs,
                result=result))
            return result

        return intercepted

    def __setattr__(self, name: str, value: Any) -> None:
        # Forwarded without notification — the mechanism's known flaw.
        setattr(object.__getattribute__(self, "_surrogate_target"),
                name, value)

    @property
    def surrogate_target(self) -> Any:
        return object.__getattribute__(self, "_surrogate_target")


def make_surrogate(target: Any,
                   receiver: Callable[[MethodNotification], None]) -> Surrogate:
    """Wrap one instance in a message-intercepting surrogate."""
    return Surrogate(target, receiver)


def _wrap_setattr(cls: Type) -> None:
    original = cls.__setattr__
    point = cls.__dict__["__sentry_state_receivers__"]

    def wrapper(self, attribute, value):
        receivers = point.receivers
        if not receivers or attribute.startswith("_"):
            original(self, attribute, value)
            return
        old = getattr(self, attribute, _MISSING)
        original(self, attribute, value)
        note = StateNotification(
            instance=self, cls=cls, attribute=attribute,
            old_value=None if old is _MISSING else old,
            new_value=value, had_old_value=old is not _MISSING)
        for receive in receivers[1]:
            receive(note)

    cls.__setattr__ = wrapper
