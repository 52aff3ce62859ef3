"""Event primitives for the simulation kernel."""

from repro.common.errors import SimulationError

PENDING = object()

#: Scheduling priorities: lower sorts earlier at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, which schedules its callbacks to run at the current
    simulation time.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self):
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def ok(self):
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self):
        if self._value is PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.env.schedule(self, delay=0.0)
        return self

    def fail(self, exception):
        """Trigger the event with an exception to be raised in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env.schedule(self, delay=0.0)
        return self

    def try_succeed(self, value=None):
        """Trigger the event if still pending; return whether it fired."""
        if self.triggered:
            return False
        self.succeed(value)
        return True


class Timeout(Event):
    """An event that triggers after a fixed delay.

    The value stays pending until the environment processes the timeout, so
    processes yielding on it genuinely suspend for ``delay`` seconds.
    """

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._timeout_value = value
        self._ok = True
        env.schedule(self, delay=delay)


class Process(Event):
    """Wraps a generator; each yielded event suspends the process until it fires.

    The process itself is an event that triggers when the generator returns,
    carrying the generator's return value, so processes can wait on other
    processes.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env, generator, name=None):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulation time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._value = None
        env.schedule(bootstrap, delay=0.0)

    @property
    def is_alive(self):
        return not self.triggered

    def _resume(self, trigger_event):
        """Advance the generator with the value of the event that fired."""
        while True:
            try:
                if trigger_event._ok:
                    target = self._generator.send(trigger_event._value)
                else:
                    target = self._generator.throw(trigger_event._value)
            except StopIteration as stop:
                if not self.triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # propagate failures to waiters
                if self.callbacks or not self.triggered:
                    self.fail(exc)
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                self.fail(exc)
                return
            if target.triggered:
                # Already triggered: continue immediately with its value,
                # without bouncing through the scheduler.
                trigger_event = target
                continue
            target.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events",)

    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.triggered:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event.triggered
        }

    def _check(self, event):  # pragma: no cover - overridden
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any of the given events triggers."""

    __slots__ = ()

    def _check(self, event):
        if not self.triggered:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all of the given events have triggered."""

    __slots__ = ()

    def _check(self, event):
        if not self.triggered and all(e.triggered for e in self.events):
            self.succeed(self._collect())
