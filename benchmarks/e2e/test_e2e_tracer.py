"""Span bookkeeping of the layer tracer, on a fake module and clock."""

import sys
import threading
import types

import pytest

from tracer import Target, Tracer


class FakeClock:
    """A nanosecond clock that only moves when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, nanoseconds):
        self.now += nanoseconds


@pytest.fixture
def fake(monkeypatch):
    """``repro_fake_layers``: outer/inner/steps plus a module aliasing inner."""
    clock = FakeClock()
    module = types.ModuleType("repro_fake_layers")

    def inner(cost):
        clock.advance(cost)
        return cost

    def outer(*costs):
        clock.advance(100)
        for cost in costs:
            module.inner(cost)
        clock.advance(100)

    def steps(count):
        for step in range(count):
            clock.advance(10)
            yield step

    def threaded():
        clock.advance(50)
        worker = threading.Thread(target=module.inner, args=(1000,))
        worker.start()
        worker.join()
        clock.advance(50)

    class Core:
        def run(self):
            clock.advance(7)

    module.inner, module.outer, module.steps = inner, outer, steps
    module.threaded, module.Core, module.finished = threaded, Core, []
    alias = types.ModuleType("repro_fake_alias")
    alias.inner = inner
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    targets = (
        Target("outer", "repro_fake_layers:outer"),
        Target("inner", "repro_fake_layers:inner"),
        Target("threaded", "repro_fake_layers:threaded"),
        Target("core", "repro_fake_layers:Core.run"),
        Target(
            "steps",
            "repro_fake_layers:steps",
            generator=True,
            finish=lambda tracer, args: module.finished.append(args),
        ),
    )
    tracer = Tracer("fake", clock=clock).install(targets, service=False)
    yield tracer, clock, module, alias
    tracer.uninstall()


def _self_s(tracer):
    self_ns, calls = tracer.self_times()
    return dict(self_ns), dict(calls)


def test_nested_and_sibling_spans(fake):
    tracer, clock, module, _ = fake
    tracer.begin_region()
    module.outer(30, 40)
    tracer.end_region()
    self_ns, calls = _self_s(tracer)
    assert self_ns == {"outer": 200, "inner": 70}
    assert calls == {"outer": 1, "inner": 2}
    assert tracer.unattributed_share() == 0.0


def test_cross_thread_child_does_not_reduce_its_spawner(fake):
    tracer, clock, module, _ = fake
    tracer.begin_region()
    module.threaded()
    tracer.end_region()
    self_ns, _ = _self_s(tracer)
    # The worker thread's span has no parent, so it is not subtracted from
    # the caller, whose own thread was blocked in join() meanwhile.
    assert self_ns == {"threaded": 1100, "inner": 1000}
    parents = [span[3] for span in tracer.spans]
    assert parents == [None, None]


def test_generator_steps_are_spans(fake):
    tracer, clock, module, _ = fake
    tracer.begin_region()
    assert list(module.steps(3)) == [0, 1, 2]
    tracer.end_region()
    self_ns, calls = _self_s(tracer)
    # Three yielding steps plus the step that ends the generator.
    assert calls == {"steps": 4}
    assert self_ns == {"steps": 30}
    assert module.finished == [(3,)]


def test_methods_and_from_import_aliases_are_patched(fake):
    tracer, clock, module, alias = fake
    tracer.begin_region()
    module.Core().run()
    alias.inner(5)
    tracer.end_region()
    assert _self_s(tracer)[1] == {"core": 1, "inner": 1}
    assert tracer.fired() == ["repro_fake_layers:Core.run", "repro_fake_layers:inner"]


def test_uninstall_restores_every_binding(fake):
    tracer, clock, module, alias = fake
    wrapped = module.inner
    tracer.uninstall()
    assert module.inner is alias.inner
    assert module.inner is not wrapped
    assert module.inner.__name__ == "inner"


def test_nothing_is_recorded_outside_the_region(fake):
    tracer, clock, module, _ = fake
    module.outer(1)
    assert tracer.spans == []


def test_unattributed_share_counts_root_thread_gaps(fake):
    tracer, clock, module, _ = fake
    tracer.begin_region()
    clock.advance(600)
    module.inner(400)
    tracer.end_region()
    assert tracer.unattributed_share() == pytest.approx(0.6)


def test_missing_target_fails_before_patching(fake):
    tracer, clock, module, _ = fake
    before = module.outer
    with pytest.raises(LookupError, match="no longer exists"):
        Tracer("fake").install((Target("gone", "repro_fake_layers:renamed"),), service=False)
    assert module.outer is before


def test_chrome_trace_format(fake):
    tracer, clock, module, _ = fake
    tracer.begin_region()
    module.outer(1000)
    tracer.end_region()
    document = tracer.chrome_trace()
    spans = [event for event in document["traceEvents"] if event["ph"] == "X"]
    assert [event["name"] for event in spans] == ["outer", "inner"]
    outer, inner = spans
    assert outer["ts"] == 0.0 and outer["dur"] == 1.2
    assert inner["ts"] == 0.1 and inner["dur"] == 1.0
    assert inner["args"] == {"workload": "fake", "span": 1, "parent": 0}
    names = [event for event in document["traceEvents"] if event["ph"] == "M"]
    assert names[0]["args"]["name"] == threading.current_thread().name
