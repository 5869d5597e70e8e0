import types

import pytest

import spans
from spans import Recorder, Span, rebind, reduce_spans


class Stall(RuntimeError):
    pass


def test_self_time_subtracts_children_including_recursion():
    # outer(0..10) -> rec(1..5) -> rec(2..3); outer -> leaf(6..9)
    recorded = [
        Span("outer", 0.0, 10.0, -1, None, False),
        Span("rec", 1.0, 5.0, 0, 7, False),
        Span("rec", 2.0, 3.0, 1, 3, False),
        Span("leaf", 6.0, 9.0, 0, 2, False),
    ]
    totals = reduce_spans(recorded)
    assert totals["outer"].self_s == pytest.approx(3.0)
    assert totals["rec"].self_s == pytest.approx(4.0)   # 3 outer + 1 inner
    assert totals["leaf"].self_s == pytest.approx(3.0)
    assert totals["rec"].calls == 2
    # The inner call's cost is already part of the outer one's.
    assert totals["rec"].cost == 7
    assert totals["leaf"].cost == 2
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def test_recursion_through_the_patched_global_is_traced():
    module = types.ModuleType("fake_engine")
    exec(
        "class Result:\n"
        "    def __init__(self, cost):\n"
        "        self.cost = cost\n"
        "def gamma(s):\n"
        "    if s < 0:\n"
        "        return Result(gamma(s + 1).cost + 1)\n"
        "    return Result(10)\n",
        module.__dict__)
    caller = types.ModuleType("fake_caller")
    caller.gamma = module.gamma
    ticks = iter(range(100))
    recorder = Recorder(Stall, clock=lambda: float(next(ticks)))
    wrapped = recorder.wrap("epstein.gamma", module.gamma)
    assert rebind([module, caller], module.gamma, wrapped) == 2

    assert caller.gamma(-2.0).cost == 12
    totals = reduce_spans(recorder.spans)
    assert totals["epstein.gamma"].calls == 3
    assert totals["epstein.gamma"].cost == 12
    # Three nested spans at ticks (0,5), (1,4), (2,3): the outermost lasts 5.
    assert totals["epstein.gamma"].self_s == pytest.approx(5.0)


def test_a_stall_counts_once_where_it_is_raised():
    recorder = Recorder(Stall)

    def inner():
        raise Stall("budget")

    traced_inner = recorder.wrap("epstein.inner", inner)
    traced_outer = recorder.wrap("kronecker.outer", lambda: traced_inner())
    with pytest.raises(Stall):
        traced_outer()
    metrics = spans.layer_metrics(recorder.spans, run_s=1.0)
    assert metrics["epstein.stalls"] == 1
    assert metrics["kronecker.stalls"] == 0


def test_metric_names_are_unique_and_cover_every_layer():
    names = [name for name, _ in spans.metric_names()]
    assert len(names) == len(set(names))
    for module, functions in spans.LAYERS.items():
        assert f"{module}.stalls" in names
        for fn in functions:
            assert f"{module}.{fn}.self_s" in names
            assert (f"{module}.{fn}.cost" in names) == (fn in spans.COST_FUNCTIONS)
