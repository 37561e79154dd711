"""Trace nesting under concurrency: threads + a thread pool, one tree.

The contract: a traced run that spreads work over plain threads *and*
a two-worker thread pool must export a single coherent Chrome trace --
every span id unique, every parent inside the trace (zero orphans),
each span nested under its parent on its own thread, and the JSON
loadable by the validator.  The tracer keeps one span stack per
thread behind one lock, which is what this checks.
"""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import TRACER, enable_tracing, span_tree_problems
from repro.obs.benchjson import validate_chrome_trace


def _traced_task(item):
    """Work body: two nested spans around trivial work."""
    with TRACER.span("stitch.work", item=item):
        with TRACER.span("stitch.inner"):
            return item * 2


def _by_id(events):
    return {e["args"]["span_id"]: e for e in events if "span_id" in e["args"]}


def _assert_inner_nests_on_its_thread(events):
    spans = _by_id(events)
    inner = [e for e in events if e["name"] == "stitch.inner"]
    assert len(inner) == 4
    for event in inner:
        parent = spans[event["args"]["parent_id"]]
        assert parent["name"] == "stitch.work"
        assert parent["tid"] == event["tid"]


class TestPoolStitching:
    def setup_method(self):
        enable_tracing()

    def teardown_method(self):
        TRACER.disable()
        TRACER.clear()

    def test_serial_fallback_same_tree_shape(self):
        # the flow's fan-out sites run their items in-process, in order
        with TRACER.span("stitch.root"):
            results = [_traced_task(item) for item in [1, 2, 3, 4]]
        assert results == [2, 4, 6, 8]
        events = TRACER.events()

        assert span_tree_problems(events) == []
        payload = json.loads(json.dumps(TRACER.chrome_trace()))
        validate_chrome_trace(payload)
        assert payload["metadata"]["trace_id"] == TRACER.trace_id
        root = next(e for e in events if e["name"] == "stitch.root")
        work = [e for e in events if e["name"] == "stitch.work"]
        assert [e["args"]["item"] for e in work] == [1, 2, 3, 4]
        for event in work:
            assert event["args"]["parent_id"] == root["args"]["span_id"]
            assert event["args"]["depth"] == root["args"]["depth"] + 1
        _assert_inner_nests_on_its_thread(events)
        assert {e["pid"] for e in events} == {os.getpid()}

    def test_disabled_tracing_ships_nothing(self):
        TRACER.disable()
        TRACER.clear()
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(_traced_task, [1, 2])) == [2, 4]
        assert [_traced_task(item) for item in [1, 2]] == [2, 4]
        assert TRACER.events() == []


class TestThreadsPlusWorkers:
    def teardown_method(self):
        TRACER.disable()
        TRACER.clear()

    def test_four_threads_two_workers_one_coherent_trace(self):
        enable_tracing()

        def thread_body(index):
            with TRACER.span("stitch.thread", index=index):
                with TRACER.span("stitch.thread.step"):
                    pass

        threads = [
            threading.Thread(target=thread_body, args=(i,)) for i in range(4)
        ]
        with TRACER.span("stitch.root"):
            for thread in threads:
                thread.start()
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(_traced_task, [1, 2, 3, 4])) == [2, 4, 6, 8]
            for thread in threads:
                thread.join()
        TRACER.disable()
        events = TRACER.events()

        assert span_tree_problems(events) == []  # unique ids, zero orphans
        validate_chrome_trace(json.loads(json.dumps(TRACER.chrome_trace())))
        spans = _by_id(events)
        assert len(spans) == len(events) == 1 + 4 * 2 + 4 * 2
        # per-thread nesting survived concurrency: each step's parent is
        # a thread span recorded on the same thread
        steps = [e for e in events if e["name"] == "stitch.thread.step"]
        assert len(steps) == 4
        for event in steps:
            parent = spans[event["args"]["parent_id"]]
            assert parent["name"] == "stitch.thread"
            assert parent["tid"] == event["tid"]
        # and the pool workers' spans nest on their own worker threads
        _assert_inner_nests_on_its_thread(events)
        work = [e for e in events if e["name"] == "stitch.work"]
        assert len({e["tid"] for e in work}) <= 2
