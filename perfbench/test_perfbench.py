"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, traced  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 8.0, 9.5, parent=0),  # overlaps b: the union is covered once
        Span("leaf", 9.2, 12.0, parent=4),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4.5, 3 - 1, 1, 4, 1.5 - 0.3, 2.8])


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    # outer runs 0..5, each inner one tick: 5 - 2 = 3 of its own.
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_working_out_a_detail_is_charged_to_no_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None, detail=lambda args: next(ticks))
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    # outer 0..5; inner 1..4, of which 2..4 is the detail (it reads a tick itself).
    assert [(s.start, s.end, s.overhead) for s in tracer.spans] == [(0, 5, 0), (1, 4, 2)]
    # Had the detail been outside inner's span, outer would own 4 ticks, not 2.
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_distinct_per_application_is_read_from_the_catalog_output(tmp_path):
    session = workloads.CatalogSession(tmp_path, in_process=True)
    session.prepare()
    assert [op.problems for op in session.run()] == [[]]
    assert run.distinct_per_application(session) == 624 / 832
    session.summary = ({}, 600, 800)
    assert run.distinct_per_application(session) == 0.75
    assert run.distinct_per_application(workloads.CliSession(1, tmp_path / "cli")) == 0.0


def _bindings():
    """Every module-level name in qqasim, plus the patched class and command attributes."""
    import qqasim.cli
    import qqasim.simulator

    found = {(name, attr): value for name, module in sys.modules.items()
             if name == "qqasim" or name.startswith("qqasim.")
             for attr, value in vars(module).items()}
    found["QQA.__post_init__"] = qqasim.simulator.QQA.__dict__["__post_init__"]
    for name, command in qqasim.cli.main.commands.items():
        found[f"cli.{name}"] = command.callback
    return found


def test_wrappers_are_installed_where_callers_look_and_restored():
    import qqasim.catalog
    import qqasim.cli
    import qqasim.simulator
    import qqasim.transforms

    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with traced(tracer):
            for module in (qqasim.catalog, qqasim.transforms, qqasim.cli, qqasim.simulator):
                assert module.verify is not before[(module.__name__, "verify")]
            assert qqasim.cli.run_trace is not before[("qqasim.cli", "run_trace")]
            raise RuntimeError("leave the traced block early")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_verify_counts_one_simulation_and_every_input():
    from qqasim.algorithms import equality3_algorithm
    from qqasim.boolfun import named_function
    import qqasim.simulator

    a, f = equality3_algorithm(), named_function("equality3")
    tracer = Tracer()
    with traced(tracer):
        qqasim.simulator.verify(a, f)
    metrics = tracing.layer_metrics(tracer, algorithms=1)
    assert metrics["simulator.verify.calls"] == 1
    assert metrics["simulator.run_all.calls"] == 1
    assert metrics["simulator.run_all.m4n3.calls"] == 1
    assert metrics["simulator.run_all.rows"] == 8
    assert metrics["boolfun.bit_string.calls"] == 8
    assert metrics["simulator.sims_per_algorithm"] == 1
    assert metrics["simulator.verify.self_s"] > 0


def test_a_flipped_csv_byte_counts_as_a_failure(tmp_path):
    export = tmp_path / "catalog.csv"
    stdout = workloads.Invoker()(["catalog", "--set", "all", "--export", str(export)]).output
    summary = workloads.parse_summary(stdout)
    good = export.read_bytes()
    assert workloads.check_catalog(summary, good) == []

    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    problems = workloads.check_catalog(summary, bytes(flipped))
    assert len(problems) == 1 and "sha256" in problems[0]

    summary = run.summary([workloads.Op(4.0), workloads.Op(4.0, problems)], {})
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)


def test_a_failing_command_reports_its_exit_code():
    invoke = workloads.Invoker()
    assert invoke(["verify", "--algorithm", "builtin:equality3", "--function", "equality3"]).exit_code == 0
    mismatch = invoke(["verify", "--algorithm", "builtin:equality3", "--function", "equality3",
                       "--expect-p", "0.5"])
    assert mismatch.exit_code == 1 and "FAIL" in mismatch.output
    unknown = invoke(["verify", "--algorithm", "builtin:nope", "--function", "equality3"])
    assert unknown.exit_code == 1 and "unknown builtin" in unknown.output


def test_stream_is_seeded_distinct_and_on_its_floors():
    first = workloads.build_stream(7)
    again = workloads.build_stream(7)
    other = workloads.build_stream(8)

    def key(entry):
        kind, a, f = entry
        return kind, a.arity, f.bits, b"".join(
            s.tobytes() if hasattr(s, "tobytes") else repr(s.assignments).encode() for s in a.steps)

    keys = [key(e) for e in first]
    assert keys == [key(e) for e in again]
    assert keys != [key(e) for e in other]
    assert len(set(keys)) == len(keys) == sum(workloads.STREAM_SHAPES.values())
    session = workloads.VerifyStreamSession(first[:20])
    session.prepare()
    assert all(not op.problems for op in session.run())


def test_cli_session_cycle_succeeds_and_is_seeded(tmp_path):
    outputs = []
    for name in ("one", "two"):
        session = workloads.CliSession(3, tmp_path / name)
        ops = session.run() + session.run()
        assert [op.problems for op in ops] == [[]] * 54
        outputs.append([s.spec.replace(str(tmp_path / name), "") for s in session.exact])
    assert outputs[0] == outputs[1]


def test_hex_to_csv_matches_the_program_packing(tmp_path):
    from qqasim.boolfun import named_function, table_from_csv

    table = named_function("majority", 5)
    workloads.hex_to_csv(table.as_hex(), 5, tmp_path / "t.csv")
    assert table_from_csv(tmp_path / "t.csv") == table


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, label = run.tail(values)
    assert value == 90 and sum(v > value for v in values) == 10 and label == "p90.00"
    assert run.tail([3, 1, 2]) == (3, "max")


def test_a_run_spread_over_measuring_processes_keeps_every_operation(tmp_path):
    setups, ops, units = run.run_workers("cli-session", 5, 0.5, tmp_path)
    assert len(setups) == run.WORKERS * (run.SETUPS_BEFORE["cli-session"] + 1)
    assert all(s > 0 for s in setups)
    assert len(units) >= run.WORKERS and sum(count for count, _ in units) == len(ops)
    assert all(not op.problems for op in ops)
