"""Command-line front end: verify, trace, transform, construct, catalog, sensitivity.

Output is deterministic for a given invocation: no timestamps, fixed
iteration order, and amplitudes rendered as exact fractions over sqrt(2)
whenever they are within tolerance of one (0, ±1/2, ±1/sqrt2, ±1/(2 sqrt2),
±1), else as 6-decimal floats; however large the tolerance, only within
just under half the smallest gap between two of them (``_LABEL_REACH``,
about 0.0732), so an amplitude never takes the label of a farther one.

Every command but ``trace``, which streams its rows, prints one result
through one function, :func:`_report`: in text its lines and a ``FAIL:``
line per failed check, in JSON one document, indented for ``verify``,
``construct`` and ``catalog`` and on one line for ``transform`` and
``sensitivity``; it exits 1 exactly when a check failed.  Only ``verify``,
``trace`` and ``construct`` read ``--tolerance``; the others refuse it.
Both ``builtin:<name>[:n]`` and ``<name>[:n]`` are read by :func:`_named`.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import sys

import click
import numpy as np

from . import catalog as catalog_module
from . import constructors, transforms
from .algorithms import BUILTINS
from .boolfun import (
    NAMED_FUNCTIONS,
    TruthTable,
    all_inputs,
    named_function,
    sensitivity,
    table_from_csv,
)
from .linalg import NORM_TOL, _check_permutation, _check_tol, _within
from .serialize import _json_chunks, _json_text, load, save
from .simulator import QQA, QueryGate, SimulationTrace, _outcome, trace as run_trace, verify

_SQRT2 = math.sqrt(2.0)
_NAMED_AMPLITUDES = (
    (0.0, "0"),
    (1.0, "1"),
    (0.5, "1/2"),
    (1.0 / _SQRT2, "1/√2"),
    (1.0 / (2.0 * _SQRT2), "1/(2√2)"),
)


#: The real values :func:`_amplitude_labels` names, with their labels, in the order it tries them.
_NAMED_VALUES = tuple(
    (sign * magnitude, ("-" if sign < 0 else "") + label)
    for magnitude, label in _NAMED_AMPLITUDES
    for sign in ((1.0, -1.0) if magnitude else (1.0,))
)

#: The farthest a real part may lie from a named value and take its label, whatever the
#: tolerance: just below half the smallest gap between two named values (1/(2√2) and 1/2),
#: so that no real part is within reach of two of them.
_LABEL_REACH = float(np.nextafter(np.diff(sorted(v for v, _ in _NAMED_VALUES)).min() / 2, 0))


def _amplitude_labels(values, tol: float) -> list:
    """The label of every value of an array, in order, flattened.

    A value whose imaginary part is within ``tol`` of 0 takes the named
    value in ``_NAMED_VALUES`` within ``min(tol, _LABEL_REACH)`` of its real
    part, of which there is one at most; each rule runs as one pass over the
    whole array.  Any other value is written with 6 decimals, its imaginary
    part too unless that is within ``tol``.
    """
    z = np.asarray(values, dtype=complex).ravel()
    labels = np.empty(len(z), dtype=object)
    real = _within(np.abs(z.imag), tol)
    left = real.copy()
    reach = min(tol, _LABEL_REACH)
    for value, label in _NAMED_VALUES:
        hit = left & _within(np.abs(z.real - value), reach)
        labels[hit] = label
        left &= ~hit
    for i in np.flatnonzero(~real | left).tolist():
        labels[i] = f"{z[i].real:.6f}" if real[i] else f"{z[i].real:.6f}{z[i].imag:+.6f}i"
    return labels.tolist()


def _step_labels(a: QQA) -> list:
    labels = []
    unitaries = queries = 0
    for step in a.steps:
        if isinstance(step, QueryGate):
            queries += 1
            labels.append(f"after Q{queries}")
        else:
            unitaries += 1
            labels.append(f"after U{unitaries}")
    if labels:
        labels[-1] = "final"
    return labels


def render_trace(a: QQA, t: SimulationTrace, tol: float = NORM_TOL) -> str:
    """One table row: input, state after each step, and the outcome."""
    probs = _outcome(a, t.states[-1])
    certain = [str(k) for k in (1, 0) if _within(1.0 - probs[k], tol)]
    outcome = certain[0] if certain else f"P(0)={probs[0]:.6f} P(1)={probs[1]:.6f}"
    cells = [t.input or "(empty)"]
    labels = _amplitude_labels(t.states[1:], tol)  # every state of the row in one pass
    m = a.amplitudes
    cells.extend("(" + ", ".join(labels[k:k + m]) + ")" for k in range(0, len(labels), m))
    cells.append(outcome)
    return " | ".join(cells)


def _read(reader, spec: str, missing: str):
    """``reader(spec)``, any failure a one-line error that names the user's file."""
    try:
        return reader(spec)
    except FileNotFoundError:
        raise click.ClickException(f"{missing}: {spec}")
    except OSError as error:
        raise click.ClickException(f"cannot read {spec}: {error.strerror or error}")
    except ValueError as error:  # a JSON decoding error too
        raise click.ClickException(f"{spec}: {error}")


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write as a one-line error that names the user's ``path``."""
    try:
        yield
    except OSError as error:
        raise click.ClickException(f"cannot write {path}: {error.strerror or error}")


@contextlib.contextmanager
def _reported():
    """Report a rejected argument, or a simulation whose state norm drifts, as a one-line error."""
    try:
        yield
    except (ValueError, RuntimeError) as error:
        raise click.ClickException(str(error))


def _named(spec: str, name: str, separator: str, param: str, make, default: int | None = None):
    """``make()`` for a ``name`` that takes no parameter, else ``make(n)`` for the ``n`` of
    ``name:n``: ``default`` if left out, or else it must be given.  A parameter after a name
    that takes none, one not an integer and an error of ``make`` read ``{spec}: {error}``."""
    try:
        if not NAMED_FUNCTIONS[name]:
            if separator:
                raise ValueError(f"{name} takes no parameter")
            return make()
        if not param and default is None:
            raise click.ClickException(f"{name} needs an arity, e.g. {name}:3")
        return make(int(param) if param else default)
    except ValueError as error:
        raise click.ClickException(f"{spec}: {error}")


def _load_algorithm(spec: str) -> QQA:
    if spec.startswith("builtin:"):
        name, separator, param = spec[len("builtin:"):].partition(":")
        if name not in BUILTINS:
            known = [f"{b}[:n]" if NAMED_FUNCTIONS[b] else b for b in BUILTINS]
            raise click.ClickException(
                f"unknown builtin {name!r} (use {', '.join(known[:-1])} or {known[-1]})"
            )
        return _named(spec, name, separator, param, BUILTINS[name], default=1)
    return _read(load, spec, "no such algorithm file")


def _load_function(spec: str) -> TruthTable:
    name, separator, param = spec.partition(":")
    if name in NAMED_FUNCTIONS:
        return _named(spec, name, separator, param, functools.partial(named_function, name))
    return _read(table_from_csv, spec, "no such function (not a known name or CSV file)")


def _parse_sigma(text: str, size: int, what: str) -> tuple:
    try:
        sigma = [int(part) - 1 for part in text.split(",")]
    except ValueError:
        raise click.ClickException(f"--sigma must be comma-separated integers, got {text!r}")
    try:
        return _check_permutation(sigma, size, "--sigma")
    except ValueError:  # its message counts from 0; the option counts from 1
        raise click.ClickException(f"--sigma must be a permutation of 1..{size} ({what})")


def _report(obj, lines: list, document, failures=(), indented: bool = True) -> None:
    """Print a command's result: its text ``lines`` and a ``FAIL:`` line per failure, or with
    ``--format json`` the ``document()``, built only then, ``indented`` as ``_json_text`` writes
    it or on one line.  Exit 1 exactly when there is a failure."""
    if obj["fmt"] == "json":
        click.echo(_json_text(document()) if indented else json.dumps(document()))
    else:
        click.echo("\n".join([*lines, *(f"FAIL: {failure}" for failure in failures)]))
    if failures:
        sys.exit(1)


#: The commands that read ``--tolerance``; any other refuses it.
_TOLERANT = ("verify", "trace", "construct")


@click.group()
@click.option("--tolerance", type=float, default=NORM_TOL, show_default=True,
              help="Numerical tolerance for probability and exactness checks.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="Output format.")
@click.pass_context
def main(ctx, tolerance, fmt):
    """Simulate, verify, transform, and compose quantum query algorithms."""
    try:
        _check_tol(tolerance, probability=True)
    except ValueError:
        raise click.ClickException("--tolerance must be positive and below 1/2")
    given = ctx.get_parameter_source("tolerance") is not click.core.ParameterSource.DEFAULT
    if given and ctx.invoked_subcommand not in _TOLERANT:
        raise click.ClickException(f"{ctx.invoked_subcommand} takes no --tolerance")
    ctx.obj = {"tol": tolerance, "fmt": fmt}


@main.command("verify")
@click.option("--algorithm", "algorithm_spec", required=True,
              help="Algorithm file or builtin:<name>.")
@click.option("--function", "function_spec", required=True,
              help="Function name (e.g. equality3, constant1:3) or CSV file.")
@click.option("--expect-p", type=float, default=None,
              help="Fail unless the worst-case success probability matches.")
@click.option("--expect-exact", is_flag=True, help="Fail unless the algorithm is exact.")
@click.pass_obj
def verify_command(obj, algorithm_spec, function_spec, expect_p, expect_exact):
    """Exhaustively verify an algorithm against a Boolean function."""
    a = _load_algorithm(algorithm_spec)
    f = _load_function(function_spec)
    with _reported():
        report = verify(a, f, tol=obj["tol"])
    worst = f"{report.worst_case_p:.6f} on input {report.witness}"
    failures = []
    if _within(report.worst_case_p - 0.5, obj["tol"]):
        failures.append(f"worst-case success probability {worst} is not above 1/2")
    if expect_exact and not report.exact:
        failures.append(f"expected exact, got worst-case p = {worst}")
    if expect_p is not None and not _within(abs(report.worst_case_p - expect_p), obj["tol"]):
        failures.append(f"expected p = {expect_p:.6f}, got {worst}")
    kind = "exact" if report.exact else "bounded-error"
    _report(obj, [f"{kind}, p = {report.worst_case_p:.6f}, queries = {report.queries}"], lambda: {
        "exact": report.exact,
        "worst_case_p": report.worst_case_p,
        "queries": report.queries,
        "per_input": report.per_input,
        "failures": failures,
    }, failures)


def _trace_row(a: QQA, bits: str) -> dict:
    """The JSON row of ``trace`` for one input."""
    t = run_trace(a, bits)
    return {
        "input": bits,
        "states": np.array(t.states),
        "probabilities": {str(k): v for k, v in _outcome(a, t.states[-1]).items()},
    }


@main.command("trace")
@click.option("--algorithm", "algorithm_spec", required=True)
@click.option("--input", "input_bits", default=None, help="Input bit string, e.g. 110.")
@click.option("--all-inputs", "every_input", is_flag=True, help="Trace every input.")
@click.pass_obj
def trace_command(obj, algorithm_spec, input_bits, every_input):
    """Print the state after every step for one input (or all of them)."""
    a = _load_algorithm(algorithm_spec)
    if not every_input and input_bits is None:
        raise click.ClickException("give --input BITS or --all-inputs")
    if every_input and input_bits is not None:
        raise click.ClickException("give --input BITS or --all-inputs, not both")
    with _reported():  # a bad input, or a state norm that drifts as its row is written
        inputs = all_inputs(a.arity) if every_input else [input_bits]
        if obj["fmt"] == "json":
            rows = (_trace_row(a, bits) for bits in inputs)
            for chunk in _json_chunks(rows):  # one row at a time
                click.echo(chunk, nl=False)
            click.echo()
            return
        rows = (render_trace(a, run_trace(a, bits), obj["tol"]) for bits in inputs)
        first = next(rows)  # before the header, so a drift on it leaves stdout empty
        click.echo(" | ".join(["input", *_step_labels(a), "result"]))
        click.echo(first)
        for row in rows:
            click.echo(row)


#: Per method: the name of its :mod:`qqasim.transforms` function and, if it takes
#: ``--sigma``, the algorithm's field that is the size it permutes and what that counts.
_TRANSFORM_METHODS = {
    "invert": ("invert_outputs", None, None),
    "permute-outputs": ("permute_outputs", "amplitudes", "outputs"),
    "permute-vars": ("permute_variables", "arity", "variables"),
}


@main.command("transform")
@click.option("--algorithm", "algorithm_spec", required=True)
@click.option("--method", required=True, type=click.Choice(list(_TRANSFORM_METHODS)))
@click.option("--sigma", default=None, help="1-based permutation, comma separated.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def transform_command(obj, algorithm_spec, method, sigma, out_path):
    """Apply one transformation and write the resulting algorithm."""
    a = _load_algorithm(algorithm_spec)
    function_name, size, what = _TRANSFORM_METHODS[method]
    if size and sigma is None:
        raise click.ClickException(f"{method} needs --sigma")
    if not size and sigma is not None:
        raise click.ClickException(f"{method} takes no --sigma")
    args = (_parse_sigma(sigma, getattr(a, size), what),) if size else ()
    with _reported():
        result = getattr(transforms, function_name)(a, *args)
    with _writing(out_path):
        save(result, out_path, provenance=f"{method}({algorithm_spec})")
    _report(obj, [f"{method} applied; algorithm written to {out_path}"],
            lambda: {"method": method, "out": out_path}, indented=False)


#: Each combiner's row of the combiner table, by its ``--method``.
_CONSTRUCT_METHODS = {row.method: row for row in constructors._COMBINERS}


@main.command("construct")
@click.option("--method", required=True, type=click.Choice(sorted(_CONSTRUCT_METHODS)))
@click.option("--inputs", "inputs_spec", required=True,
              help="Comma-separated algorithm files or builtin:<name> entries.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def construct_command(obj, method, inputs_spec, out_path):
    """Combine exact algorithms into a bounded-error one and write it."""
    row = _CONSTRUCT_METHODS[method]
    specs = [part.strip() for part in inputs_spec.split(",") if part.strip()]
    if len(specs) != row.parts:
        raise click.ClickException(f"{method} needs exactly {row.parts} inputs, got {len(specs)}")
    algorithms = [_load_algorithm(spec) for spec in specs]
    with _reported():
        result = getattr(constructors, row.function)(*algorithms)
        report = verify(result.algorithm, result.target, tol=obj["tol"])
    held = _within(result.guaranteed_p - report.worst_case_p, obj["tol"])
    failures = [] if held else [f"verified probability {report.worst_case_p!r} "
                                f"on input {report.witness} fell below the guarantee"]
    if held:  # a construction that misses its guarantee writes nothing
        with _writing(out_path):
            save(result.algorithm, out_path, provenance=f"{method}({inputs_spec})")
    written = "not written" if failures else f"written to {out_path}"
    _report(obj, [f"{method}: guaranteed p = {result.guaranteed_p:.6f}, "
                  f"verified worst-case p = {report.worst_case_p:.6f}, "
                  f"queries = {report.queries}; {written}"], lambda: {
        "method": method,
        "out": None if failures else out_path,
        "guaranteed_p": result.guaranteed_p,
        "worst_case_p": report.worst_case_p,
        "queries": report.queries,
        "target_hex": result.target.as_hex(),
        **({"failures": failures} if failures else {}),
    }, failures)


@main.command("catalog")
@click.option("--set", "set_name", default="all",
              type=click.Choice([*catalog_module.SET_NAMES, "all"]), show_default=True)
@click.option("--export", "export_path", default=None, type=click.Path(dir_okay=False),
              help="Also write every entry to this CSV file.")
@click.pass_obj
def catalog_command(obj, set_name, export_path):
    """Regenerate the catalogued function families and print their summary."""
    # One entry at a time: of each entry only its CSV fields (with --export)
    # are kept, and of each family its summary.  The CSV is written at the
    # end, so a run that fails leaves no file.
    names = catalog_module.SET_NAMES if set_name == "all" else (set_name,)
    keep = catalog_module._csv_fields if export_path is not None else (lambda entry, table: None)
    families = list(catalog_module._families(names, keep))
    if export_path is not None:
        with _writing(export_path):
            catalog_module._write_csv(families, export_path)
    distinct = sum(len(kept) for _, kept in families)
    applications = sum(s.candidates for s, _ in families)
    lines = [f"{'set':<12}{'size':>6}  {'arguments':<10}{'queries':>8}  probability"]
    for s, kept in families:
        arities, label = ",".join(str(n) for n in s.arities), s.probability_label
        lines.append(f"{s.name:<12}{len(kept):>6}  {arities:<10}{s.queries:>8}  {label}")
    _report(obj, [*lines, f"distinct functions: {distinct}", f"Total {applications}"], lambda: {
        "sets": [{"name": s.name, "size": len(kept), "arities": list(s.arities),
                  "queries": s.queries, "probability": s.guaranteed_p,
                  "applications": s.candidates} for s, kept in families],
        "distinct_functions": distinct,
        "total_applications": applications,
    })


@main.command("sensitivity")
@click.option("--function", "function_spec", required=True)
@click.pass_obj
def sensitivity_command(obj, function_spec):
    """Exhaustive-scan sensitivity of a Boolean function."""
    f = _load_function(function_spec)
    result = sensitivity(f)
    _report(obj, [f"sensitivity = {result.value} (witness input {result.witness_input})"],
            lambda: {"sensitivity": result.value, "witness": result.witness_input,
                     "arity": f.arity}, indented=False)


if __name__ == "__main__":
    main()
