"""The execution-mode compatibility table (``repro.sim.modes``).

Walks the full product of the options each simulator entry point
takes -- execute mode x sanitize x fault kind x retry x precompiled
kernels for ``Chip.run_tiles``, and execute mode x sanitize x injected
fault kind x precompiled kernel for ``AICore.run`` -- and checks that
each combination either runs or raises the error the table documents
for it.
"""

import itertools

import pytest

from repro.config import ChipConfig
from repro.errors import CoreFailure, PlanError, SimulationError
from repro.isa import Program
from repro.sim import (
    EXECUTE_MODES,
    AICore,
    BitFlip,
    Chip,
    Crash,
    FaultPlan,
    Injection,
    RetryPolicy,
    Stall,
    check_modes,
    compile_program,
)

TWO_CORES = ChipConfig(num_cores=2)

#: Fault kinds, as chip-level plan entries for tile 0.
FAULTS = {
    None: None,
    "stall": Stall(tile=0, cycles=25),
    "crash": Crash(tile=0),
    "silent-flip": BitFlip(tile=0, offset=3, bit=2, detected=False),
    "detected-flip": BitFlip(tile=0, offset=3, bit=2, detected=True),
}


def _injection(kind):
    """The same fault kinds as the injection one core sees."""
    if kind is None:
        return None
    fault = FAULTS[kind]
    return Injection(
        tile=0, core=0, attempt=0,
        stall=fault.cycles if kind == "stall" else 0,
        crash_at=0 if kind == "crash" else None,
        bitflips=(fault,) if isinstance(fault, BitFlip) else (),
    )


def documented_outcome(execute, sanitize, fault, retry, compiled, injection):
    """``(error type, message substring)`` the table documents, or
    ``None`` when the combination runs."""
    if compiled and execute != "jit":
        return SimulationError, "only meaningful with execute='jit'"
    if execute == "jit" and (fault not in (None, "silent-flip") or retry):
        return PlanError, "execute='jit' conflicts with"
    if injection is not None and execute != "numeric":
        return SimulationError, "injection= requires execute='numeric'"
    if sanitize and (fault or retry or injection):
        return SimulationError, "mutually exclusive"
    if sanitize and execute != "numeric":
        return SimulationError, "sanitized dispatch"
    return None


def _outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the outcome is the point
        return exc
    return None


def _mismatch(combo, expected, got):
    if expected is None:
        return None if got is None else f"{combo}: raised {got!r}"
    kind, text = expected
    if type(got) is kind and text in str(got):
        return None
    return f"{combo}: expected {kind.__name__}({text!r}), got {got!r}"


def test_chip_walks_the_full_table(pool_tiles):
    progs, _, _, make_gm = pool_tiles("numeric", c1=2)
    kernels = [compile_program(p, TWO_CORES) for p in progs]
    mismatches = []
    for execute, sanitize, fault, retry, compiled in itertools.product(
        EXECUTE_MODES, (False, True), FAULTS, (False, True), (False, True)
    ):
        combo = (execute, sanitize, fault, retry, compiled)
        got = _outcome(lambda: Chip(TWO_CORES).run_tiles(
            progs, make_gm(), execute=execute, sanitize=sanitize,
            faults=None if fault is None else FaultPlan((FAULTS[fault],)),
            retry=RetryPolicy() if retry else None,
            compiled=kernels if compiled else None,
        ))
        expected = documented_outcome(
            execute, sanitize, fault, retry, compiled, None
        )
        mismatches.append(_mismatch(combo, expected, got))
    assert [m for m in mismatches if m] == []


def test_aicore_walks_the_full_table(pool_tiles):
    progs, _, _, make_gm = pool_tiles("numeric", c1=1)
    prog = progs[0]
    kernel = compile_program(prog, TWO_CORES)
    mismatches = []
    for execute, sanitize, kind, compiled in itertools.product(
        EXECUTE_MODES, (False, True), FAULTS, (False, True)
    ):
        combo = (execute, sanitize, kind, compiled)
        injection = _injection(kind)
        got = _outcome(lambda: AICore(TWO_CORES).run(
            prog, make_gm(), execute=execute, sanitize=sanitize,
            injection=injection, compiled=kernel if compiled else None,
        ))
        expected = documented_outcome(
            execute, sanitize, None, False, compiled, injection
        )
        if expected is None and kind in ("crash", "detected-flip"):
            # Runs -- and the injected fault fires.
            expected = CoreFailure, "core 0"
        mismatches.append(_mismatch(combo, expected, got))
    assert [m for m in mismatches if m] == []


@pytest.mark.parametrize("check", [
    lambda: check_modes("warp"),
    lambda: Chip(TWO_CORES).run_tiles([Program("p")], None, execute="warp"),
    lambda: AICore(TWO_CORES).run(None, None, execute="warp"),
])
def test_unknown_mode_names_every_mode(check):
    with pytest.raises(
        SimulationError, match="unknown execution mode 'warp'; expected "
        "'numeric', 'cycles' or 'jit'",
    ):
        check()


def test_cycles_mode_rejects_injection(pool_tiles):
    """Cycles-only runs have no data pass to inject into; the chip's
    resilient dispatcher fails cycles-mode attempts itself instead."""
    progs, _, _, _ = pool_tiles("cycles", c1=1)
    with pytest.raises(SimulationError, match="injection="):
        AICore(TWO_CORES).run(
            progs[0], None, execute="cycles", injection=_injection("stall")
        )
