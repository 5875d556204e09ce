"""The execution-mode compatibility table.

Every layer that accepts an ``execute=`` mode -- :meth:`AICore.run
<repro.sim.aicore.AICore.run>`, :class:`~repro.sim.chip.Chip`'s
dispatcher, the plan, the operator drivers and the serving requests --
validates it here, and the two simulator entry points check the
optional instrumentation they were handed (``sanitize=``, ``faults=``,
``retry=``, ``injection=``, ``compiled=``) against one ordered table,
:data:`MODE_RULES`.  The first rule that matches raises; a combination
no rule matches runs.
"""

from __future__ import annotations

from types import SimpleNamespace

from ..errors import PlanError, SimulationError
from .faults import BitFlip, FaultInjector

#: The execution modes every layer accepts: the per-instruction
#: interpreter, the analytic cycles-only path and the NumPy JIT.
EXECUTE_MODES = ("numeric", "cycles", "jit")

#: ``(applies, error type, message)`` rows, checked in order.
#: ``applies`` and the message's fields read the normalised request
#: built by :func:`check_modes`.
MODE_RULES = (
    (
        lambda r: r.compiled and r.execute != "jit",
        SimulationError,
        "compiled= supplies JIT kernels and is only meaningful with "
        "execute='jit'",
    ),
    (
        lambda r: r.execute == "jit" and r.jit_conflicts,
        PlanError,
        "execute='jit' conflicts with {jit_conflicts}: fused batch "
        "kernels have no per-instruction boundaries for fault injection "
        "or retry accounting.  Only *silent* BitFlip plans "
        "(detected=False) compose with the JIT -- their flips land on "
        "the kernel's written global-memory tensors post-execute.  Run "
        "the interpreter (execute='numeric') for resilient dispatch",
    ),
    (
        lambda r: r.injection and r.execute != "numeric",
        SimulationError,
        "injection= requires execute='numeric': faults are injected at "
        "per-instruction boundaries of the interpreter, which cycles-only "
        "runs and the JIT's fused batch steps do not have",
    ),
    (
        lambda r: r.sanitize and r.faulted,
        SimulationError,
        "sanitize= and fault injection (faults=/retry=/injection=) are "
        "mutually exclusive: fault injection corrupts scratch-pad state "
        "on purpose, which strict mode would (correctly) reject",
    ),
    (
        lambda r: r.sanitize and r.execute != "numeric",
        SimulationError,
        "sanitized dispatch must execute numerically "
        "(execute='numeric'): cycles-only runs never touch buffer data, "
        "and JIT runs bypass the per-instruction loop strict mode "
        "instruments",
    ),
)


def check_execute(execute: str, error: type = SimulationError) -> None:
    """Raise ``error`` unless ``execute`` is one of :data:`EXECUTE_MODES`."""
    if execute not in EXECUTE_MODES:
        *head, last = EXECUTE_MODES
        raise error(
            f"unknown execution mode {execute!r}; expected "
            f"{', '.join(map(repr, head))} or {last!r}"
        )


def _jit_conflicts(faults, retry) -> str:
    """What in ``faults``/``retry`` the JIT cannot run ("" = nothing)."""
    plan = faults.plan if isinstance(faults, FaultInjector) else faults
    conflicts = []
    if plan is not None and not plan.silent_only:
        kinds = sorted(
            {
                "BitFlip(detected=True)"
                if isinstance(f, BitFlip)
                else type(f).__name__
                for f in plan.faults
                if not (isinstance(f, BitFlip) and not f.detected)
            }
        )
        conflicts.append(f"faults= (fault kinds: {', '.join(kinds)})")
    if retry is not None:
        conflicts.append("retry= (resilient retry)")
    return " and ".join(conflicts)


def check_modes(
    execute: str,
    *,
    sanitize=None,
    faults=None,
    retry=None,
    injection=None,
    compiled=None,
) -> None:
    """Raise if this combination of execution options cannot run.

    ``execute`` must be one of :data:`EXECUTE_MODES`; the optional
    arguments are the instrumentation a caller asked for (``None`` or
    false = not asked).  The first matching row of :data:`MODE_RULES`
    raises its error.
    """
    check_execute(execute)
    faulted = not (faults is None and retry is None and injection is None)
    if not (sanitize or faulted or compiled is not None):
        return
    request = SimpleNamespace(
        execute=execute,
        sanitize=bool(sanitize),
        injection=injection is not None,
        compiled=compiled is not None,
        faulted=faulted,
        jit_conflicts=_jit_conflicts(faults, retry),
    )
    for applies, error, message in MODE_RULES:
        if applies(request):
            raise error(message.format(**vars(request)))
