"""Pre-decoded instruction records: the simulation fast path.

The timing and functional simulators spend their lives in per-cycle /
per-instruction loops.  Walking ``inst.<attribute>`` chains and
comparing :class:`~repro.isa.instructions.Opcode` enum members on every
iteration dominates those loops, so this module lowers each static
:class:`~repro.isa.instructions.Instruction` once, up front:

* :func:`decode_program` flattens every instruction into a plain tuple
  of ``int`` operands, consumed by the functional interpreter's
  dispatch loop (:mod:`repro.sim.functional`), once per run.
* :func:`control_kind` / :func:`latency_class` give the ``KIND_*`` and
  ``LAT_*`` classes the interpreter writes into the trace's ``kind``
  and ``lat`` columns (:class:`~repro.sim.trace.Trace`), which the
  PolyFlow timing kernel's fetch and issue loops dispatch on.

Both are pure functions of the static instruction, so consuming them
cannot change simulated behaviour — the golden-trace and differential
suites pin that equivalence byte for byte.
"""

from repro.isa.instructions import REGISTER_ALIASES

_RA = REGISTER_ALIASES["ra"]

# -- control-flow kinds (fetch-loop dispatch) ---------------------------------

#: No effect on the fetch stream.
KIND_PLAIN = 0
#: Conditional branch: consult gshare, stall on mispredict, stop on taken.
KIND_COND_BRANCH = 1
#: Direct call (JAL): push the return address, stop fetching.
KIND_CALL_DIRECT = 2
#: Indirect call (JALR): push, consult the indirect predictor, stop.
KIND_CALL_INDIRECT = 3
#: Return (JR through ``ra``): pop the return address stack, stop.
KIND_RETURN = 4
#: Indirect jump (JR through any other register): indirect predictor, stop.
KIND_SWITCH = 5
#: Direct jump (J): perfectly predicted taken transfer, stop.
KIND_DIRECT_JUMP = 6

# -- latency classes (issue-loop dispatch) ------------------------------------

LAT_ALU = 0
LAT_MUL = 1
LAT_LOAD = 2
LAT_STORE = 3


def control_kind(inst):
    """The fetch-loop ``KIND_*`` of one instruction.

    Mirrors the branch structure of the timing model's fetch stage: the
    call test precedes the return/direct-jump tests, so JAL classifies
    as a direct call (not a direct jump) and JALR as an indirect call.
    """
    if inst.is_conditional_branch:
        return KIND_COND_BRANCH
    if inst.is_call:
        return KIND_CALL_INDIRECT if inst.is_indirect_jump else KIND_CALL_DIRECT
    if inst.is_return_like:
        return KIND_RETURN if inst.rs == _RA else KIND_SWITCH
    if inst.is_direct_jump:
        return KIND_DIRECT_JUMP
    return KIND_PLAIN


def latency_class(inst):
    """The issue-loop ``LAT_*`` of one instruction."""
    if inst.is_load:
        return LAT_LOAD
    if inst.is_store:
        return LAT_STORE
    if inst.latency_class == "mul":
        return LAT_MUL
    return LAT_ALU


# -- static program predecode (functional interpreter) ------------------------


def _source_count(inst):
    if inst.rs is None:
        return 0
    if inst.rt is None:
        return 1
    return 2


def decode_program(program):
    """Flat operand records for every static instruction of ``program``.

    Returns a dict mapping each text PC to the tuple::

        (opcode, rd, rs, rt, imm, target, nsrc, inst)

    where every operand is a plain ``int`` (absent operands decode to
    0 — each opcode's interpreter path only reads the operands the ISA
    defines for it, so the placeholder is never observable), ``nsrc``
    is the number of register sources for producer tracking, and
    ``inst`` is the original :class:`Instruction` for the trace's
    ``inst`` column.  Nothing is stored on the program.
    """
    decoded = {}
    for inst in program.instructions:
        decoded[inst.pc] = (
            int(inst.opcode),
            inst.rd if inst.rd is not None else 0,
            inst.rs if inst.rs is not None else 0,
            inst.rt if inst.rt is not None else 0,
            inst.imm,
            inst.target if inst.target is not None else 0,
            _source_count(inst),
            inst,
        )
    return decoded
