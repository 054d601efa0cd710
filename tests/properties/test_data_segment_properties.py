"""A program's data is byte segments; the machine's memory is unchanged.

The assembler emits initialized data as ascending ``(address, bytes)``
segments and :class:`~repro.sim.functional.MachineState` expands them
into its byte map.  The property below builds the per-byte map the
earlier emission rule gave (``.word`` stores eight little-endian bytes
per value, ``.byte`` the low byte, ``.space`` only advances the cursor)
and checks the machine starts from exactly that map.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples

from repro.isa import assemble
from repro.isa.program import DATA_BASE
from repro.sim import MachineState

_VALUES = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    # A reference to the label of some directive (index modulo count).
    st.integers(min_value=0, max_value=63).map(lambda index: ("ref", index)),
)

_DIRECTIVES = st.lists(
    st.one_of(
        st.tuples(st.just(".word"), st.lists(_VALUES, min_size=1, max_size=4)),
        st.tuples(st.just(".byte"), st.lists(_VALUES, min_size=1, max_size=6)),
        st.tuples(st.just(".space"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1,
    max_size=24,
)


def _size(mnemonic, operand):
    if mnemonic == ".space":
        return operand
    return len(operand) * (8 if mnemonic == ".word" else 1)


@given(_DIRECTIVES)
@settings(max_examples=examples(150), deadline=None)
def test_segments_expand_to_the_per_byte_image(directives):
    addresses = []
    cursor = DATA_BASE
    for mnemonic, operand in directives:
        addresses.append(cursor)
        cursor += _size(mnemonic, operand)

    def resolve(value):
        if isinstance(value, tuple):
            return addresses[value[1] % len(addresses)]
        return value

    def render(value):
        if isinstance(value, tuple):
            return "d{}".format(value[1] % len(addresses))
        return str(value)

    lines = [".text", "    halt", ".data"]
    expected = {}
    for index, (mnemonic, operand) in enumerate(directives):
        cursor = addresses[index]
        if mnemonic == ".space":
            lines.append("d{}: .space {}".format(index, operand))
            continue
        lines.append("d{}: {} {}".format(index, mnemonic, ", ".join(map(render, operand))))
        for value in map(resolve, operand):
            width = 8 if mnemonic == ".word" else 1
            for offset in range(width):
                expected[cursor + offset] = (value >> (8 * offset)) & 0xFF
            cursor += width
    program = assemble("\n".join(lines))

    assert MachineState(program).memory == expected
    for index, address in enumerate(addresses):
        assert program.address_of("d{}".format(index)) == address
    # Ascending, non-empty and maximal: a gap separates neighbours.
    end = None
    for address, data in program.data_segments:
        assert data and (end is None or address > end)
        end = address + len(data)
