"""Property-based tests for the trace simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.isa import OpClass, WarpInstruction
from repro.trace.encoding import KernelTrace
from repro.trace.simulator import SCHEDULERS_PER_SM, SimulatorConfig, TraceSimulator

OPS = [
    OpClass.FP32,
    OpClass.INT32,
    OpClass.SFU,
    OpClass.LOAD_GLOBAL,
    OpClass.STORE_GLOBAL,
    OpClass.LOAD_SHARED,
    OpClass.BRANCH,
]


def random_stream(draw):
    length = draw(st.integers(min_value=1, max_value=40))
    stream = []
    for index in range(length):
        op = draw(st.sampled_from(OPS))
        stream.append(
            WarpInstruction(
                opclass=op,
                address=draw(st.integers(0, 2**20)) * 4 if op.is_memory else 0,
                dest=draw(st.integers(-1, 7)),
                srcs=(draw(st.integers(0, 7)),),
            )
        )
    stream.append(WarpInstruction(opclass=OpClass.EXIT))
    return tuple(stream)


@st.composite
def traces(draw):
    num_warps = draw(st.integers(min_value=1, max_value=6))
    return KernelTrace(
        kernel_name="prop",
        invocation_id=0,
        num_ctas=num_warps,
        cta_size=32,
        warps=tuple(random_stream(draw) for _ in range(num_warps)),
    )


@settings(max_examples=30, deadline=None)
@given(trace=traces())
def test_every_instruction_is_issued_exactly_once(trace):
    """Conservation: the simulator retires exactly the trace's instructions
    under greedy-then-oldest scheduling."""
    config = SimulatorConfig(num_sms=2)
    result = TraceSimulator(config).simulate(trace)
    assert result.warp_instructions == trace.num_instructions
    assert result.thread_instructions == trace.thread_instructions
    assert result.cycles >= 1


@settings(max_examples=15, deadline=None)
@given(trace=traces())
def test_simulation_is_deterministic(trace):
    config = SimulatorConfig(num_sms=2)
    a = TraceSimulator(config).simulate(trace)
    b = TraceSimulator(config).simulate(trace)
    assert a == b


@settings(max_examples=15, deadline=None)
@given(trace=traces())
def test_cycles_bounded_below_by_issue_width(trace):
    """A trace can never finish faster than the chip's peak issue rate."""
    config = SimulatorConfig(num_sms=2)
    result = TraceSimulator(config).simulate(trace)
    peak_issue = config.num_sms * SCHEDULERS_PER_SM
    assert result.cycles >= trace.num_instructions / peak_issue - 1
