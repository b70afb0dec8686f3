"""Bounded refinement checking for dataflow architectures.

Components are nondeterministic transducers over timed streams; systems
wire them together by channel name.  The package checks architecture
consistency, enumerates bounded behaviors, decides behavior inclusion
within explicit bounds, and applies premise-checked transformation rules,
including replacement under an invariant.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BoundsError,
    CompositionError,
    ConsistencyError,
    DomainError,
    FlowError,
    InterfaceError,
    MergeError,
    OptionError,
    ParseError,
    RangeError,
)
from .streams import (
    EnumerationBounds,
    StreamTuple,
    TimedStream,
    empty_stream,
    head_rest,
    stream_of,
    tuple_of,
)
from .reporting import Counterexample, PremiseCheck, PremiseReport
from .behaviors import (
    InputGuard,
    IntervalTransducer,
    adapt,
    behavior_equal,
    behavior_of,
    chaos,
    compose,
    drop_input,
    refines_behavior,
    rename_channels,
    table_machine,
    unit_machine,
    validate_transducer,
    with_free_output,
)
from .system import (
    Component,
    System,
    as_component,
    black_box,
    require_consistent,
    system_runs,
    validate_system,
    with_component,
)
from .rules import (
    RULES,
    Invariant,
    Monitor,
    RefinementStep,
    ScriptResult,
    add_component,
    add_input_channel,
    add_output_channel,
    apply_script,
    apply_step,
    check_system_refinement,
    expand_component,
    fold_subsystem,
    refine_component_behavior,
    refine_with_invariant,
    remove_component,
    remove_input_channel,
    remove_output_channel,
    rename_channel,
    systems_equal,
    true_invariant,
)
from .case_study import (
    build_original_system,
    case_study_steps,
    data_token,
    database_machine,
    delta,
    delta_star,
    entry_token,
    lag_prefix_invariant,
    parse_entry,
    relay_machine,
    rho,
    rho_star,
    tiny_profile,
)

__version__ = "0.1.0"

# The public API is every public name the imports above bind, modules aside.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
