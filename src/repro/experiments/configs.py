"""Shared configuration defaulting for the experiment modules.

Every figure/table function accepts optional ``protocol_config`` /
``sim_config`` arguments and falls back to the laptop-scale defaults;
:func:`resolve_base_configs` is that rule, spelled once.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import ProtocolConfig, SimulationConfig, scaled_config


def resolve_base_configs(
    protocol_config: Optional[ProtocolConfig] = None,
    sim_config: Optional[SimulationConfig] = None,
) -> Tuple[ProtocolConfig, SimulationConfig]:
    """The given configs, with :func:`scaled_config` filling any gaps."""
    base_protocol, base_sim = scaled_config()
    if protocol_config is not None:
        base_protocol = protocol_config
    if sim_config is not None:
        base_sim = sim_config
    return base_protocol, base_sim
