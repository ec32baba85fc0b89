"""ubQL-style communication channels (paper Section 2.4)."""

from .channel import Channel, ChannelState, Output
from .manager import ChannelManager
from .packets import ChangePlanPacket, DataPacket, SubPlanPacket

__all__ = [
    "ChangePlanPacket",
    "Channel",
    "ChannelManager",
    "ChannelState",
    "DataPacket",
    "Output",
    "SubPlanPacket",
]
