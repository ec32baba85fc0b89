"""ubQL-style communication channels (paper Section 2.4)."""

from .channel import Channel, ChannelState
from .manager import ChannelCallback, ChannelManager
from .packets import ChangePlanPacket, DataPacket, SubPlanPacket

__all__ = [
    "ChangePlanPacket",
    "Channel",
    "ChannelCallback",
    "ChannelManager",
    "ChannelState",
    "DataPacket",
    "SubPlanPacket",
]
