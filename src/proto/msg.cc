#include "proto/msg.hh"

#include <sstream>

#include "base/logging.hh"

namespace mspdsm
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
        return "GetS";
      case MsgType::GetX:
        return "GetX";
      case MsgType::Upgrade:
        return "Upgrade";
      case MsgType::Inval:
        return "Inval";
      case MsgType::Recall:
        return "Recall";
      case MsgType::InvAck:
        return "InvAck";
      case MsgType::WriteBack:
        return "WriteBack";
      case MsgType::DataShared:
        return "DataShared";
      case MsgType::DataExcl:
        return "DataExcl";
      case MsgType::UpgradeAck:
        return "UpgradeAck";
      case MsgType::SpecData:
        return "SpecData";
      case MsgType::Nack:
        return "Nack";
      case MsgType::RehomeSync:
        return "RehomeSync";
      case MsgType::ShardSync:
        return "ShardSync";
    }
    panic("unknown MsgType ", int(t));
}

std::string
CohMsg::toString() const
{
    std::ostringstream oss;
    oss << msgTypeName(type) << "(blk=" << blk << ", " << src << "->"
        << dst << (speculative ? ", spec" : "") << ")";
    return oss.str();
}

} // namespace mspdsm
