#include "src/proto/messages.h"

#include <type_traits>

namespace proto {
namespace {

// KindOf reads the kind off the variant index, so Request's alternatives
// must be declared in OpKind order.
template <OpKind kind>
using RequestOf = std::variant_alternative_t<static_cast<size_t>(kind), Request>;
static_assert(std::variant_size_v<Request> == static_cast<size_t>(OpKind::kOpCount));
static_assert(std::is_same_v<RequestOf<OpKind::kNull>, NullReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kGetAttr>, GetAttrReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kSetAttr>, SetAttrReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kLookup>, LookupReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kRead>, ReadReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kWrite>, WriteReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kCreate>, CreateReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kRemove>, RemoveReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kRename>, RenameReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kMkdir>, MkdirReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kRmdir>, RmdirReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kReadDir>, ReadDirReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kOpen>, OpenReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kClose>, CloseReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kCallback>, CallbackReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kPing>, PingReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kReopen>, ReopenReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kGetLease>, GetLeaseReq>);
static_assert(std::is_same_v<RequestOf<OpKind::kMetaInval>, MetaInvalReq>);

// RPC + UDP + IP + Ethernet framing overhead per message.
constexpr uint32_t kHeaderBytes = 110;
// File handle on the wire (NFS uses 32 bytes).
constexpr uint32_t kFhBytes = 32;
// Attribute record (NFS fattr is 68 bytes).
constexpr uint32_t kAttrBytes = 68;

struct RequestSize {
  uint32_t operator()(const NullReq&) const { return 0; }
  uint32_t operator()(const GetAttrReq&) const { return kFhBytes; }
  uint32_t operator()(const SetAttrReq&) const { return kFhBytes + 24; }
  uint32_t operator()(const LookupReq& r) const {
    return kFhBytes + 4 + static_cast<uint32_t>(r.name.size());
  }
  uint32_t operator()(const ReadReq&) const { return kFhBytes + 12; }
  uint32_t operator()(const WriteReq& r) const {
    return kFhBytes + 12 + static_cast<uint32_t>(r.data.size());
  }
  uint32_t operator()(const CreateReq& r) const {
    return kFhBytes + 4 + static_cast<uint32_t>(r.name.size()) + 16;
  }
  uint32_t operator()(const RemoveReq& r) const {
    return kFhBytes + 4 + static_cast<uint32_t>(r.name.size());
  }
  uint32_t operator()(const RenameReq& r) const {
    return 2 * kFhBytes + 8 + static_cast<uint32_t>(r.from_name.size() + r.to_name.size());
  }
  uint32_t operator()(const MkdirReq& r) const {
    return kFhBytes + 4 + static_cast<uint32_t>(r.name.size());
  }
  uint32_t operator()(const RmdirReq& r) const {
    return kFhBytes + 4 + static_cast<uint32_t>(r.name.size());
  }
  uint32_t operator()(const ReadDirReq&) const { return kFhBytes + 12; }
  uint32_t operator()(const OpenReq&) const { return kFhBytes + 4; }
  uint32_t operator()(const CloseReq&) const { return kFhBytes + 8; }
  uint32_t operator()(const CallbackReq&) const { return kFhBytes + 12; }
  uint32_t operator()(const PingReq&) const { return 8; }
  uint32_t operator()(const ReopenReq&) const { return kFhBytes + 20; }
  uint32_t operator()(const GetLeaseReq&) const { return kFhBytes + 4; }
  uint32_t operator()(const MetaInvalReq& r) const {
    uint32_t n = 12;  // counts + drop_all flag
    n += static_cast<uint32_t>(r.handles.size()) * kFhBytes;
    for (const MetaInvalEntry& e : r.entries) {
      n += kFhBytes + 4 + static_cast<uint32_t>(e.name.size());
    }
    return n;
  }
};

struct ReplySize {
  uint32_t operator()(const std::monostate&) const { return 4; }
  uint32_t operator()(const NullRep&) const { return 4; }
  uint32_t operator()(const AttrRep&) const { return kAttrBytes; }
  uint32_t operator()(const LookupRep&) const { return kFhBytes + kAttrBytes; }
  uint32_t operator()(const ReadRep& r) const {
    return kAttrBytes + 8 + static_cast<uint32_t>(r.data.size());
  }
  uint32_t operator()(const CreateRep&) const { return kFhBytes + kAttrBytes; }
  uint32_t operator()(const ReadDirRep& r) const {
    uint32_t n = 8;
    for (const DirEntry& e : r.entries) {
      n += 16 + static_cast<uint32_t>(e.name.size());
    }
    return n;
  }
  uint32_t operator()(const OpenRep&) const { return 20 + kAttrBytes; }
  uint32_t operator()(const CloseRep&) const { return 4; }
  uint32_t operator()(const CallbackRep&) const { return 4; }
  uint32_t operator()(const PingRep&) const { return 12; }
  uint32_t operator()(const ReopenRep&) const { return 12; }
  uint32_t operator()(const GetLeaseRep&) const { return 40 + kAttrBytes; }
  uint32_t operator()(const MetaInvalRep&) const { return 4; }
};

// Bytes added to a reply that carries a piggybacked lease extension
// (fileid + expiry timestamp).
constexpr uint32_t kLeaseExtensionBytes = 12;

}  // namespace

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNull:
      return "null";
    case OpKind::kGetAttr:
      return "getattr";
    case OpKind::kSetAttr:
      return "setattr";
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kRead:
      return "read";
    case OpKind::kWrite:
      return "write";
    case OpKind::kCreate:
      return "create";
    case OpKind::kRemove:
      return "remove";
    case OpKind::kRename:
      return "rename";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kRmdir:
      return "rmdir";
    case OpKind::kReadDir:
      return "readdir";
    case OpKind::kOpen:
      return "open";
    case OpKind::kClose:
      return "close";
    case OpKind::kCallback:
      return "callback";
    case OpKind::kPing:
      return "ping";
    case OpKind::kReopen:
      return "reopen";
    case OpKind::kGetLease:
      return "getlease";
    case OpKind::kMetaInval:
      return "metainval";
    case OpKind::kOpCount:
      break;
  }
  return "unknown";
}

bool IsIdempotent(OpKind kind) {
  switch (kind) {
    case OpKind::kNull:
    case OpKind::kGetAttr:
    case OpKind::kSetAttr:
    case OpKind::kLookup:
    case OpKind::kRead:
    case OpKind::kWrite:
    case OpKind::kReadDir:
    case OpKind::kPing:
    case OpKind::kReopen:
    case OpKind::kGetLease:
    case OpKind::kMetaInval:
      return true;
    case OpKind::kCreate:
    case OpKind::kRemove:
    case OpKind::kRename:
    case OpKind::kMkdir:
    case OpKind::kRmdir:
    case OpKind::kOpen:
    case OpKind::kClose:
    case OpKind::kCallback:
    case OpKind::kOpCount:
      break;
  }
  return false;
}

bool CachesReply(OpKind kind) {
  return !IsIdempotent(kind) || kind == OpKind::kWrite || kind == OpKind::kSetAttr;
}

uint32_t WireSize(const Request& request) {
  return kHeaderBytes + std::visit(RequestSize{}, request);
}

uint32_t WireSize(const Reply& reply) {
  return kHeaderBytes + std::visit(ReplySize{}, reply.body) +
         (reply.lease_file != 0 ? kLeaseExtensionBytes : 0);
}

uint32_t WireSize(const Envelope& envelope) {
  return envelope.is_reply ? WireSize(envelope.reply) : WireSize(envelope.request);
}

}  // namespace proto
