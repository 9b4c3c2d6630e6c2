// The full RPC vocabulary: NFS procedures, the two SNFS client-to-server
// additions (open / close, §3.1), the SNFS server-to-client callback (§3.2),
// and the crash-recovery extension procedures (§2.4 / Welch's mechanism).
//
// Requests and replies are plain structs gathered into std::variants; the
// simulated transport carries them in an Envelope it allocates once per
// packet and passes by pointer, and WireSize() feeds the network bandwidth
// model. Read and write payloads are proto::Bytes, so carrying one by value
// shares its buffer rather than copying it.
#ifndef SRC_PROTO_MESSAGES_H_
#define SRC_PROTO_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/proto/bytes.h"
#include "src/proto/types.h"

namespace proto {

// Operation kinds, used for metric accounting (paper Tables 5-2/5-4/5-6
// bucket RPCs by operation).
enum class OpKind : uint8_t {
  kNull = 0,
  kGetAttr,
  kSetAttr,
  kLookup,
  kRead,
  kWrite,
  kCreate,
  kRemove,
  kRename,
  kMkdir,
  kRmdir,
  kReadDir,
  // SNFS additions.
  kOpen,
  kClose,
  kCallback,
  // Recovery extension.
  kPing,
  kReopen,
  // NQNFS lease addition.
  kGetLease,
  // Fleet metadata-cache invalidation.
  kMetaInval,
  kOpCount,  // sentinel
};

constexpr int kNumOpKinds = static_cast<int>(OpKind::kOpCount);

std::string_view OpKindName(OpKind kind);

// Retransmit semantics, decided once per operation kind.
//
// IsIdempotent: executing the operation twice is observably the same as
// executing it once. Reads and attribute fetches change nothing; write and
// setattr set absolute state (offset writes, absolute sizes); reopen
// re-asserts absolute per-client counts; getlease re-grants (an extension);
// metainval drops cache entries. open/close/callback move reference counts
// and create/remove/rename/mkdir/rmdir change the namespace.
bool IsIdempotent(OpKind kind);

// CachesReply: the server keeps the reply in its duplicate-request cache
// (Juszczak [3]), so a retransmission is answered from the cache rather
// than executed again. Every non-idempotent op, plus write and setattr:
// each is idempotent alone, but a retransmission replayed after a later
// write or truncate of the same file would undo it. Every other op runs
// again when retransmitted.
bool CachesReply(OpKind kind);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

struct NullReq {};

struct GetAttrReq {
  FileHandle fh;
};

// Only the fields NFS setattr supports that our workloads need.
struct SetAttrReq {
  FileHandle fh;
  std::optional<uint64_t> size;   // truncate
  std::optional<sim::Time> mtime;
};

struct LookupReq {
  FileHandle dir;
  std::string name;
};

struct ReadReq {
  FileHandle fh;
  uint64_t offset = 0;
  uint32_t count = 0;
};

struct WriteReq {
  FileHandle fh;
  uint64_t offset = 0;
  Bytes data;
};

struct CreateReq {
  FileHandle dir;
  std::string name;
  bool exclusive = false;
  std::optional<uint64_t> truncate_to;  // create with size (usually 0)
};

struct RemoveReq {
  FileHandle dir;
  std::string name;
};

struct RenameReq {
  FileHandle from_dir;
  std::string from_name;
  FileHandle to_dir;
  std::string to_name;
};

struct MkdirReq {
  FileHandle dir;
  std::string name;
};

struct RmdirReq {
  FileHandle dir;
  std::string name;
};

struct ReadDirReq {
  FileHandle dir;
  uint64_t cookie = 0;   // resume point
  uint32_t count = 64;   // max entries per reply
};

// SNFS open (§3.1): declares intent, returns cachability + version numbers.
struct OpenReq {
  FileHandle fh;
  bool write_mode = false;
};

// SNFS close (§3.1): must carry the mode of the matching open.
struct CloseReq {
  FileHandle fh;
  bool write_mode = false;
  // Set when the client still holds dirty blocks for the file at final
  // close; lets the server enter CLOSED_DIRTY and record the last writer.
  bool has_dirty = false;
};

// SNFS callback (§3.2), server-to-client.
struct CallbackReq {
  FileHandle fh;
  bool writeback = false;    // push dirty blocks to the server now
  bool invalidate = false;   // drop cached blocks, disable caching
  // Delayed-close extension (§6.2): ask the client to relinquish a file it
  // holds in the locally-closed state so the server can reclaim the entry.
  bool relinquish = false;
};

// Recovery keepalive (§2.4): exchanged periodically; the epoch lets each
// side detect the other's reboot.
struct PingReq {
  uint64_t sender_epoch = 0;
};

// Recovery reopen: after a server reboot, each client re-asserts its state
// for one file so the server can rebuild its state table.
struct ReopenReq {
  FileHandle fh;
  uint32_t read_count = 0;    // local processes holding it open for read
  uint32_t write_count = 0;   // ... for write
  bool has_dirty = false;     // client holds dirty blocks
  uint64_t cached_version = 0;
};

// NQNFS lease request (SNIPPETS.md, freebsd 06.nfs/2.t): the client asks for
// a read or write lease on a file instead of issuing SNFS open/close pairs.
// Idempotent by construction — re-executing a grant is just an extension —
// so it needs no duplicate-request caching to be retransmit-safe.
struct GetLeaseReq {
  FileHandle fh;
  bool write_mode = false;
};

// Fleet metadata-cache invalidation (src/fleet/meta_cache.h): drop cached
// attributes for `handles`, cached name bindings for `entries`, or (for
// `drop_all`) the whole cache. Idempotent — dropping an entry twice is a
// no-op — so it is retransmit-safe without duplicate-request caching.
struct MetaInvalEntry {
  FileHandle dir;
  std::string name;
};

struct MetaInvalReq {
  std::vector<FileHandle> handles;
  std::vector<MetaInvalEntry> entries;
  bool drop_all = false;
};

using Request =
    std::variant<NullReq, GetAttrReq, SetAttrReq, LookupReq, ReadReq, WriteReq, CreateReq,
                 RemoveReq, RenameReq, MkdirReq, RmdirReq, ReadDirReq, OpenReq, CloseReq,
                 CallbackReq, PingReq, ReopenReq, GetLeaseReq, MetaInvalReq>;

// A request's kind is its variant index: the alternatives above are declared
// in OpKind order (pinned in messages.cc).
inline OpKind KindOf(const Request& request) { return static_cast<OpKind>(request.index()); }

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

struct NullRep {};

struct AttrRep {  // getattr, setattr, write
  Attr attr;
};

struct LookupRep {
  FileHandle fh;
  Attr attr;
};

struct ReadRep {
  Bytes data;
  bool eof = false;
  Attr attr;
};

struct CreateRep {
  FileHandle fh;
  Attr attr;
};

struct DirEntry {
  uint64_t fileid = 0;
  std::string name;
  uint64_t cookie = 0;
};

struct ReadDirRep {
  std::vector<DirEntry> entries;
  bool eof = false;
};

// SNFS open reply (§3.1): cachability verdict plus both version numbers.
// "A client's cache is valid if the latest version number matches the
// version of the cached copy. If the client is opening the file for write,
// its cache is also valid if it matches the previous version number."
struct OpenRep {
  bool cache_enabled = true;
  uint64_t version = 0;
  uint64_t prev_version = 0;
  Attr attr;  // obviates the getattr NFS performs at open time
  // §3.2: set when a callback to a dead client could not complete, so the
  // file's content may not reflect that client's lost dirty blocks.
  bool possibly_inconsistent = false;
};

struct CloseRep {};

struct CallbackRep {};

struct PingRep {
  uint64_t responder_epoch = 0;
  bool in_recovery = false;
};

struct ReopenRep {
  bool cache_enabled = true;
  uint64_t version = 0;
};

// NQNFS lease reply. Version semantics match OpenRep: a cache is valid if
// the cached version matches `version`, or (for a write lease, whose grant
// caused the bump) `prev_version`. `granted` is false during the rebooted
// server's quiet window — the client then runs uncached until `retry_after`.
struct GetLeaseRep {
  bool granted = true;
  uint64_t version = 0;
  uint64_t prev_version = 0;
  sim::Time expires = 0;      // absolute virtual time the lease lapses
  sim::Time retry_after = 0;  // when !granted: when grants resume
  Attr attr;  // obviates the getattr NFS performs at open time
  // Set when a vacate callback to a dead holder could not complete before
  // its lease expired, so the holder's lost dirty blocks may be missing.
  bool possibly_inconsistent = false;
};

struct MetaInvalRep {};

using ReplyBody =
    std::variant<std::monostate, NullRep, AttrRep, LookupRep, ReadRep, CreateRep, ReadDirRep,
                 OpenRep, CloseRep, CallbackRep, PingRep, ReopenRep, GetLeaseRep, MetaInvalRep>;

struct Reply {
  base::Status status;
  ReplyBody body;
  // NQNFS piggybacked lease extension: when `lease_file` is nonzero the
  // server has extended the caller's lease on that file to `lease_expires`.
  // Always zero on NFS/SNFS replies, and WireSize() charges the extension
  // only when present, so the other protocols' timings are untouched.
  uint64_t lease_file = 0;
  sim::Time lease_expires = 0;
};

inline Reply ErrorReply(base::Status status) { return Reply{status, std::monostate{}}; }

template <typename T>
Reply OkReply(T body) {
  return Reply{base::OkStatus(), ReplyBody(std::move(body))};
}

// ---------------------------------------------------------------------------
// Wire envelope and size model
// ---------------------------------------------------------------------------

struct Envelope {
  uint64_t xid = 0;
  bool is_reply = false;
  // Causal trace span of the sender (src/trace): requests carry the client
  // attempt's span so the server handler can parent under it; replies carry
  // the handler's span. Debug metadata — deliberately excluded from
  // WireSize() so enabling tracing cannot change simulated timings.
  uint64_t trace_span = 0;
  // Host a request's reply goes to; -1 means the packet's sender. A router
  // that forwards a request (rpc::Peer::set_router) fills in the original
  // client here, so the server replies to the client directly. Excluded
  // from WireSize() like an IP source address a forwarding switch leaves
  // intact.
  int reply_to = -1;
  Request request;  // valid when !is_reply
  Reply reply;      // valid when is_reply

  // The transport passes envelopes by pointer (net::Packet): a sender
  // allocates one per packet, a router forwards it, and a server worker
  // reuses a request's envelope for its reply. The only legitimate copy is
  // the fault injector duplicating an in-flight packet. The copy operations
  // count themselves so a guard test (network_test.cc) can pin that
  // invariant. A copy shares the payload's buffer (proto::Bytes) but still
  // copies every other field. Moves stay defaulted (and therefore free of
  // bookkeeping).
  Envelope() = default;
  Envelope(Envelope&&) noexcept = default;
  Envelope& operator=(Envelope&&) noexcept = default;
  Envelope(const Envelope& other)
      : xid(other.xid),
        is_reply(other.is_reply),
        trace_span(other.trace_span),
        reply_to(other.reply_to),
        request(other.request),
        reply(other.reply) {
    ++copies_;
  }
  Envelope& operator=(const Envelope& other) {
    if (this != &other) {
      xid = other.xid;
      is_reply = other.is_reply;
      trace_span = other.trace_span;
      reply_to = other.reply_to;
      request = other.request;
      reply = other.reply;
      ++copies_;
    }
    return *this;
  }

  static uint64_t copy_count() { return copies_; }
  static void reset_copy_count() { copies_ = 0; }

 private:
  static inline uint64_t copies_ = 0;
};

// Approximate on-the-wire bytes (RPC/UDP/IP headers plus payload); drives
// the network serialization-delay model.
uint32_t WireSize(const Request& request);
uint32_t WireSize(const Reply& reply);
uint32_t WireSize(const Envelope& envelope);

}  // namespace proto

#endif  // SRC_PROTO_MESSAGES_H_
