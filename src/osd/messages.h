#pragma once

// OSD operation messages.
//
// Clients and OSDs exchange OsdOp / OsdOpReply over the simulated network.
// The op set is the small RADOS-like core plus the two verbs the dedup
// design adds to the chunk pool: kChunkPutRef (create-or-add-reference,
// the write half of double hashing) and kChunkDeref (drop one reference,
// reclaiming the chunk at zero).  kSubWrite/kShardRead/kPull/kPush are
// internal replication, EC and recovery traffic.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "osd/object_store.h"

namespace gdedup {

namespace obs {
class OpTrace;
}

enum class OsdOpType : uint8_t {
  kRead,
  kWrite,       // offset write (creates the object if absent)
  kWriteFull,
  kRemove,
  kStat,
  kGetXattr,
  kSetXattr,
  kChunkPutRef,  // chunk pool: create chunk object or add a reference
  kChunkDeref,   // chunk pool: remove a reference, delete at refcount 0
  kSubWrite,     // replica/shard: apply a transaction
  kShardRead,    // EC internal: full shard data + attrs
  kPull,         // recovery: full object state out
  kPush,         // recovery: full object state in
};

std::string_view osd_op_type_name(OsdOpType t);

// Identity of one chunk-map slot referencing a chunk object (the paper's
// reference information: pool id, source object ID, offset).
struct ChunkRef {
  PoolId pool = -1;
  std::string oid;
  uint64_t offset = 0;

  bool operator==(const ChunkRef& o) const {
    return pool == o.pool && offset == o.offset && oid == o.oid;
  }
  bool operator<(const ChunkRef& o) const {
    if (pool != o.pool) return pool < o.pool;
    if (oid != o.oid) return oid < o.oid;
    return offset < o.offset;
  }
};

// Encoded under this xattr on every chunk object.
inline constexpr const char* kRefsXattr = "dedup.refs";

Buffer encode_refs(const std::vector<ChunkRef>& refs);
Result<std::vector<ChunkRef>> decode_refs(const Buffer& b);

struct OsdOp {
  OsdOpType type = OsdOpType::kRead;
  PoolId pool = -1;
  std::string oid;
  uint64_t off = 0;
  uint64_t len = 0;
  Buffer data;
  std::string name;  // xattr name
  ChunkRef ref;      // kChunkPutRef / kChunkDeref
  // Additional back-references recorded with the same kChunkPutRef — a
  // rewrite container carries one ref per coalesced slot in a single put.
  std::vector<ChunkRef> extra_refs;
  std::shared_ptr<Transaction> txn;        // kSubWrite
  std::shared_ptr<ObjectState> state;      // kPush
  bool foreground = true;  // false for background dedup / recovery traffic

  // Optional op-trace context (obs/op_tracker.h), threaded across message
  // hops so each layer can annotate per-stage spans.  Not wire data: it
  // contributes nothing to wire_bytes() and crosses the simulated network
  // for free, like Ceph's in-process tracking state.
  std::shared_ptr<obs::OpTrace> trace;

  uint64_t wire_bytes() const;
};

struct OsdOpReply {
  Status status;
  Buffer data;            // kRead / kShardRead / kGetXattr
  uint64_t size = 0;      // kStat; logical size for kShardRead
  std::map<std::string, Buffer> attrs;  // kShardRead / kPull extras
  std::shared_ptr<ObjectState> state;   // kPull

  uint64_t wire_bytes() const;
};

using ReplyFn = std::function<void(OsdOpReply)>;

uint64_t object_state_bytes(const ObjectState& st);

}  // namespace gdedup
