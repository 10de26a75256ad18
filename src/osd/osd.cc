#include "osd/osd.h"

#include <algorithm>
#include <cassert>

#include "common/encoding.h"
#include "common/logging.h"
#include "ec/reed_solomon.h"
#include "obs/op_tracker.h"

namespace gdedup {

namespace {

constexpr const char* kEcShardXattr = "ec.shard";
constexpr const char* kEcOrigLenXattr = "ec.orig_len";

Buffer encode_u64(uint64_t v) {
  Encoder e;
  e.put_u64(v);
  return e.finish();
}

Result<uint64_t> decode_u64(const Buffer& b) {
  Decoder d(b);
  uint64_t v = 0;
  if (auto s = d.get_u64(&v); !s.is_ok()) return s;
  return v;
}

// Shared completion barrier: runs `done(worst_status)` after `expected`
// arms have completed.
struct Barrier {
  int remaining;
  Status worst;
  std::function<void(Status)> done;

  void arrive(Status s) {
    if (!s.is_ok() && worst.is_ok()) worst = s;
    if (--remaining == 0) done(worst);
  }
};

}  // namespace

const char* osd_failure_point_name(OsdFailurePoint p) {
  switch (p) {
    case OsdFailurePoint::kBeforeReplicatedFanout:
      return "before_replicated_fanout";
    case OsdFailurePoint::kAfterLocalApply:
      return "after_local_apply";
    case OsdFailurePoint::kBeforeSubWriteApply:
      return "before_sub_write_apply";
    case OsdFailurePoint::kBeforeRecoveryPull:
      return "before_recovery_pull";
    case OsdFailurePoint::kBeforeChunkRefWrite:
      return "before_chunk_ref_write";
  }
  return "?";
}

Osd::Osd(ClusterContext* ctx, OsdId id, NodeId node, const SsdConfig& disk_cfg)
    : ctx_(ctx), id_(id), node_(node), disk_(&ctx->sched(), disk_cfg) {
  obs::PerfCountersBuilder b("osd." + std::to_string(id), l_osd_first,
                             l_osd_last);
  b.add_counter(l_osd_client_ops, "client_ops");
  b.add_counter(l_osd_reads, "reads");
  b.add_counter(l_osd_writes, "writes");
  b.add_counter(l_osd_sub_writes, "sub_writes");
  b.add_counter(l_osd_chunk_puts, "chunk_puts");
  b.add_counter(l_osd_chunk_created, "chunk_created");
  b.add_counter(l_osd_chunk_dedup_hits, "chunk_dedup_hits");
  b.add_counter(l_osd_chunk_derefs, "chunk_derefs");
  b.add_counter(l_osd_chunks_reclaimed, "chunks_reclaimed");
  b.add_counter(l_osd_pulls, "pulls");
  b.add_counter(l_osd_pushes, "pushes");
  b.add_histogram(l_osd_op_r_lat, "op_r_lat");
  b.add_histogram(l_osd_op_w_lat, "op_w_lat");
  b.add_counter(l_osd_bytes_zero_copied, "bytes_zero_copied");
  b.add_counter(l_osd_meta_bytes_read, "meta_bytes_read");
  b.add_counter(l_osd_meta_bytes_written, "meta_bytes_written");
  b.add_counter(l_osd_refs_decodes, "refs_decodes");
  b.add_counter(l_osd_refs_cache_hits, "refs_cache_hits");
  perf_ = b.create();
  if (auto* reg = ctx_->perf_registry()) reg->add(perf_);
}

bool Osd::fail_at(OsdFailurePoint p, const ObjectKey& key) {
  if (!failure_hook_ || !failure_hook_(p, key)) return false;
  injected_crashes_++;
  // Self-crash with kill -9 semantics.  Cluster-level cleanup (stopping
  // tier services, scheduling the restart) belongs to whoever armed the
  // hook — this layer only knows about the OSD itself.
  drop_when_down_ = true;
  up_ = false;
  ctx_->osdmap().mark_down(id_);
  reset_volatile();
  return true;
}

void Osd::reset_volatile() {
  // The call may originate *inside* a queued closure (fail_at at the top of
  // chunk_put_ref_locked runs from chunk_op_queue_'s front element), so the
  // closures cannot be destroyed here — that would free the frame we are
  // executing.  Swap them into a graveyard that a zero-delay event buries
  // after the stack unwinds; the live queues are empty immediately.
  auto graveyard = std::make_shared<std::pair<OpQueue, OpQueue>>();
  graveyard->first.swap(chunk_op_queue_);
  graveyard->second.swap(ec_write_queue_);
  if (!graveyard->first.empty() || !graveyard->second.empty()) {
    ctx_->sched().after(0, [graveyard] {});
  }
}

ObjectStore& Osd::store(PoolId pool) {
  // First touch creates the store; a cross-shard store_if_exists during a
  // parallel window must not race the map insert.
  MaybeUniqueLock g(stores_mu_);
  auto it = stores_.find(pool);
  if (it == stores_.end()) {
    const bool compress = ctx_->osdmap().pool(pool).compress_at_rest;
    it = stores_.emplace(pool, std::make_unique<ObjectStore>(compress)).first;
  }
  return *it->second;
}

const ObjectStore* Osd::store_if_exists(PoolId pool) const {
  MaybeSharedLock g(stores_mu_);
  auto it = stores_.find(pool);
  return it == stores_.end() ? nullptr : it->second.get();
}

void Osd::set_tier(PoolId pool, std::unique_ptr<TierService> tier) {
  tiers_[pool] = std::move(tier);
}

TierService* Osd::tier(PoolId pool) {
  auto it = tiers_.find(pool);
  return it == tiers_.end() ? nullptr : it->second.get();
}

Result<Buffer> Osd::local_getxattr(PoolId pool, const std::string& oid,
                                   const std::string& name) const {
  const ObjectStore* st = store_if_exists(pool);
  if (st == nullptr) return Status::not_found(oid);
  return st->getxattr({pool, oid}, name);
}

bool Osd::local_exists(PoolId pool, const std::string& oid) const {
  const ObjectStore* st = store_if_exists(pool);
  return st != nullptr && st->exists({pool, oid});
}

void Osd::handle_op(OsdOp op, ReplyFn reply) {
  if (!up_) {
    if (!drop_when_down_) {
      ctx_->sched().after(usec(1), [reply] {
        reply(OsdOpReply{Status::unavailable("osd down"), {}, 0, {}, nullptr});
      });
    }
    return;  // crashed: message silently lost
  }

  // Request-processing CPU: fixed dispatch cost + checksumming of payload
  // (virtual cost only).
  const SimTime cost =
      cpu().op_fixed_cost() + cpu().crc_cost(op.data.size());
  cpu().execute(cost, [this, op = std::move(op),
                       reply = std::move(reply)]() mutable {
    dispatch(std::move(op), std::move(reply));
  });
}

void Osd::dispatch(OsdOp op, ReplyFn reply) {
  const bool client_facing =
      op.type == OsdOpType::kRead || op.type == OsdOpType::kWrite ||
      op.type == OsdOpType::kWriteFull || op.type == OsdOpType::kRemove ||
      op.type == OsdOpType::kStat || op.type == OsdOpType::kGetXattr ||
      op.type == OsdOpType::kSetXattr;
  if (client_facing) {
    perf_->inc(l_osd_client_ops);
    if (op.foreground) {
      fg_window_.advance(ctx_->sched().now());
      fg_window_.add(ctx_->sched().now());
    }
    // End-to-end OSD-side data-op latency (covers the tier path too).
    if (op.type == OsdOpType::kRead || op.type == OsdOpType::kWrite ||
        op.type == OsdOpType::kWriteFull) {
      const int idx =
          op.type == OsdOpType::kRead ? l_osd_op_r_lat : l_osd_op_w_lat;
      Scheduler* sched = &ctx_->sched();
      const SimTime t0 = sched->now();
      reply = [perf = perf_, idx, t0, sched,
               inner = std::move(reply)](OsdOpReply rep) {
        perf->record(idx, static_cast<uint64_t>(sched->now() - t0));
        inner(std::move(rep));
      };
    }
  }

  // Dedup tier interposes on client data ops for its pool.
  if (client_facing && ctx_->osdmap().pool(op.pool).dedup.enabled()) {
    TierService* t = tier(op.pool);
    if (t != nullptr) {
      if (op.type == OsdOpType::kRead) {
        t->handle_read(op, std::move(reply));
        return;
      }
      if (op.type == OsdOpType::kWrite || op.type == OsdOpType::kWriteFull) {
        t->handle_write(op, std::move(reply));
        return;
      }
      if (op.type == OsdOpType::kRemove) {
        t->handle_remove(op, std::move(reply));
        return;
      }
    }
  }

  switch (op.type) {
    case OsdOpType::kRead:
      handle_read(op, std::move(reply));
      break;
    case OsdOpType::kWrite:
    case OsdOpType::kWriteFull:
      handle_write(op, std::move(reply));
      break;
    case OsdOpType::kRemove:
      handle_remove(op, std::move(reply));
      break;
    case OsdOpType::kStat:
      handle_stat(op, std::move(reply));
      break;
    case OsdOpType::kGetXattr:
      handle_getxattr(op, std::move(reply));
      break;
    case OsdOpType::kSetXattr:
      handle_setxattr(op, std::move(reply));
      break;
    case OsdOpType::kSubWrite:
      handle_sub_write(op, std::move(reply));
      break;
    case OsdOpType::kShardRead:
      handle_shard_read(op, std::move(reply));
      break;
    case OsdOpType::kPull:
      handle_pull(op, std::move(reply));
      break;
    case OsdOpType::kPush:
      handle_push(op, std::move(reply));
      break;
    case OsdOpType::kChunkPutRef:
      handle_chunk_put_ref(op, std::move(reply));
      break;
    case OsdOpType::kChunkDeref:
      handle_chunk_deref(op, std::move(reply));
      break;
  }
}

// ------------------------------------------------------------- plain ops

void Osd::handle_read(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_reads);
  submit_read(op.pool, op.oid, op.off, op.len,
              [reply = std::move(reply)](Result<Buffer> r) {
                if (!r.is_ok()) {
                  reply(OsdOpReply{r.status(), {}, 0, {}, nullptr});
                } else {
                  reply(OsdOpReply{Status::ok(), std::move(r).value(), 0, {},
                                   nullptr});
                }
              },
              op.foreground);
}

void Osd::handle_write(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_writes);
  Transaction txn;
  const ObjectKey key{op.pool, op.oid};
  if (op.type == OsdOpType::kWriteFull) {
    txn.write_full(key, op.data);
  } else {
    txn.write(key, op.off, op.data);
  }
  submit_write(op.pool, op.oid, std::move(txn),
               [reply = std::move(reply)](Status s) {
                 reply(OsdOpReply{s, {}, 0, {}, nullptr});
               },
               op.foreground);
}

void Osd::handle_remove(const OsdOp& op, ReplyFn reply) {
  submit_remove(op.pool, op.oid,
                [reply = std::move(reply)](Status s) {
                  reply(OsdOpReply{s, {}, 0, {}, nullptr});
                },
                op.foreground);
}

void Osd::handle_stat(const OsdOp& op, ReplyFn reply) {
  OsdOpReply rep;
  auto r = store(op.pool).size({op.pool, op.oid});
  if (r.is_ok()) {
    rep.size = r.value();
  } else {
    rep.status = r.status();
  }
  reply(std::move(rep));
}

void Osd::handle_getxattr(const OsdOp& op, ReplyFn reply) {
  OsdOpReply rep;
  auto r = store(op.pool).getxattr({op.pool, op.oid}, op.name);
  if (r.is_ok()) {
    rep.data = std::move(r).value();
  } else {
    rep.status = r.status();
  }
  reply(std::move(rep));
}

void Osd::handle_setxattr(const OsdOp& op, ReplyFn reply) {
  Transaction txn;
  txn.setxattr({op.pool, op.oid}, op.name, op.data);
  submit_write(op.pool, op.oid, std::move(txn),
               [reply = std::move(reply)](Status s) {
                 reply(OsdOpReply{s, {}, 0, {}, nullptr});
               },
               op.foreground);
}

void Osd::handle_sub_write(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeSubWriteApply, {op.pool, op.oid})) {
    return;  // crashed: the primary never hears back
  }
  perf_->inc(l_osd_sub_writes);
  assert(op.txn);
  local_apply(op.pool, *op.txn, [reply = std::move(reply)](Status s) {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
  });
}

void Osd::handle_shard_read(const OsdOp& op, ReplyFn reply) {
  const ObjectKey key{op.pool, op.oid};
  ObjectStore& st = store(op.pool);
  auto sz = st.size(key);
  if (!sz.is_ok()) {
    reply(OsdOpReply{sz.status(), {}, 0, {}, nullptr});
    return;
  }
  auto data = st.read(key, 0, 0);
  assert(data.is_ok());
  OsdOpReply rep;
  rep.data = std::move(data).value();
  rep.size = sz.value();
  for (const char* name : {kEcShardXattr, kEcOrigLenXattr}) {
    auto a = st.getxattr(key, name);
    if (a.is_ok()) rep.attrs[name] = std::move(a).value();
  }
  disk_.read(rep.data.size(), [reply = std::move(reply), rep]() mutable {
    reply(std::move(rep));
  });
}

void Osd::handle_pull(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeRecoveryPull, {op.pool, op.oid})) {
    return;  // crashed: recovery must route around this holder
  }
  perf_->inc(l_osd_pulls);
  auto snap = store(op.pool).snapshot({op.pool, op.oid});
  if (!snap.is_ok()) {
    reply(OsdOpReply{snap.status(), {}, 0, {}, nullptr});
    return;
  }
  auto state = std::make_shared<ObjectState>(std::move(snap).value());
  const uint64_t bytes = object_state_bytes(*state);
  // The serve side of a recovery pull: snapshot + disk read of the full
  // object state.
  size_t sp = 0;
  if (op.trace) sp = op.trace->span_begin("pull_serve", ctx_->sched().now());
  disk_.read(bytes, [this, trace = op.trace, sp, reply = std::move(reply),
                     state]() mutable {
    if (trace) trace->span_end(sp, ctx_->sched().now());
    OsdOpReply rep;
    rep.state = state;
    reply(std::move(rep));
  });
}

void Osd::handle_push(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_pushes);
  assert(op.state);
  const uint64_t bytes = object_state_bytes(*op.state);
  auto state = op.state;
  const ObjectKey key{op.pool, op.oid};
  disk_.write(bytes, [this, key, state, reply = std::move(reply)]() mutable {
    store(key.pool).install(key, *state);
    reply(OsdOpReply{});
  });
}

// ----------------------------------------------------------- chunk verbs

void Osd::handle_chunk_put_ref(const OsdOp& op, ReplyFn reply) {
  const ObjectKey key{op.pool, op.oid};
  enqueue_chunk_op(key, [this, op, reply = std::move(reply)]() mutable {
    chunk_put_ref_locked(op, std::move(reply));
  });
}

void Osd::handle_chunk_deref(const OsdOp& op, ReplyFn reply) {
  const ObjectKey key{op.pool, op.oid};
  enqueue_chunk_op(key, [this, op, reply = std::move(reply)]() mutable {
    chunk_deref_locked(op, std::move(reply));
  });
}

void Osd::enqueue_object_op(OpQueue& q, const ObjectKey& key,
                            std::function<void()> fn) {
  auto& dq = q[key];
  dq.push_back(std::move(fn));
  if (dq.size() == 1) dq.front()();
}

void Osd::finish_object_op(OpQueue& q, const ObjectKey& key) {
  auto it = q.find(key);
  // A crash resets the queues; an op that was in flight when it happened
  // may still complete afterwards and must find its entry simply gone.
  if (it == q.end() || it->second.empty()) return;
  it->second.pop_front();
  if (it->second.empty()) {
    q.erase(it);
  } else {
    // Defer to a fresh event so the stack unwinds.
    auto next = it->second.front();
    ctx_->sched().after(0, next);
  }
}

Status Osd::load_refs(const ObjectKey& key, std::vector<ChunkRef>* out) {
  auto raw = local_getxattr(key.pool, key.oid, kRefsXattr);
  if (!raw.is_ok()) return Status::ok();  // no refs recorded yet
  perf_->inc(l_osd_meta_bytes_read, raw.value().size());
  if (ctx_->fp_fastpath()) {
    if (const std::vector<ChunkRef>* cached =
            refs_cache_.find(key, raw.value())) {
      perf_->inc(l_osd_refs_cache_hits);
      *out = *cached;
      return Status::ok();
    }
  }
  perf_->inc(l_osd_refs_decodes);
  auto dec = decode_refs(raw.value());
  if (!dec.is_ok()) return dec.status();
  *out = std::move(dec).value();
  if (ctx_->fp_fastpath()) refs_cache_.put(key, raw.value(), *out);
  return Status::ok();
}

Buffer Osd::store_refs(const ObjectKey& key, std::vector<ChunkRef> refs) {
  Buffer enc = encode_refs(refs);
  perf_->inc(l_osd_meta_bytes_written, enc.size());
  if (ctx_->fp_fastpath()) refs_cache_.put(key, enc, std::move(refs));
  return enc;
}

void Osd::chunk_put_ref_locked(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeChunkRefWrite, {op.pool, op.oid})) {
    return;  // crashed mid-refcount-update; queue already reset
  }
  perf_->inc(l_osd_chunk_puts);
  const ObjectKey key{op.pool, op.oid};

  auto finish = [this, key, reply = std::move(reply)](Status s) mutable {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
    finish_chunk_op(key);
  };

  if (local_exists(op.pool, op.oid)) {
    // Double hashing at work: same OID == same content, so this put is a
    // duplicate.  Normally only reference bookkeeping is written.
    std::vector<ChunkRef> refs;
    if (Status s = load_refs(key, &refs); !s.is_ok()) {
      finish(s);
      return;
    }
    const bool recorded =
        std::find(refs.begin(), refs.end(), op.ref) != refs.end();
    bool extras_recorded = true;
    for (const auto& r : op.extra_refs) {
      if (std::find(refs.begin(), refs.end(), r) == refs.end()) {
        extras_recorded = false;
        break;
      }
    }
    // The local copy alone does not make the put durable: a prior attempt
    // can have created the chunk here while its replica fanout was lost to
    // a network fault, and acking a retry off local state would leave the
    // chunk one disk-wipe away from vanishing under a recorded reference.
    // If any acting member lacks a copy, rewrite the data so the fanout
    // re-places it — the ack then means what the client thinks it means.
    bool fully_placed = true;
    for (OsdId t : ctx_->osdmap().acting(op.pool, op.oid)) {
      Osd* to = ctx_->osd(t);
      if (to == nullptr || !to->is_up() || !to->local_exists(op.pool, op.oid)) {
        fully_placed = false;
        break;
      }
    }
    if (recorded && extras_recorded && fully_placed) {
      // Retried flush; the reference is already recorded everywhere.
      finish(Status::ok());
      return;
    }
    if (!recorded) {
      perf_->inc(l_osd_chunk_dedup_hits);
      refs.push_back(op.ref);
    }
    for (const auto& r : op.extra_refs) {
      if (std::find(refs.begin(), refs.end(), r) == refs.end()) {
        refs.push_back(r);
      }
    }
    Transaction txn;
    if (!fully_placed) txn.write_full(key, op.data);
    txn.setxattr(key, kRefsXattr, store_refs(key, std::move(refs)));
    submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
                 op.foreground);
    return;
  }

  perf_->inc(l_osd_chunk_created);
  // A rotated-in primary can be "creating" over a degraded placement:
  // other holders may still carry this content-addressed chunk with refs
  // this primary cannot see locally.  The content is identical by
  // construction (the OID is its fingerprint), but seeding the refs list
  // with only the new reference would orphan every peer-recorded one — a
  // later deref-to-zero would then destroy a chunk another object's map
  // still names.  Union the surviving refs in.
  std::vector<ChunkRef> refs{op.ref};
  for (const auto& r : op.extra_refs) {
    if (std::find(refs.begin(), refs.end(), r) == refs.end()) refs.push_back(r);
  }
  for (OsdId pid : ctx_->osdmap().all_osds()) {
    if (pid == id_) continue;
    Osd* peer = ctx_->osd(pid);
    if (peer == nullptr || !peer->is_up()) continue;
    const ObjectStore* ps = peer->store_if_exists(op.pool);
    if (ps == nullptr) continue;
    auto praw = ps->getxattr(key, kRefsXattr);
    if (!praw.is_ok()) continue;
    // Peer reads stay uncached — they cross OSDs, and this degraded-create
    // path is rare — but their metadata traffic is still accounted.
    perf_->inc(l_osd_meta_bytes_read, praw.value().size());
    perf_->inc(l_osd_refs_decodes);
    auto pdec = decode_refs(praw.value());
    if (!pdec.is_ok()) continue;
    for (const auto& r : pdec.value()) {
      if (std::find(refs.begin(), refs.end(), r) == refs.end()) {
        refs.push_back(r);
      }
    }
  }
  Transaction txn;
  txn.write_full(key, op.data);
  txn.setxattr(key, kRefsXattr, store_refs(key, std::move(refs)));
  submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
               op.foreground);
}

void Osd::chunk_deref_locked(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_chunk_derefs);
  const ObjectKey key{op.pool, op.oid};
  auto finish = [this, key, reply = std::move(reply)](Status s) mutable {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
    finish_chunk_op(key);
  };

  if (!local_exists(op.pool, op.oid)) {
    finish(Status::ok());  // already reclaimed — deref is idempotent
    return;
  }
  std::vector<ChunkRef> refs;
  if (Status s = load_refs(key, &refs); !s.is_ok()) {
    finish(s);
    return;
  }
  auto it = std::find(refs.begin(), refs.end(), op.ref);
  if (it == refs.end()) {
    finish(Status::ok());  // reference already dropped
    return;
  }
  refs.erase(it);
  if (refs.empty()) {
    perf_->inc(l_osd_chunks_reclaimed);
    refs_cache_.erase(key);  // chunk object is going away
    submit_remove(op.pool, op.oid, std::move(finish), op.foreground);
    return;
  }
  Transaction txn;
  txn.setxattr(key, kRefsXattr, store_refs(key, std::move(refs)));
  submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
               op.foreground);
}

// ----------------------------------------------------- redundancy engines

void Osd::submit_write(PoolId pool, const std::string& oid, Transaction txn,
                       std::function<void(Status)> done, bool foreground) {
  if (!up_ && drop_when_down_) {
    // Crashed process: nothing this OSD coordinates can make progress.
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("osd crashed"));
    });
    return;
  }
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  if (cfg.scheme == RedundancyScheme::kReplicated) {
    replicated_write(pool, oid, std::move(txn), std::move(done), foreground);
  } else {
    ec_write(pool, oid, std::move(txn), std::move(done), foreground);
  }
}

void Osd::submit_read(PoolId pool, const std::string& oid, uint64_t off,
                      uint64_t len, std::function<void(Result<Buffer>)> done,
                      bool foreground) {
  if (!up_ && drop_when_down_) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("osd crashed"));
    });
    return;
  }
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  if (cfg.scheme == RedundancyScheme::kReplicated) {
    auto r = store(pool).read({pool, oid}, off, len);
    if (!r.is_ok()) {
      ctx_->sched().after(0, [done = std::move(done), s = r.status()] {
        done(s);
      });
      return;
    }
    Buffer data = std::move(r).value();
    const uint64_t bytes = data.size();
    disk_.read(bytes, [done = std::move(done), data = std::move(data)]() mutable {
      done(std::move(data));
    });
    return;
  }
  ec_read(pool, oid, off, len, std::move(done), foreground);
}

void Osd::submit_remove(PoolId pool, const std::string& oid,
                        std::function<void(Status)> done, bool foreground) {
  Transaction txn;
  txn.remove({pool, oid});
  submit_write(pool, oid, std::move(txn), std::move(done), foreground);
}

void Osd::local_apply(PoolId pool, Transaction txn,
                      std::function<void(Status)> done) {
  const uint64_t bytes = txn.byte_size();
  // Zero-copy accounting: payload Buffers still sharing their source
  // storage (client message, tier cache, peer shard) land in the store as
  // refcount bumps, not byte copies.
  uint64_t shared_bytes = 0;
  for (const auto& op : txn.ops()) {
    if (!op.data.empty() && op.data.storage_shared()) {
      shared_bytes += op.data.size();
    }
  }
  if (shared_bytes > 0) perf_->inc(l_osd_bytes_zero_copied, shared_bytes);
  disk_.write(bytes, [this, pool, txn = std::move(txn),
                      done = std::move(done)]() mutable {
    done(store(pool).apply(txn));
  });
}

void Osd::replicated_write(PoolId pool, const std::string& oid,
                           Transaction txn, std::function<void(Status)> done,
                           bool foreground) {
  if (fail_at(OsdFailurePoint::kBeforeReplicatedFanout, {pool, oid})) {
    return;  // crashed: no replica ever sees this write
  }
  auto acting = ctx_->osdmap().acting(pool, oid);
  if (acting.empty()) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("no acting set"));
    });
    return;
  }

  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = static_cast<int>(acting.size());
  barrier->done = std::move(done);

  auto shared_txn = std::make_shared<Transaction>(std::move(txn));
  for (OsdId target : acting) {
    if (target == id_) {
      local_apply(pool, *shared_txn, [this, pool, oid, barrier](Status s) {
        if (fail_at(OsdFailurePoint::kAfterLocalApply, {pool, oid})) {
          return;  // crashed between the local commit and the peer acks
        }
        barrier->arrive(s);
      });
    } else {
      OsdOp sub;
      sub.type = OsdOpType::kSubWrite;
      sub.pool = pool;
      sub.oid = oid;
      sub.txn = shared_txn;
      sub.foreground = foreground;
      send_osd_op(*ctx_, node_, target, std::move(sub),
                  [barrier](OsdOpReply rep) { barrier->arrive(rep.status); });
    }
  }
}

void Osd::ec_write(PoolId pool, const std::string& oid, Transaction txn,
                   std::function<void(Status)> done, bool foreground) {
  // Serialize per object: a partial EC write reads, re-encodes and
  // rewrites the whole object — concurrent RMWs would lose updates and
  // each holds a full object image while in flight.
  const ObjectKey key{pool, oid};
  enqueue_object_op(
      ec_write_queue_, key,
      [this, pool, oid, key, txn = std::move(txn), done = std::move(done),
       foreground]() mutable {
        ec_write_locked(pool, oid, std::move(txn),
                        [this, key, done = std::move(done)](Status s) {
                          done(s);
                          finish_object_op(ec_write_queue_, key);
                        },
                        foreground);
      });
}

void Osd::ec_write_locked(PoolId pool, const std::string& oid, Transaction txn,
                          std::function<void(Status)> done, bool foreground) {
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  auto acting = ctx_->osdmap().acting(pool, oid);
  if (static_cast<int>(acting.size()) < cfg.ec_k + cfg.ec_m) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("not enough shards up"));
    });
    return;
  }
  const ObjectKey key{pool, oid};

  // Classify the transaction.
  bool has_data_op = false;
  bool full_rewrite_only = true;
  bool removes = false;
  for (const auto& op : txn.ops()) {
    switch (op.type) {
      case Transaction::OpType::kWriteFull:
        has_data_op = true;
        break;
      case Transaction::OpType::kWrite:
      case Transaction::OpType::kTruncate:
      case Transaction::OpType::kPunchHole:
        has_data_op = true;
        full_rewrite_only = false;
        break;
      case Transaction::OpType::kRemove:
        removes = true;
        break;
      default:
        break;
    }
  }

  auto broadcast = [this, acting, pool, oid, foreground](
                       std::vector<Transaction> shard_txns,
                       std::function<void(Status)> cb) {
    auto barrier = std::make_shared<Barrier>();
    barrier->remaining = static_cast<int>(acting.size());
    barrier->done = std::move(cb);
    for (size_t i = 0; i < acting.size(); i++) {
      auto st = std::make_shared<Transaction>(std::move(shard_txns[i]));
      if (acting[i] == id_) {
        local_apply(pool, *st, [barrier](Status s) { barrier->arrive(s); });
      } else {
        OsdOp sub;
        sub.type = OsdOpType::kSubWrite;
        sub.pool = pool;
        sub.oid = oid;
        sub.txn = st;
        sub.foreground = foreground;
        send_osd_op(*ctx_, node_, acting[i], std::move(sub),
                    [barrier](OsdOpReply rep) { barrier->arrive(rep.status); });
      }
    }
  };

  if (removes) {
    std::vector<Transaction> shard_txns(acting.size());
    for (auto& st : shard_txns) st.remove(key);
    broadcast(std::move(shard_txns), std::move(done));
    return;
  }

  if (!has_data_op) {
    // Metadata-only update: mirror the ops to every shard, no re-encode.
    std::vector<Transaction> shard_txns(acting.size());
    for (auto& st : shard_txns) st = txn;
    broadcast(std::move(shard_txns), std::move(done));
    return;
  }

  // Data write: produce the new full object image, encode, distribute.
  auto done_sp =
      std::make_shared<std::function<void(Status)>>(std::move(done));
  auto encode_and_send = [this, cfg, key, acting, txn, broadcast,
                          done_sp](ObjectState base, bool existed) mutable {
    auto done = [done_sp](Status s) { (*done_sp)(s); };
    bool exists = existed;
    if (auto s = ObjectStore::apply_to_state(txn, key, &base, &exists);
        !s.is_ok()) {
      done(s);
      return;
    }
    if (!exists) {
      done(Status::invalid("ec txn removed object mid-write"));
      return;
    }
    Buffer full = base.data.read(0, base.logical_size);
    const uint64_t parity_cost_bytes = full.size();
    // Parity math runs exactly when the cost model says the encode
    // completes.
    auto shards_fut = kernel_async<std::vector<Buffer>>(
        ctx_->exec_pool(), Kernel::kEcEncode,
        [ec_k = cfg.ec_k, ec_m = cfg.ec_m, full = std::move(full)] {
          ReedSolomon rs(ec_k, ec_m);
          return rs.encode(full);
        });
    cpu().execute(
        cpu().ec_parity_cost(parity_cost_bytes),
        [this, cfg, key, acting, base = std::move(base),
         shards_fut = std::move(shards_fut), broadcast = std::move(broadcast),
         done = std::move(done)]() mutable {
          auto shards = shards_fut.take();
          std::vector<Transaction> shard_txns(acting.size());
          for (size_t i = 0; i < acting.size(); i++) {
            Transaction& st = shard_txns[i];
            st.write_full(key, shards[i]);
            Encoder se;
            se.put_u32(static_cast<uint32_t>(i));
            st.setxattr(key, kEcShardXattr, se.finish());
            st.setxattr(key, kEcOrigLenXattr, encode_u64(base.logical_size));
            for (const auto& [name, value] : base.xattrs) {
              st.setxattr(key, name, value);
            }
            for (const auto& [k2, v2] : base.omap) {
              st.omap_set(key, k2, v2);
            }
          }
          broadcast(std::move(shard_txns), std::move(done));
        });
  };

  const bool exists_locally = local_exists(pool, oid);
  if (full_rewrite_only || !exists_locally) {
    // No read-modify-write needed (fresh object or whole-object rewrite).
    ObjectState base;
    bool existed = false;
    if (exists_locally) {
      // Keep existing xattrs/omap: they are mirrored on our local shard.
      auto snap = store(pool).snapshot(key);
      assert(snap.is_ok());
      base.xattrs = snap.value().xattrs;
      base.omap = snap.value().omap;
      base.xattrs.erase(kEcShardXattr);
      base.xattrs.erase(kEcOrigLenXattr);
      existed = true;
    }
    encode_and_send(std::move(base), existed);
    return;
  }

  // Partial write to an existing EC object: gather, rebuild, re-encode.
  ec_read(pool, oid, 0, 0,
          [this, pool, key, done_sp,
           encode_and_send = std::move(encode_and_send)](
              Result<Buffer> r) mutable {
            if (!r.is_ok()) {
              // Cannot reconstruct the old image; surface the error.
              (*done_sp)(r.status());
              return;
            }
            ObjectState base;
            base.data.write(0, r.value());
            base.logical_size = r.value().size();
            auto snap = store(pool).snapshot(key);
            if (snap.is_ok()) {
              base.xattrs = snap.value().xattrs;
              base.omap = snap.value().omap;
              base.xattrs.erase(kEcShardXattr);
              base.xattrs.erase(kEcOrigLenXattr);
            }
            encode_and_send(std::move(base), true);
          },
          foreground);
}

void Osd::ec_read(PoolId pool, const std::string& oid, uint64_t off,
                  uint64_t len, std::function<void(Result<Buffer>)> done,
                  bool foreground) {
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  auto acting = ctx_->osdmap().acting(pool, oid);
  const int k = cfg.ec_k;
  const int m = cfg.ec_m;
  if (acting.empty()) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("no acting set"));
    });
    return;
  }

  struct GatherState {
    std::vector<std::optional<Buffer>> shards;
    uint64_t orig_len = 0;
    bool have_orig_len = false;
    int outstanding = 0;
    int successes = 0;
    bool reconstructed_needed = false;
    std::function<void(Result<Buffer>)> done;
  };
  auto gs = std::make_shared<GatherState>();
  gs->shards.assign(static_cast<size_t>(k + m), std::nullopt);
  gs->outstanding = static_cast<int>(acting.size());
  gs->done = std::move(done);

  auto finish = [this, gs, k, m, off, len]() {
    if (gs->successes < k) {
      gs->done(Status::unavailable("fewer than k shards readable"));
      return;
    }
    // Count available data shards; reconstruction costs decode CPU.
    int data_present = 0;
    for (int i = 0; i < k; i++) {
      if (gs->shards[static_cast<size_t>(i)].has_value()) data_present++;
    }
    ReedSolomon rs(k, m);
    auto deliver = [gs, off, len](Result<Buffer> decoded) {
      if (!decoded.is_ok()) {
        gs->done(decoded.status());
        return;
      }
      Buffer full = std::move(decoded).value();
      if (off >= full.size()) {
        gs->done(Buffer());
        return;
      }
      const uint64_t n =
          len == 0 ? full.size() - off : std::min<uint64_t>(len, full.size() - off);
      gs->done(full.slice(off, n));
    };
    if (data_present < k) {
      uint64_t bytes = 0;
      for (const auto& s : gs->shards) {
        if (s.has_value()) bytes += s->size();
      }
      // Degraded read: reconstruct when the virtual decode cost has
      // elapsed.  All replies are in (outstanding == 0), so gs->shards is
      // immutable from here on — safe to share with the deferred job.
      auto fut = kernel_async<Result<Buffer>>(
          ctx_->exec_pool(), Kernel::kEcDecode,
          [gs, rs] { return rs.decode(gs->shards, gs->orig_len); });
      cpu().execute(cpu().ec_parity_cost(bytes),
                    [fut = std::move(fut), deliver]() mutable {
                      deliver(fut.take());
                    });
    } else {
      // All k data shards local-fast-path: no virtual gap to hide the
      // decode in, so it stays synchronous (it is a cheap concatenation).
      deliver(rs.decode(gs->shards, gs->orig_len));
    }
  };

  for (size_t i = 0; i < acting.size(); i++) {
    OsdOp sub;
    sub.type = OsdOpType::kShardRead;
    sub.pool = pool;
    sub.oid = oid;
    sub.foreground = foreground;
    auto on_reply = [gs, finish, k, m](OsdOpReply rep) {
      if (rep.status.is_ok()) {
        int shard_idx = -1;
        auto it = rep.attrs.find(kEcShardXattr);
        if (it != rep.attrs.end()) {
          Decoder d(it->second);
          uint32_t v = 0;
          if (d.get_u32(&v).is_ok() && v < static_cast<uint32_t>(k + m)) {
            shard_idx = static_cast<int>(v);
          }
        }
        auto ol = rep.attrs.find(kEcOrigLenXattr);
        if (ol != rep.attrs.end()) {
          if (auto v = decode_u64(ol->second); v.is_ok()) {
            gs->orig_len = v.value();
            gs->have_orig_len = true;
          }
        }
        if (shard_idx >= 0 && !gs->shards[static_cast<size_t>(shard_idx)]) {
          gs->shards[static_cast<size_t>(shard_idx)] = std::move(rep.data);
          gs->successes++;
        }
      }
      if (--gs->outstanding == 0) finish();
    };
    if (acting[i] == id_) {
      handle_shard_read(sub, on_reply);
    } else {
      send_osd_op(*ctx_, node_, acting[i], std::move(sub), on_reply);
    }
  }
}

// ------------------------------------------------------------- messaging

void send_osd_op(ClusterContext& ctx, NodeId from_node, OsdId target, OsdOp op,
                 ReplyFn cb) {
  Osd* osd = ctx.osd(target);
  if (osd == nullptr) {
    // Client-side state lives on the caller's node; pin the synthetic
    // reply (and the timeout timer below) to that shard so the reply path
    // never crosses shards outside the network.
    ctx.sched().after_node(from_node, usec(1), [cb = std::move(cb)] {
      cb(OsdOpReply{Status::unavailable("unknown osd"), {}, 0, {}, nullptr});
    });
    return;
  }
  const NodeId tnode = ctx.node_of_osd(target);
  const uint64_t req_bytes = op.wire_bytes();
  ClusterContext* pctx = &ctx;
  if (const SimTime timeout = ctx.op_timeout(); timeout > 0) {
    // The reply races a timer; first arrival wins, the loser is dropped.
    // Needed for liveness once OSDs can crash (silently eating requests)
    // or the fabric can lose messages.
    auto fired = std::make_shared<bool>(false);
    ReplyFn inner = std::move(cb);
    cb = [fired, inner](OsdOpReply rep) {
      if (*fired) return;
      *fired = true;
      inner(std::move(rep));
    };
    ctx.sched().after_node(from_node, timeout, [cb] {
      cb(OsdOpReply{Status::unavailable("osd op timed out"), {}, 0, {},
                    nullptr});
    });
  }
  ctx.net().send(
      from_node, tnode, req_bytes,
      [pctx, osd, from_node, tnode, op = std::move(op), cb = std::move(cb)]() mutable {
        osd->handle_op(std::move(op), [pctx, from_node, tnode,
                                       cb = std::move(cb)](OsdOpReply rep) {
          const uint64_t rep_bytes = rep.wire_bytes();
          pctx->net().send(tnode, from_node, rep_bytes,
                           [cb, rep = std::move(rep)]() mutable {
                             cb(std::move(rep));
                           });
        });
      });
}

}  // namespace gdedup
