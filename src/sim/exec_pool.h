#pragma once

// Deferred execution and host-time accounting for the real-byte kernels.
//
// The simulator carries real bytes, so fingerprinting, CRC, EC parity and
// compression cost host wall-clock even though their *virtual* cost is
// already modelled by CpuModel::execute().  A kernel is captured at issue
// time (when the virtual cost is charged) as a KernelFuture and run inside
// the scheduler callback that dispatches its virtual-time completion —
// never earlier, never from a new event, and never at all if that
// completion never fires (a crashed OSD drops the callback and with it
// the closure).  The closure is destroyed right after it runs, so Buffer
// refcounts (observed by COW detach) drop at that same deterministic
// point.
//
// Everything runs on the calling thread.  ExecPool only counts jobs and
// host busy time per kernel (perfbench and bench_sim_e2e report them);
// the counters are atomic because parallel shard windows call kernels
// from several threads.  DESIGN.md §8 explains why nothing runs on
// worker threads.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

namespace gdedup {

// The real-byte kernels (plus CDC chunking split out from
// fingerprinting); indexes the per-kernel stats breakdown.
enum class Kernel : int {
  kFingerprint = 0,
  kCdcChunk,
  kCrc,
  kEcEncode,
  kEcDecode,
  kCompress,
  kWeakHash,
  kCount,
};

const char* kernel_name(Kernel k);

class ExecPool {
 public:
  struct KernelStats {
    uint64_t jobs = 0;     // jobs submitted for this kernel
    uint64_t busy_ns = 0;  // host wall-clock spent executing them
  };

  // Count one job submitted for `k` (whether or not it ever runs).
  void submit(Kernel k) {
    kernel_jobs_[static_cast<int>(k)].fetch_add(1, std::memory_order_relaxed);
  }

  // Run `fn` on the caller, charging its host time to `k`.
  void run(Kernel k, const std::function<void()>& fn);

  KernelStats kernel_stats(Kernel k) const;

 private:
  std::atomic<uint64_t> kernel_jobs_[static_cast<int>(Kernel::kCount)] = {};
  std::atomic<uint64_t> kernel_busy_ns_[static_cast<int>(Kernel::kCount)] = {};
};

// A kernel captured now and run at take().  With a null pool (unit
// fixtures without a cluster) the job runs the same way, uncounted.
// Copies share one closure, so take() on any of them destroys it for all.
template <typename T>
class KernelFuture {
 public:
  KernelFuture() = default;

  template <typename Fn>
  KernelFuture(ExecPool* pool, Kernel k, Fn fn)
      : job_(std::make_shared<std::function<T()>>(std::move(fn))),
        pool_(pool),
        kernel_(k) {
    if (pool_ != nullptr) pool_->submit(k);
  }

  bool valid() const { return job_ != nullptr; }

  // Run the job, destroy its closure and move the result out.  Call
  // exactly once, inside the virtual-time completion callback.
  T take() {
    std::optional<T> out;
    auto run = [&] { out.emplace((*job_)()); };
    if (pool_ != nullptr) {
      pool_->run(kernel_, run);
    } else {
      run();
    }
    *job_ = nullptr;
    job_.reset();
    return std::move(*out);
  }

 private:
  std::shared_ptr<std::function<T()>> job_;
  ExecPool* pool_ = nullptr;
  Kernel kernel_ = Kernel::kFingerprint;
};

template <typename T, typename Fn>
KernelFuture<T> kernel_async(ExecPool* pool, Kernel k, Fn fn) {
  return KernelFuture<T>(pool, k, std::move(fn));
}

}  // namespace gdedup
