#include "sim/exec_pool.h"

#include <chrono>

namespace gdedup {

namespace {
uint64_t host_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kFingerprint:
      return "fingerprint";
    case Kernel::kCdcChunk:
      return "cdc_chunk";
    case Kernel::kCrc:
      return "crc";
    case Kernel::kEcEncode:
      return "ec_encode";
    case Kernel::kEcDecode:
      return "ec_decode";
    case Kernel::kCompress:
      return "compress";
    case Kernel::kWeakHash:
      return "weak_hash";
    default:
      return "?";
  }
}

void ExecPool::run(Kernel k, const std::function<void()>& fn) {
  const uint64_t t0 = host_now_ns();
  fn();
  kernel_busy_ns_[static_cast<int>(k)].fetch_add(host_now_ns() - t0,
                                                 std::memory_order_relaxed);
}

ExecPool::KernelStats ExecPool::kernel_stats(Kernel k) const {
  KernelStats s;
  s.jobs = kernel_jobs_[static_cast<int>(k)].load(std::memory_order_relaxed);
  s.busy_ns =
      kernel_busy_ns_[static_cast<int>(k)].load(std::memory_order_relaxed);
  return s;
}

}  // namespace gdedup
