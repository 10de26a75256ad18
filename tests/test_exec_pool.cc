// Deferred kernel execution (sim/exec_pool.h).
//
// The contract under test: a kernel captured by kernel_async() runs at
// take(), on the caller, inside the virtual-time completion that consumes
// it — so completion order follows virtual cost, never host duration —
// and ExecPool counts jobs and host busy time per kernel.

#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu.h"
#include "sim/exec_pool.h"

namespace gdedup {
namespace {

// Burn host cycles without UB: unsigned wrap instead of signed overflow,
// volatile store so the loop survives optimization.
void spin(int iters) {
  unsigned acc = 0;
  for (int i = 0; i < iters; i++) acc += static_cast<unsigned>(i);
  volatile unsigned sink = acc;
  (void)sink;
}

TEST(ExecPool, SerialDefersToJoin) {
  // Nothing runs at submit; take() computes on the caller.
  ExecPool pool;
  bool ran = false;
  auto fut = kernel_async<int>(&pool, Kernel::kCrc, [&ran] {
    ran = true;
    return 41 + 1;
  });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(fut.valid());
  EXPECT_EQ(fut.take(), 42);
  EXPECT_TRUE(ran);
  EXPECT_FALSE(fut.valid());
  EXPECT_EQ(pool.kernel_stats(Kernel::kCrc).jobs, 1u);

  // A future dropped before its completion fires never runs its job.
  bool dropped_ran = false;
  {
    auto dropped = kernel_async<int>(&pool, Kernel::kCrc, [&dropped_ran] {
      dropped_ran = true;
      return 0;
    });
  }
  EXPECT_FALSE(dropped_ran);
}

TEST(ExecPool, NullPoolRunsInline) {
  // Fixtures without a cluster pass nullptr; same deferred semantics.
  auto fut = kernel_async<int>(nullptr, Kernel::kFingerprint, [] { return 7; });
  EXPECT_TRUE(fut.valid());
  EXPECT_EQ(fut.take(), 7);
}

TEST(ExecPool, KernelStatsCountJobsAndBusyTime) {
  ExecPool pool;
  std::vector<KernelFuture<int>> futs;
  for (int i = 0; i < 4; i++) {
    futs.push_back(kernel_async<int>(&pool, Kernel::kEcEncode, [i] {
      spin(200000);
      return i * i;
    }));
  }
  // Jobs count at submission, busy time only once they run.
  EXPECT_EQ(pool.kernel_stats(Kernel::kEcEncode).jobs, 4u);
  EXPECT_EQ(pool.kernel_stats(Kernel::kEcEncode).busy_ns, 0u);
  for (int i = 3; i >= 0; i--) EXPECT_EQ(futs[i].take(), i * i);
  const ExecPool::KernelStats s = pool.kernel_stats(Kernel::kEcEncode);
  EXPECT_EQ(s.jobs, 4u);
  EXPECT_GT(s.busy_ns, 0u);
  // Other kernels are untouched.
  EXPECT_EQ(pool.kernel_stats(Kernel::kEcDecode).jobs, 0u);
  EXPECT_EQ(pool.kernel_stats(Kernel::kEcDecode).busy_ns, 0u);
}

TEST(ExecPool, JoinBeforeDispatchOrdering) {
  // Completion order is dictated by virtual cost, not host duration: a
  // job with a long host runtime but short virtual cost must complete
  // (be joined) before a cheap-host / expensive-virtual one.  This is the
  // join-at-dispatch rule end to end on a raw Scheduler + CpuModel.
  Scheduler sched;
  CpuModel cpu(&sched, CpuConfig{});
  ExecPool pool;
  std::vector<int> completion_order;
  struct Spec {
    int id;
    SimTime vcost;
    int host_spin;  // iterations, inverted vs vcost on purpose
  };
  const Spec specs[] = {{0, usec(300), 1000}, {1, usec(100), 2000000},
                        {2, usec(200), 1}};
  std::vector<KernelFuture<int>> futs(3);
  for (const Spec& s : specs) {
    futs[s.id] = kernel_async<int>(&pool, Kernel::kCompress, [s] {
      spin(s.host_spin);
      return s.id;
    });
    cpu.execute(s.vcost, [&completion_order, &futs, id = s.id] {
      completion_order.push_back(futs[id].take());
    });
  }
  sched.run();
  ASSERT_EQ(completion_order.size(), 3u);
  // Virtual costs order them 1 (100us), 2 (200us), 0 (300us).
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
  EXPECT_EQ(completion_order[2], 0);
}

}  // namespace
}  // namespace gdedup
