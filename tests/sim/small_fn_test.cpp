// SmallFn inline-budget guard.
//
// The DES hot path depends on every kernel-scheduled closure living in
// SmallFn's inline buffer: one oversized capture block and the simulator
// silently heap-allocates per event. rtos/kernel.cpp static_asserts its
// own closures at the schedule sites; this suite pins the budget itself
// and the fits_inline_v trait those asserts rely on, including capture
// shapes representative of the kernel's largest continuations.
#include "sim/small_fn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace delta::sim {
namespace {

// The EventQueue slab node packs time + seq + generation + SmallFn into
// two cache lines; the budget is part of that layout contract. Changing
// it is a deliberate relayout, not a drive-by.
static_assert(SmallFn::kInlineBytes == 88);

// Representative kernel capture shapes (see rtos/kernel.cpp). The largest
// service continuation — op_request's, capturing a kernel pointer, a
// task id and a vector of per-resource events — must fit with room for
// the completion wrapper's own pe + done captures.
struct KernelPtrIdVector {
  void* kernel;
  std::uint64_t id;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> events;
  void operator()() {}
};
static_assert(SmallFn::fits_inline_v<KernelPtrIdVector>);

// The alloc continuation: kernel pointer, id, slot pointer, ok, addr.
struct AllocContinuation {
  void* kernel;
  std::uint64_t id;
  const std::string* slot;
  bool ok;
  std::uint64_t addr;
  void operator()() {}
};
static_assert(SmallFn::fits_inline_v<AllocContinuation>);

// A 12-pointer capture block (96 bytes) exceeds the budget on any LP64
// platform and must box rather than corrupt the slab node.
struct Oversized {
  void* p[12];
  void operator()() {}
};
static_assert(!SmallFn::fits_inline_v<Oversized>);

// Throwing-move closures must box: the queue relocates nodes noexcept.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};
static_assert(!SmallFn::fits_inline_v<ThrowingMove>);

TEST(SmallFn, InvokesInlineClosure) {
  int hits = 0;
  SmallFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, BoxedClosureStillWorks) {
  // Deliberately larger than the inline buffer.
  std::vector<std::uint64_t> payload(32, 7);
  std::uint64_t sum = 0;
  auto big = [payload, pad = Oversized{}, &sum]() mutable {
    (void)pad;
    for (const auto v : payload) sum += v;
  };
  static_assert(!SmallFn::fits_inline_v<decltype(big)>);
  SmallFn fn(std::move(big));
  fn();
  EXPECT_EQ(sum, 32u * 7u);
}

TEST(SmallFn, MoveTransfersTheClosure) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, MoveOnlyCapturesAreSupported) {
  auto owned = std::make_unique<int>(41);
  SmallFn fn([p = std::move(owned)] { ++*p; });
  fn();  // must not crash; the unique_ptr lives in the buffer
}

TEST(SmallFn, EmplaceReplacesAndReleasesTheOldClosure) {
  auto counter = std::make_shared<int>(0);
  SmallFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  fn.emplace([] {});  // old captures destroyed eagerly
  EXPECT_EQ(counter.use_count(), 1);
  fn();
}

}  // namespace
}  // namespace delta::sim
