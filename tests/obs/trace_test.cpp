#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "obs/chrome_trace.h"

// Counts the bytes of every heap allocation in this binary (and the
// largest single one), so a test can show what an enabled recorder
// costs in memory.
namespace {
std::size_t g_allocated_bytes = 0;
std::size_t g_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes += size;
  if (size > g_largest_allocation) g_largest_allocation = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace delta::obs {
namespace {

TEST(TraceRecorder, DisabledByDefaultAndRecordIsNoop) {
  TraceRecorder t;
  EXPECT_FALSE(t.enabled());
  t.record(EventKind::kBusTransfer, 0, 10, 5, 8, 0);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceRecorder, RecordsInOrderWithPayloads) {
  TraceRecorder t;
  t.enable(16);
  t.record(EventKind::kLockAcquire, 1, 100, 30, /*lock=*/2, /*cont=*/0);
  t.record(EventKind::kLockRelease, 1, 200, 0, 2);
  const std::vector<Event> ev = t.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, EventKind::kLockAcquire);
  EXPECT_EQ(ev[0].pe, 1u);
  EXPECT_EQ(ev[0].start, 100u);
  EXPECT_EQ(ev[0].dur, 30u);
  EXPECT_EQ(ev[0].a0, 2u);
  EXPECT_EQ(ev[1].kind, EventKind::kLockRelease);
  EXPECT_EQ(t.recorded(), 2u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceRecorder, DropOldestWhenFull) {
  TraceRecorder t;
  t.enable(4);
  for (std::uint64_t i = 0; i < 7; ++i)
    t.record(EventKind::kContextSwitch, 0, 10 * i, 0, i);
  EXPECT_EQ(t.recorded(), 7u);
  EXPECT_EQ(t.dropped(), 3u);
  const std::vector<Event> ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  // The oldest three fell off the front; retained events stay in
  // chronological order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ev[i].a0, i + 3);
    EXPECT_EQ(ev[i].start, 10 * (i + 3));
  }
}

TEST(TraceRecorder, MemoryGrowsWithRecordedEventsNotCapacity) {
  // The capacity is a bound, not an up-front allocation: a profiled run
  // records a few hundred events into a 262144-slot bound, and must not
  // pay 10 MB of ring for them.
  TraceRecorder t;
  const std::size_t before = g_allocated_bytes;
  t.enable(262144);
  EXPECT_EQ(g_allocated_bytes - before, 0u);
  for (std::uint64_t i = 0; i < 300; ++i)
    t.record(EventKind::kBusTransfer, 0, i, 1, i, 0);
  EXPECT_LT(g_allocated_bytes - before, 64u * 1024);
  EXPECT_EQ(t.recorded(), 300u);
  EXPECT_EQ(t.dropped(), 0u);
  const std::vector<Event> ev = t.events();
  ASSERT_EQ(ev.size(), 300u);
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(ev[i].a0, i);
}

TEST(TraceRecorder, NonPowerOfTwoCapacityWrapsAndReenablesEmpty) {
  // 250 records into a 100-event bound: the ring fills by appending,
  // then overwrites oldest-first; growth must stop at exactly 100.
  TraceRecorder t;
  g_largest_allocation = 0;
  t.enable(100);
  for (std::uint64_t i = 0; i < 250; ++i)
    t.record(EventKind::kContextSwitch, static_cast<std::uint16_t>(i % 4),
             10 * i, 0, i);
  EXPECT_LE(g_largest_allocation, 100 * sizeof(Event));
  EXPECT_EQ(t.recorded(), 250u);
  EXPECT_EQ(t.dropped(), 150u);
  std::vector<Event> ev = t.events();
  ASSERT_EQ(ev.size(), 100u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].a0, i + 150);
    EXPECT_EQ(ev[i].start, 10 * (i + 150));
    EXPECT_EQ(ev[i].pe, (i + 150) % 4);
  }
  // Re-enabling after use starts empty and fills from scratch.
  t.enable(100);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.events().empty());
  for (std::uint64_t i = 0; i < 3; ++i)
    t.record(EventKind::kAlloc, 1, i, 0, 1000 + i);
  ev = t.events();
  ASSERT_EQ(ev.size(), 3u);
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(ev[i].a0, 1000 + i);
}

TEST(TraceRecorder, EnableZeroDisablesAndClears) {
  TraceRecorder t;
  t.enable(8);
  t.record(EventKind::kAlloc, 2, 5, 1, 64, 0);
  EXPECT_EQ(t.recorded(), 1u);
  t.enable(0);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.events().empty());
  t.record(EventKind::kAlloc, 2, 6, 1, 64, 0);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(TraceRecorder, EventKindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kBusTransfer), "bus_transfer");
  EXPECT_STREQ(event_kind_name(EventKind::kLockSpin), "lock_spin");
  EXPECT_STREQ(event_kind_name(EventKind::kDeadlockRequest),
               "deadlock_request");
  EXPECT_STREQ(event_kind_name(EventKind::kContextSwitch),
               "context_switch");
}

TEST(ChromeTrace, CategoriesPerKind) {
  EXPECT_STREQ(event_category(EventKind::kBusTransfer), "bus");
  EXPECT_STREQ(event_category(EventKind::kLockAcquire), "lock");
  EXPECT_STREQ(event_category(EventKind::kDeadlockRelease), "deadlock");
  EXPECT_STREQ(event_category(EventKind::kFree), "mem");
  EXPECT_STREQ(event_category(EventKind::kContextSwitch), "sched");
}

TEST(ChromeTrace, EmptyDocumentIsWellFormed) {
  const std::string json = chrome_trace_json({});
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after '}'
}

TEST(ChromeTrace, EmitsProcessMetadataAndDurationEvents) {
  ProcessTrace p;
  p.pid = 3;
  p.name = "RTOS4/mixed/s1";
  Event e;
  e.kind = EventKind::kBusTransfer;
  e.pe = 2;
  e.start = 120;
  e.dur = 11;
  e.a0 = 8;   // words
  e.a1 = 4;   // wait_cycles
  p.events.push_back(e);
  const std::string json = chrome_trace_json({p});

  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"RTOS4/mixed/s1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"pid\": 3, \"tid\": 2, "
                      "\"ts\": 120, \"dur\": 11, "
                      "\"name\": \"bus_transfer\", \"cat\": \"bus\", "
                      "\"args\": {\"words\": 8, \"wait_cycles\": 4}"),
            std::string::npos);
}

TEST(ChromeTrace, SurfacesDroppedCountInProcessName) {
  ProcessTrace p;
  p.pid = 0;
  p.name = "run";
  p.dropped = 12;
  const std::string json = chrome_trace_json({p});
  EXPECT_NE(json.find("run (dropped 12 events)"), std::string::npos);
}

TEST(ChromeTrace, EscapesProcessNames) {
  ProcessTrace p;
  p.name = "we\"ird\\name";
  const std::string json = chrome_trace_json({p});
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

}  // namespace
}  // namespace delta::obs
