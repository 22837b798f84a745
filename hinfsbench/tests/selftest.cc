// Tests of the benchmark's own measuring and checking pieces.

#include <gtest/gtest.h>

#include <vector>

#include "model.h"
#include "trace.h"

namespace hinfsbench {
namespace {

TEST(Percentile, NearestRankOverRawSamples) {
  std::vector<uint64_t> ns;
  for (uint64_t i = 1; i <= 1000; i++) {
    ns.push_back(i * 1000);  // 1..1000 us, shuffled below
  }
  std::swap(ns[0], ns[999]);
  std::swap(ns[10], ns[500]);
  const Percentile p99 = TakePercentile(ns, 0.99);
  EXPECT_DOUBLE_EQ(p99.value_us, 990.0);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = TakePercentile(ns, 0.50);
  EXPECT_DOUBLE_EQ(p50.value_us, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, SmallAndEmptySamples) {
  std::vector<uint64_t> none;
  const Percentile p = TakePercentile(none, 0.99);
  EXPECT_EQ(p.count, 0u);
  EXPECT_EQ(p.value_us, 0.0);
  std::vector<uint64_t> few = {5000, 1000, 3000};
  const Percentile top = TakePercentile(few, 0.99);
  EXPECT_DOUBLE_EQ(top.value_us, 5.0);  // too few samples: p99 is the maximum
  EXPECT_EQ(top.beyond, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

void Add(ThreadSpans& t, uint64_t start, uint64_t end, uint32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  t.Append(s);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  ThreadSpans t;
  Add(t, 0, 100, kNoParent);  // 0: vfs call
  Add(t, 10, 30, 0);          // 1: fs call
  Add(t, 12, 20, 1);          // 2: inner fs call under 1
  Add(t, 40, 70, 0);          // 3: second fs call
  Add(t, 200, 250, kNoParent);  // 4: unrelated root
  const std::vector<uint64_t> self = SelfTimes(t);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100u - 20u - 30u);
  EXPECT_EQ(self[1], 20u - 8u);
  EXPECT_EQ(self[2], 8u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 50u);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  ThreadSpans t;
  Add(t, 0, 100, kNoParent);
  Add(t, 10, 40, 0);
  Add(t, 30, 60, 0);   // overlaps the previous child by 10
  Add(t, 90, 150, 0);  // runs past the parent's end: only 90..100 counts
  const std::vector<uint64_t> self = SelfTimes(t);
  EXPECT_EQ(self[0], 100u - 50u - 10u);
}

TEST(SelfTime, NestedScopedSpansLinkParents) {
  Tracer::SetRecording(true);
  {
    ScopedSpan outer(Layer::kVfs, Op::kRead, 7);
    ScopedSpan inner(Layer::kHinfs, Op::kRead);
  }
  Tracer::SetRecording(false);
  const ThreadSpans& t = Tracer::Local();
  ASSERT_GE(t.size(), 2u);
  const Span& outer = t.at(t.size() - 2);
  const Span& inner = t.at(t.size() - 1);
  EXPECT_EQ(inner.parent, t.size() - 2);
  EXPECT_EQ(inner.req, 7u);  // inherits the request id
  EXPECT_EQ(outer.parent, kNoParent);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_EQ(t.open, kNoParent);
}

TEST(ContentModel, CatchesOneFlippedByte) {
  std::vector<uint8_t> data(128 << 10);
  FillPattern(42, data.data(), data.size());
  FileModel f;
  f.Write(0, data.data(), data.size());
  std::vector<uint8_t> read = data;
  EXPECT_TRUE(f.Matches(0, read.data(), read.size()));
  read[77777] ^= 0x01;
  EXPECT_FALSE(f.Matches(0, read.data(), read.size()));
  // A sub-range check sees the flip only when it covers the byte.
  EXPECT_FALSE(f.Matches(65536, read.data() + 65536, 16384));
  EXPECT_TRUE(f.Matches(0, read.data(), 65536));
}

TEST(ContentModel, OverwritesExtendsAndHoles) {
  FileModel f;
  const uint8_t a[4] = {1, 2, 3, 4};
  f.Write(8, a, 4);  // hole of 8 zero bytes in front
  EXPECT_EQ(f.size(), 12u);
  const uint8_t want[12] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_TRUE(f.Matches(0, want, 12));
  EXPECT_FALSE(f.Matches(4, want, 12));  // reaches past the model's end
  f.Clear();
  EXPECT_EQ(f.size(), 0u);
}

TEST(FillPattern, SameSeedSameBytes) {
  std::vector<uint8_t> a(1001), b(1001), c(1001);
  FillPattern(5, a.data(), a.size());
  FillPattern(5, b.data(), b.size());
  FillPattern(6, c.data(), c.size());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(OpTally, NonOkStatusCountsAsFailure) {
  OpTally t;
  t.Record(hinfs::OkStatus());
  t.Record(hinfs::Status(hinfs::ErrorCode::kNotFound, "gone"));
  t.Record(hinfs::Status(hinfs::ErrorCode::kIoError));
  t.Record(hinfs::OkStatus());
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 2u);
  OpTally u;
  u.Record(hinfs::Status(hinfs::ErrorCode::kNoSpace));
  t.Add(u);
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.failed, 3u);
}

}  // namespace
}  // namespace hinfsbench
