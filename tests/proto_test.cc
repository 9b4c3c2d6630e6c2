// Tests for the protocol vocabulary: operation classification, wire sizes,
// handles, payload buffers, and the metrics that aggregate them.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/metrics/op_counters.h"
#include "src/metrics/table.h"
#include "src/metrics/time_series.h"
#include "src/proto/messages.h"

namespace proto {
namespace {

TEST(ProtoTest, KindOfClassifiesEveryRequest) {
  EXPECT_EQ(KindOf(Request(NullReq{})), OpKind::kNull);
  EXPECT_EQ(KindOf(Request(GetAttrReq{})), OpKind::kGetAttr);
  EXPECT_EQ(KindOf(Request(SetAttrReq{})), OpKind::kSetAttr);
  EXPECT_EQ(KindOf(Request(LookupReq{})), OpKind::kLookup);
  EXPECT_EQ(KindOf(Request(ReadReq{})), OpKind::kRead);
  EXPECT_EQ(KindOf(Request(WriteReq{})), OpKind::kWrite);
  EXPECT_EQ(KindOf(Request(CreateReq{})), OpKind::kCreate);
  EXPECT_EQ(KindOf(Request(RemoveReq{})), OpKind::kRemove);
  EXPECT_EQ(KindOf(Request(RenameReq{})), OpKind::kRename);
  EXPECT_EQ(KindOf(Request(MkdirReq{})), OpKind::kMkdir);
  EXPECT_EQ(KindOf(Request(RmdirReq{})), OpKind::kRmdir);
  EXPECT_EQ(KindOf(Request(ReadDirReq{})), OpKind::kReadDir);
  EXPECT_EQ(KindOf(Request(OpenReq{})), OpKind::kOpen);
  EXPECT_EQ(KindOf(Request(CloseReq{})), OpKind::kClose);
  EXPECT_EQ(KindOf(Request(CallbackReq{})), OpKind::kCallback);
  EXPECT_EQ(KindOf(Request(PingReq{})), OpKind::kPing);
  EXPECT_EQ(KindOf(Request(ReopenReq{})), OpKind::kReopen);
}

TEST(ProtoTest, OpKindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kNumOpKinds; ++i) {
    names.insert(OpKindName(static_cast<OpKind>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumOpKinds));
}

TEST(ProtoTest, RetransmitDecisionsPerOpKind) {
  // Re-executing any of these is observable (reference counts, namespace).
  const std::set<OpKind> non_idempotent = {OpKind::kCreate, OpKind::kRemove, OpKind::kRename,
                                           OpKind::kMkdir,  OpKind::kRmdir,  OpKind::kOpen,
                                           OpKind::kClose,  OpKind::kCallback};
  // The duplicate-request cache keeps those replies, plus write and setattr:
  // a late replay of either could undo a later write or truncate. getlease
  // and metainval are idempotent and stay uncached.
  std::set<OpKind> cached = non_idempotent;
  cached.insert({OpKind::kWrite, OpKind::kSetAttr});
  for (int i = 0; i < kNumOpKinds; ++i) {
    auto kind = static_cast<OpKind>(i);
    EXPECT_EQ(IsIdempotent(kind), !non_idempotent.contains(kind)) << OpKindName(kind);
    EXPECT_EQ(CachesReply(kind), cached.contains(kind)) << OpKindName(kind);
  }
}

TEST(ProtoTest, WireSizeIncludesHeadersAndScalesWithNames) {
  LookupReq short_name;
  short_name.name = "a";
  LookupReq long_name;
  long_name.name = std::string(200, 'x');
  EXPECT_EQ(WireSize(Request(long_name)), WireSize(Request(short_name)) + 199);
  EXPECT_GT(WireSize(Request(short_name)), 100u);  // RPC/UDP/IP headers
}

TEST(ProtoTest, ReadReplyWireSizeScalesWithData) {
  ReadRep small;
  small.data = std::vector<uint8_t>(10);
  ReadRep big;
  big.data = std::vector<uint8_t>(4096);
  EXPECT_EQ(WireSize(Reply{base::OkStatus(), ReplyBody(big)}),
            WireSize(Reply{base::OkStatus(), ReplyBody(small)}) + 4086);
}

TEST(ProtoTest, BytesCopiesShareStorageAndCompareByContent) {
  std::vector<uint8_t> raw{1, 2, 3, 4};
  const uint8_t* adopted_from = raw.data();
  Bytes a(std::move(raw));
  EXPECT_EQ(a.data(), adopted_from);  // adopting a vector copies nothing
  Bytes b = a;
  EXPECT_EQ(b.data(), a.data());  // copies share one buffer
  EXPECT_EQ(b, a);
  uint8_t same[] = {1, 2, 3, 4};
  Bytes c(same, sizeof(same));
  EXPECT_NE(c.data(), a.data());
  EXPECT_EQ(c, a);  // equality is by content
  EXPECT_FALSE(c == Bytes(std::vector<uint8_t>{1, 2, 3, 5}));
  EXPECT_FALSE(c == Bytes(std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(Bytes(), Bytes(std::vector<uint8_t>{}));
}

TEST(ProtoTest, BytesEditsCopyOnWrite) {
  Bytes a(std::vector<uint8_t>{1, 2, 3, 4});
  Bytes b = a;
  Bytes patch(std::vector<uint8_t>{9, 9});
  Bytes edited = a.Overwritten(1, patch, 0, 2);
  EXPECT_EQ(edited.ToVector(), (std::vector<uint8_t>{1, 9, 9, 4}));
  EXPECT_EQ(a.ToVector(), (std::vector<uint8_t>{1, 2, 3, 4}));  // holders see no change
  EXPECT_EQ(b.data(), a.data());
  // Writing past the end zero-extends.
  EXPECT_EQ(a.Overwritten(6, patch, 1, 1).ToVector(), (std::vector<uint8_t>{1, 2, 3, 4, 0, 0, 9}));
  // A write that replaces everything and is exactly the source is the source.
  Bytes whole(std::vector<uint8_t>{7, 7, 7, 7, 7});
  EXPECT_EQ(a.Overwritten(0, whole, 0, 5).data(), whole.data());
  EXPECT_EQ(a.Overwritten(0, whole, 1, 4).ToVector(), (std::vector<uint8_t>{7, 7, 7, 7}));
  EXPECT_EQ(a.Resized(2).ToVector(), (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(a.Resized(6).ToVector(), (std::vector<uint8_t>{1, 2, 3, 4, 0, 0}));
}

TEST(ProtoTest, FileHandleEqualityAndHashing) {
  FileHandle a{1, 42, 0};
  FileHandle b{1, 42, 0};
  FileHandle c{1, 42, 1};  // different generation
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  FileHandleHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

TEST(OpCountersTest, TotalsAndDiffs) {
  metrics::OpCounters counters;
  counters.Add(OpKind::kRead, 10);
  counters.Add(OpKind::kWrite, 5);
  counters.Add(OpKind::kLookup, 20);
  EXPECT_EQ(counters.Total(), 35u);
  EXPECT_EQ(counters.DataTransfer(), 15u);
  EXPECT_EQ(counters.Others(), 20u);

  metrics::OpCounters later = counters;
  later.Add(OpKind::kRead, 3);
  metrics::OpCounters delta = later.Diff(counters);
  EXPECT_EQ(delta.Get(OpKind::kRead), 3u);
  EXPECT_EQ(delta.Total(), 3u);
}

TEST(TimeSeriesTest, CorrelationDetectsLinearRelation) {
  metrics::TimeSeries a;
  metrics::TimeSeries b;
  metrics::TimeSeries anti;
  for (int i = 0; i < 20; ++i) {
    a.Push(i, i * 2.0);
    b.Push(i, i * 5.0 + 1);
    anti.Push(i, -i * 1.0);
  }
  EXPECT_NEAR(metrics::TimeSeries::Correlation(a, b), 1.0, 1e-9);
  EXPECT_NEAR(metrics::TimeSeries::Correlation(a, anti), -1.0, 1e-9);
}

TEST(TimeSeriesTest, StatsOnEmptyAndConstantSeries) {
  metrics::TimeSeries empty;
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.Max(), 0.0);
  metrics::TimeSeries flat;
  flat.Push(0, 3.0);
  flat.Push(1, 3.0);
  EXPECT_EQ(metrics::TimeSeries::Correlation(flat, flat), 0.0);  // zero variance
  EXPECT_EQ(flat.Mean(), 3.0);
}

TEST(TableTest, FormatsAlignedColumns) {
  metrics::Table table({"A", "Bee"});
  table.AddRow({"1", "2"});
  table.AddRow({"lengthy", "x"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| A       | Bee |"), std::string::npos);
  EXPECT_NE(out.find("| lengthy | x   |"), std::string::npos);
  EXPECT_EQ(metrics::Table::Pct(0.1234), "12.3%");
  EXPECT_EQ(metrics::Table::Int(42), "42");
}

}  // namespace
}  // namespace proto
