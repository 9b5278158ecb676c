#include "workload/query_log.h"

#include <sstream>

#include <gtest/gtest.h>

#include "activity/activity_vector.h"

namespace thrifty {
namespace {

TenantLog MakeLog(TenantId id) {
  TenantLog log;
  log.tenant_id = id;
  log.entries.push_back({10 * kSecond, 3, 5 * kSecond, -1});
  log.entries.push_back({30 * kSecond, 7, 20 * kSecond, 2});
  log.entries.push_back({35 * kSecond, 8, 25 * kSecond, 2});
  return log;
}

TEST(QueryLogTest, ActivityIntervalsMergeOverlaps) {
  TenantLog log = MakeLog(1);
  IntervalSet activity = log.ActivityIntervals();
  // [10,15) and [30,50)+[35,60) -> [30,60).
  ASSERT_EQ(activity.size(), 2u);
  EXPECT_EQ(activity.intervals()[0], (TimeInterval{10000, 15000}));
  EXPECT_EQ(activity.intervals()[1], (TimeInterval{30000, 60000}));
}

TEST(QueryLogTest, ActiveRatio) {
  TenantLog log = MakeLog(1);
  // Active 5 + 30 = 35 s out of 100 s.
  EXPECT_DOUBLE_EQ(log.ActiveRatio(0, 100 * kSecond), 0.35);
  EXPECT_EQ(log.ActiveRatio(100, 100), 0);
}

TEST(QueryLogTest, SortEntriesIsStable) {
  TenantLog log;
  log.tenant_id = 1;
  log.entries.push_back({50, 1, 10, -1});
  log.entries.push_back({10, 2, 10, -1});
  log.entries.push_back({50, 3, 10, -1});
  log.SortEntries();
  EXPECT_EQ(log.entries[0].template_id, 2);
  EXPECT_EQ(log.entries[1].template_id, 1);  // stable: 1 before 3
  EXPECT_EQ(log.entries[2].template_id, 3);
}

TEST(QueryLogTest, CsvRoundTrip) {
  std::vector<TenantLog> logs = {MakeLog(4), MakeLog(9)};
  std::ostringstream os;
  ASSERT_TRUE(WriteLogsCsv(logs, os).ok());
  std::istringstream is(os.str());
  auto parsed = ReadLogsCsv(is);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].tenant_id, 4);
  EXPECT_EQ((*parsed)[1].tenant_id, 9);
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_EQ((*parsed)[t].entries.size(), 3u);
    for (size_t e = 0; e < 3; ++e) {
      EXPECT_EQ((*parsed)[t].entries[e].submit_time,
                logs[t].entries[e].submit_time);
      EXPECT_EQ((*parsed)[t].entries[e].template_id,
                logs[t].entries[e].template_id);
      EXPECT_EQ((*parsed)[t].entries[e].observed_latency,
                logs[t].entries[e].observed_latency);
      EXPECT_EQ((*parsed)[t].entries[e].batch_id, logs[t].entries[e].batch_id);
    }
  }
}

TEST(QueryLogTest, CsvRejectsGarbage) {
  {
    std::istringstream is("");
    EXPECT_EQ(ReadLogsCsv(is).status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream is("not,a,header\n1,2,3,4,5\n");
    EXPECT_EQ(ReadLogsCsv(is).status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream is(
        "tenant_id,submit_ms,template_id,latency_ms,batch_id\n1,2,3\n");
    EXPECT_EQ(ReadLogsCsv(is).status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream is(
        "tenant_id,submit_ms,template_id,latency_ms,batch_id\n1,x,3,4,5\n");
    EXPECT_EQ(ReadLogsCsv(is).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QueryLogTest, AverageActiveTenantRatio) {
  // Tenant 1 active 25% of the window, tenant 2 active 75%.
  TenantLog a, b;
  a.tenant_id = 1;
  a.entries.push_back({0, 0, 25 * kSecond, -1});
  b.tenant_id = 2;
  b.entries.push_back({0, 0, 75 * kSecond, -1});
  double ratio = AverageActiveTenantRatio({a, b}, 0, 100 * kSecond);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(QueryLogTest, ConditionalRatioExceedsAverageWhenConcentrated) {
  // Two tenants active in the same one-tenth of the window.
  TenantLog a, b;
  a.tenant_id = 1;
  a.entries.push_back({0, 0, 10 * kSecond, -1});
  b.tenant_id = 2;
  b.entries.push_back({0, 0, 10 * kSecond, -1});
  double average = AverageActiveTenantRatio({a, b}, 0, 100 * kSecond);
  const EpochConfig epochs{kSecond, 0, 100 * kSecond};
  double conditional = ConditionalActiveTenantRatio(
      {MakeActivityVector(a, epochs), MakeActivityVector(b, epochs)});
  EXPECT_DOUBLE_EQ(average, 0.1);
  EXPECT_DOUBLE_EQ(conditional, 1.0);  // both active in every busy epoch
}

TEST(QueryLogTest, ConditionalRatioEmptyInputs) {
  EXPECT_EQ(ConditionalActiveTenantRatio({}), 0);
  TenantLog idle;
  idle.tenant_id = 1;
  EXPECT_EQ(ConditionalActiveTenantRatio(
                {MakeActivityVector(idle, EpochConfig{10, 0, 100})}),
            0);
}

}  // namespace
}  // namespace thrifty
